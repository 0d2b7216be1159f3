type node_info = {
  ni_node : int;
  ni_fast : bool;
  ni_free : int;
  ni_capacity : int;
  ni_draining : bool;
}

type page_info = {
  pi_vpage : int;
  pi_tenant : int;
  pi_node : int;
  pi_heat : int;
}

type pages = { hot : page_info list; cold : page_info list Lazy.t }

let hottest_first a b =
  if a.pi_heat <> b.pi_heat then Int.compare b.pi_heat a.pi_heat
  else if a.pi_tenant <> b.pi_tenant then Int.compare a.pi_tenant b.pi_tenant
  else Int.compare a.pi_vpage b.pi_vpage

type move = { mv_tenant : int; mv_vpage : int; mv_dst : int }

type t = {
  name : string;
  choose_node : nodes:node_info list -> tenant:int -> int option;
  plan : nodes:node_info list -> pages:pages -> budget:int -> move list;
  stats : unit -> (string * int) list;
}

(* Policies plan in units of one page; the migrator re-checks capacity at
   execution time, so this is an estimate, not an invariant. *)
let page = 4096

(* ------------------------------------------------------------------ *)
(* first-fit: the controller's round-robin, no migration.              *)

let first_fit () =
  {
    name = "first-fit";
    choose_node = (fun ~nodes:_ ~tenant:_ -> None);
    plan = (fun ~nodes:_ ~pages:_ ~budget:_ -> []);
    stats = (fun () -> []);
  }

(* ------------------------------------------------------------------ *)
(* heat-aware: promote hot pages to the fast tier, demote cold ones.   *)

(* Mutable per-plan view of node free space so one epoch's moves don't
   all pile onto the same destination. *)
type slot = { info : node_info; mutable free : int }

let best_dst slots ~pred =
  let best = ref None in
  List.iter
    (fun s ->
      if
        pred s.info && (not s.info.ni_draining) && s.free >= page
        &&
        match !best with
        | None -> true
        | Some b ->
            s.free > b.free || (s.free = b.free && s.info.ni_node < b.info.ni_node)
      then best := Some s)
    slots;
  !best

(* Membership of a node id in [nodes] with [pred], as an array lookup:
   plans test it once per page. *)
let node_set nodes pred =
  let set =
    Array.make (List.fold_left (fun a n -> max a (n.ni_node + 1)) 0 nodes) false
  in
  List.iter (fun n -> if pred n then set.(n.ni_node) <- true) nodes;
  fun id -> id >= 0 && id < Array.length set && set.(id)

(* Every page coldest first: the zero-heat tail reversed, then the hot
   prefix reversed. *)
let iter_coldest_first pages f =
  List.iter f (List.rev (Lazy.force pages.cold));
  List.iter f (List.rev pages.hot)

let heat_aware ?(hot_threshold = 2) () =
  if hot_threshold <= 0 then
    invalid_arg "Placement_policy.heat_aware: non-positive threshold";
  let promotions = ref 0 and demotions = ref 0 and no_room = ref 0 in
  let plan ~nodes ~pages ~budget =
    let slots = List.map (fun info -> { info; free = info.ni_free }) nodes in
    let is_fast = node_set nodes (fun n -> n.ni_fast) in
    let moves = ref [] and left = ref budget in
    let emit p dst =
      dst.free <- dst.free - page;
      moves := { mv_tenant = p.pi_tenant; mv_vpage = p.pi_vpage;
                 mv_dst = dst.info.ni_node }
               :: !moves;
      decr left
    in
    (* Hot pages stranded on the slow tier come first, hottest first.
       Zero-heat pages are below any threshold, so the hot prefix holds
       every candidate. *)
    List.iter
      (fun p ->
        if !left > 0 && p.pi_heat >= hot_threshold && not (is_fast p.pi_node)
        then
          match best_dst slots ~pred:(fun n -> n.ni_fast) with
          | Some dst -> incr promotions; emit p dst
          | None -> incr no_room)
      pages.hot;
    (* Demote cold residue off the fast tier only under pressure — when
       its headroom has fallen below 1/8 of its capacity — so a tier
       with room left doesn't churn.  Demotions land on slow nodes only,
       so the fast tier's headroom is fixed for the whole pass: test it
       once, and force the zero-heat tail only when it fails. *)
    let fast_free =
      List.fold_left (fun a s -> if s.info.ni_fast then a + s.free else a) 0 slots
    in
    let fast_cap =
      List.fold_left
        (fun a n -> if n.ni_fast then a + n.ni_capacity else a)
        0 nodes
    in
    if !left > 0 && fast_free < fast_cap / 8 then
      iter_coldest_first pages (fun p ->
          if !left > 0 && p.pi_heat < hot_threshold && is_fast p.pi_node then
            match best_dst slots ~pred:(fun n -> not n.ni_fast) with
            | Some dst -> incr demotions; emit p dst
            | None -> incr no_room);
    List.rev !moves
  in
  {
    name = "heat";
    (* Allocation stays the controller's round-robin (placement is not
       clairvoyant about future access patterns); only observed heat
       moves pages, so first-fit vs heat isolates what migration buys. *)
    choose_node = (fun ~nodes:_ ~tenant:_ -> None);
    plan;
    stats =
      (fun () ->
        [ ("promotions", !promotions); ("demotions", !demotions);
          ("no_room", !no_room) ]);
  }

(* ------------------------------------------------------------------ *)
(* centralized: MIND-style directory — one allocator sees every node's *)
(* load, spreads fresh slabs least-loaded-first, and plans capacity-   *)
(* balancing moves off overfull nodes.                                 *)

let centralized () =
  let lookups = ref 0 and rebalances = ref 0 in
  let used n = n.ni_capacity - n.ni_free in
  let plan ~nodes ~pages ~budget =
    let live = List.filter (fun n -> not n.ni_draining) nodes in
    match live with
    | [] | [ _ ] -> []
    | _ ->
        let total_used = List.fold_left (fun a n -> a + used n) 0 live in
        let mean = total_used / List.length live in
        (* A node is overfull once it exceeds the mean by more than one
           slab's worth of slack; shed its coldest pages to the node
           with the most headroom. *)
        let slack = 64 * page in
        let slots = List.map (fun info -> { info; free = info.ni_free }) live in
        let overfull n = used n > mean + slack in
        let over = node_set live overfull in
        let moves = ref [] and left = ref budget in
        (* Shed coldest first, to balance with cheap pages; a rack with
           no overfull node never forces the zero-heat tail. *)
        if List.exists overfull live then
          iter_coldest_first pages (fun p ->
              if !left > 0 && over p.pi_node then
                match
                  best_dst slots ~pred:(fun n -> n.ni_node <> p.pi_node)
                with
                | Some dst when used dst.info < mean + slack ->
                    incr rebalances;
                    dst.free <- dst.free - page;
                    moves :=
                      { mv_tenant = p.pi_tenant; mv_vpage = p.pi_vpage;
                        mv_dst = dst.info.ni_node }
                      :: !moves;
                    decr left
                | _ -> ());
        List.rev !moves
  in
  {
    name = "centralized";
    choose_node =
      (fun ~nodes ~tenant:_ ->
        incr lookups;
        match
          best_dst
            (List.map (fun info -> { info; free = info.ni_free }) nodes)
            ~pred:(fun _ -> true)
        with
        | Some s -> Some s.info.ni_node
        | None -> None);
    plan;
    stats =
      (fun () -> [ ("lookups", !lookups); ("rebalances", !rebalances) ]);
  }

(* ------------------------------------------------------------------ *)

let names = [ "first-fit"; "heat"; "centralized" ]

let find = function
  | "first-fit" -> first_fit ()
  | "heat" -> heat_aware ()
  | "centralized" -> centralized ()
  | s ->
      invalid_arg
        (Printf.sprintf "unknown placement policy %S (expected %s)" s
           (String.concat " | " names))
