(* Tests for kona_placement: decaying page-heat tracking, the pluggable
   placement policies, the epoch-driven migrator, and the rack-ops spec
   grammar. *)

open Kona_placement
module Rack_ops = Kona_rack.Rack_ops

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Heat *)

let test_heat_accumulates_and_decays () =
  let h = Heat.create ~epoch_ns:1000 in
  Heat.touch h ~vpage:7 ~weight:2 ~now:100;
  Heat.touch h ~vpage:7 ~weight:2 ~now:200;
  check_int "two touches accumulate" 4 (Heat.heat h ~vpage:7 ~now:200);
  (* One epoch later the counter has halved, two epochs quarters it. *)
  check_int "halves after one epoch" 2 (Heat.heat h ~vpage:7 ~now:1100);
  check_int "quarters after two epochs" 1 (Heat.heat h ~vpage:7 ~now:2100);
  check_int "gone after three" 0 (Heat.heat h ~vpage:7 ~now:3100);
  check_int "untracked page reads 0" 0 (Heat.heat h ~vpage:99 ~now:0);
  check_int "events counted" 2 (Heat.touches h)

(* A fold reports every page with nonzero heat; ranked with the
   policies' order it is the migrator's hot prefix. *)
let test_heat_fold_settles_and_prunes () =
  let h = Heat.create ~epoch_ns:1_000_000 in
  Heat.touch h ~vpage:3 ~weight:1 ~now:0;
  Heat.touch h ~vpage:1 ~weight:5 ~now:0;
  Heat.touch h ~vpage:2 ~weight:5 ~now:0;
  let ranked ~now =
    Heat.fold h ~now
      (fun ~vpage ~heat acc ->
        { Placement_policy.pi_vpage = vpage; pi_tenant = 0; pi_node = 0;
          pi_heat = heat }
        :: acc)
      []
    |> List.sort Placement_policy.hottest_first
    |> List.map (fun p -> (p.Placement_policy.pi_vpage, p.Placement_policy.pi_heat))
  in
  (match ranked ~now:0 with
  | (p0, h0) :: (p1, _) :: (p2, _) :: [] ->
      check_int "hottest first" 1 p0;
      check_int "hottest heat" 5 h0;
      check_int "tie broken by lower vpage" 2 p1;
      check_int "coldest last" 3 p2
  | l -> Alcotest.failf "expected 3 ranked pages, got %d" (List.length l));
  (* One epoch on, page 3's counter is 0: the fold drops it and settles
     the others. *)
  Alcotest.(check (list (pair int int)))
    "settled, zero dropped" [ (1, 2); (2, 2) ] (ranked ~now:1_000_000);
  check_int "the dropped page reads 0" 0 (Heat.heat h ~vpage:3 ~now:1_000_000);
  let far = 100 * 1_000_000 in
  ignore (ranked ~now:far);
  check_int "decayed cells dropped" 0 (Heat.tracked h)

(* The reference for [Heat]: the table before folds pruned.  Every
   counter ever touched stays, and a fold settles every one of them. *)
module Census_heat = struct
  type t = { epoch_ns : int; cells : (int, int * int) Hashtbl.t }

  let settle t (value, epoch) ~now =
    let e = now / t.epoch_ns in
    if e <= epoch then (value, epoch)
    else ((if e - epoch >= 63 then 0 else value lsr (e - epoch)), e)

  let touch t ~vpage ~weight ~now =
    let value, epoch =
      match Hashtbl.find_opt t.cells vpage with
      | Some c -> settle t c ~now
      | None -> (0, now / t.epoch_ns)
    in
    Hashtbl.replace t.cells vpage (value + weight, epoch)

  let heat t ~vpage ~now =
    match Hashtbl.find_opt t.cells vpage with
    | None -> 0
    | Some c ->
        let c = settle t c ~now in
        Hashtbl.replace t.cells vpage c;
        fst c

  let fold t ~now =
    Hashtbl.fold (fun vpage _ acc -> vpage :: acc) t.cells []
    |> List.filter_map (fun vpage ->
           match heat t ~vpage ~now with 0 -> None | h -> Some (vpage, h))
    |> List.sort compare
end

type heat_op = Touch of int * int | Read of int | Fold

(* Random histories on a clock that mostly runs forward but steps back up
   to an epoch at times, as the rack's folds do when another tenant's
   clock is ahead: every read and every fold agrees with the reference. *)
let prop_heat_matches_census =
  let epoch_ns = 4 in
  let op =
    QCheck2.Gen.(
      frequency
        [
          (4, map2 (fun v w -> Touch (v, w)) (int_bound 7) (int_bound 3));
          (3, map (fun v -> Read v) (int_bound 7));
          (2, pure Fold);
        ])
  in
  let step = QCheck2.Gen.(pair op (int_range (-epoch_ns) (2 * epoch_ns))) in
  let print (ops : (heat_op * int) list) =
    String.concat "; "
      (List.map
         (fun (op, d) ->
           (match op with
           | Touch (v, w) -> Printf.sprintf "touch %d +%d" v w
           | Read v -> Printf.sprintf "read %d" v
           | Fold -> "fold")
           ^ Printf.sprintf " @%+d" d)
         ops)
  in
  QCheck2.Test.make ~count:500 ~print
    ~name:"heat folds agree with the unpruned census"
    QCheck2.Gen.(list_size (int_range 1 60) step)
    (fun ops ->
      let h = Heat.create ~epoch_ns in
      let r = { Census_heat.epoch_ns; cells = Hashtbl.create 8 } in
      let now = ref 0 in
      List.for_all
        (fun (op, d) ->
          now := max 0 (!now + d);
          let now = !now in
          match op with
          | Touch (vpage, weight) ->
              Heat.touch h ~vpage ~weight ~now;
              Census_heat.touch r ~vpage ~weight ~now;
              true
          | Read vpage ->
              Heat.heat h ~vpage ~now = Census_heat.heat r ~vpage ~now
          | Fold ->
              List.sort compare
                (Heat.fold h ~now (fun ~vpage ~heat acc -> (vpage, heat) :: acc) [])
              = Census_heat.fold r ~now)
        ops)

let test_heat_rejects_bad_epoch () =
  check_bool "non-positive epoch" true
    (raises_invalid (fun () -> Heat.create ~epoch_ns:0))

(* ------------------------------------------------------------------ *)
(* Placement policies *)

let node ?(fast = false) ?(draining = false) ~free ~cap id =
  {
    Placement_policy.ni_node = id;
    ni_fast = fast;
    ni_free = free;
    ni_capacity = cap;
    ni_draining = draining;
  }

let page ?(tenant = 0) ~vpage ~node:n ~heat () =
  { Placement_policy.pi_vpage = vpage; pi_tenant = tenant; pi_node = n;
    pi_heat = heat }

let mib = 1024 * 1024

(* A hottest-first page list as a plan's input: the nonzero-heat prefix,
   and the zero-heat tail behind a lazy that records whether a plan
   forced it. *)
let feed ?(forced = ref false) pages =
  {
    Placement_policy.hot =
      List.filter (fun p -> p.Placement_policy.pi_heat > 0) pages;
    cold =
      lazy
        (forced := true;
         List.filter (fun p -> p.Placement_policy.pi_heat = 0) pages);
  }

let test_policy_registry () =
  check_int "three policies" 3 (List.length Placement_policy.names);
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " resolves to itself") name
        (Placement_policy.find name).Placement_policy.name)
    Placement_policy.names;
  check_bool "unknown policy rejected" true
    (raises_invalid (fun () -> Placement_policy.find "hotcold"))

let test_first_fit_is_inert () =
  let p = Placement_policy.first_fit () in
  let nodes = [ node ~fast:true ~free:mib ~cap:mib 0 ] in
  check_bool "no allocation preference" true
    (p.Placement_policy.choose_node ~nodes ~tenant:0 = None);
  check_int "no moves planned" 0
    (List.length
       (p.Placement_policy.plan ~nodes
          ~pages:(feed [ page ~vpage:0 ~node:0 ~heat:100 () ])
          ~budget:8))

let test_heat_promotes_hot_slow_pages () =
  let p = Placement_policy.heat_aware ~hot_threshold:4 () in
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0;
      node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages =
    feed
      [ page ~vpage:10 ~node:1 ~heat:9 (); page ~vpage:11 ~node:0 ~heat:9 ();
        page ~vpage:12 ~node:1 ~heat:1 () ]
  in
  match p.Placement_policy.plan ~nodes ~pages ~budget:8 with
  | [ mv ] ->
      check_int "the stranded hot page moves" 10 mv.Placement_policy.mv_vpage;
      check_int "to the fast node" 0 mv.Placement_policy.mv_dst
  | l -> Alcotest.failf "expected exactly 1 move, got %d" (List.length l)

let test_heat_demotes_only_under_pressure () =
  let p = Placement_policy.heat_aware ~hot_threshold:4 () in
  let pages = feed [ page ~vpage:5 ~node:0 ~heat:1 () ] in
  (* Plenty of fast headroom: the cold resident stays put. *)
  let roomy =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  check_int "no churn while the fast tier has room" 0
    (List.length (p.Placement_policy.plan ~nodes:roomy ~pages ~budget:8));
  (* Fast tier nearly full: the cold resident is shipped out. *)
  let full =
    [ node ~fast:true ~free:0 ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  match p.Placement_policy.plan ~nodes:full ~pages ~budget:8 with
  | [ mv ] ->
      check_int "cold page demoted" 5 mv.Placement_policy.mv_vpage;
      check_int "off the fast tier" 1 mv.Placement_policy.mv_dst
  | l -> Alcotest.failf "expected exactly 1 demotion, got %d" (List.length l)

let test_heat_respects_budget_and_draining () =
  let p = Placement_policy.heat_aware ~hot_threshold:2 () in
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0;
      node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages =
    feed (List.init 10 (fun i -> page ~vpage:i ~node:1 ~heat:(10 - i) ()))
  in
  let plan = p.Placement_policy.plan ~nodes ~pages ~budget:3 in
  check_int "budget caps the plan" 3 (List.length plan);
  (* A draining fast node is not a destination. *)
  let draining =
    [ node ~fast:true ~draining:true ~free:mib ~cap:(2 * mib) 0;
      node ~free:mib ~cap:(2 * mib) 1 ]
  in
  check_int "no moves onto a draining node" 0
    (List.length (p.Placement_policy.plan ~nodes:draining ~pages ~budget:3))

let test_centralized_balances_capacity () =
  let p = Placement_policy.centralized () in
  (* Node 0 is far above the mean; node 1 has headroom. *)
  let nodes =
    [ node ~free:0 ~cap:(4 * mib) 0; node ~free:(4 * mib) ~cap:(4 * mib) 1 ]
  in
  let pages =
    feed [ page ~vpage:1 ~node:0 ~heat:9 (); page ~vpage:2 ~node:0 ~heat:0 () ]
  in
  (match p.Placement_policy.plan ~nodes ~pages ~budget:1 with
  | [ mv ] ->
      check_int "sheds the coldest page first" 2 mv.Placement_policy.mv_vpage;
      check_int "to the emptier node" 1 mv.Placement_policy.mv_dst
  | l -> Alcotest.failf "expected exactly 1 move, got %d" (List.length l));
  check_int "balanced racks plan nothing" 0
    (List.length
       (p.Placement_policy.plan
          ~nodes:
            [ node ~free:mib ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
          ~pages ~budget:4))

(* Each plan forces the zero-heat tail only when it must read cold
   pages: first-fit never, heat only to demote under fast-tier pressure,
   centralized only when a live node is overfull. *)
let test_plans_force_cold_tail_on_demand () =
  let pages = [ page ~vpage:1 ~node:1 ~heat:9 (); page ~vpage:2 ~node:0 ~heat:0 () ] in
  let forces (p : Placement_policy.t) nodes =
    let forced = ref false in
    let plan = p.Placement_policy.plan ~nodes ~pages:(feed ~forced pages) ~budget:8 in
    (!forced, List.map (fun mv -> mv.Placement_policy.mv_vpage) plan)
  in
  let roomy =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  and pressed =
    [ node ~fast:true ~free:0 ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let check name want got =
    Alcotest.(check (pair bool (list int))) name want got
  in
  check "first-fit under pressure" (false, [])
    (forces (Placement_policy.first_fit ()) pressed);
  check "heat with fast-tier room promotes only" (false, [ 1 ])
    (forces (Placement_policy.heat_aware ()) roomy);
  check "heat under pressure demotes the cold page" (true, [ 2 ])
    (forces (Placement_policy.heat_aware ()) pressed);
  check "centralized on a balanced rack" (false, [])
    (forces (Placement_policy.centralized ()) roomy);
  check "centralized sheds the cold page off an overfull node" (true, [ 2 ])
    (forces (Placement_policy.centralized ())
       [ node ~free:0 ~cap:(4 * mib) 0; node ~free:(4 * mib) ~cap:(4 * mib) 1 ])

(* ------------------------------------------------------------------ *)
(* Migrator *)

let stub_env ?(move_result = Some 1) ~nodes ~pages () =
  let moves = ref [] and flushes = ref 0 and charges = ref [] in
  let env =
    {
      Migrator.nodes = (fun () -> nodes);
      pages = (fun ~now:_ -> pages);
      flush_logs = (fun () -> incr flushes);
      move_page =
        (fun mv ->
          moves := mv :: !moves;
          move_result);
      charge =
        (fun ~node ~bytes:_ ~now:_ ->
          charges := node :: !charges;
          7);
    }
  in
  (env, moves, flushes, charges)

let test_migrator_epoch_gating () =
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages = feed [ page ~vpage:10 ~node:1 ~heat:9 () ] in
  let env, moves, flushes, charges = stub_env ~nodes ~pages () in
  let m =
    Migrator.create
      ~policy:(Placement_policy.heat_aware ~hot_threshold:4 ())
      ~epoch_ns:1000 ~budget:8 ~page_bytes:4096 env
  in
  Migrator.tick m ~now:500;
  check_int "no tick before the first epoch boundary" 0 (Migrator.migrations m);
  Migrator.tick m ~now:1500;
  check_int "one migration after the boundary" 1 (Migrator.migrations m);
  check_int "logs flushed before remapping" 1 !flushes;
  check_int "4 KiB crossed the fabric" 4096 (Migrator.bytes_moved m);
  (* Source read + destination write both charged. *)
  check_int "two WFQ charges" 2 (List.length !charges);
  check_int "their queueing is accounted" 14 (Migrator.charged_ns m);
  Migrator.tick m ~now:1600;
  check_int "same epoch does not re-fire" 1 (Migrator.epochs m);
  check_int "one move executed in total" 1 (List.length !moves)

let test_migrator_counts_failures () =
  let nodes =
    [ node ~fast:true ~free:mib ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let pages = feed [ page ~vpage:10 ~node:1 ~heat:9 () ] in
  let env, _, _, charges = stub_env ~move_result:None ~nodes ~pages () in
  let m =
    Migrator.create
      ~policy:(Placement_policy.heat_aware ~hot_threshold:4 ())
      ~epoch_ns:1000 ~budget:8 ~page_bytes:4096 env
  in
  Migrator.tick m ~now:1500;
  check_int "declined move counted" 1 (Migrator.failed m);
  check_int "nothing migrated" 0 (Migrator.migrations m);
  check_int "failed moves are not charged" 0 (List.length !charges)

let test_migrator_first_fit_never_forces_tail () =
  let nodes =
    [ node ~fast:true ~free:0 ~cap:(2 * mib) 0; node ~free:mib ~cap:(2 * mib) 1 ]
  in
  let forced = ref false in
  let pages = feed ~forced [ page ~vpage:10 ~node:0 ~heat:0 () ] in
  let env, _, flushes, _ = stub_env ~nodes ~pages () in
  let m =
    Migrator.create ~policy:(Placement_policy.first_fit ()) ~epoch_ns:1000
      ~budget:8 ~page_bytes:4096 env
  in
  for k = 1 to 5 do
    Migrator.tick m ~now:(k * 1000)
  done;
  Migrator.force m ~now:5500;
  check_int "every epoch ran" 6 (Migrator.epochs m);
  check_bool "the zero-heat tail was never built" false !forced;
  check_int "nothing to flush for an empty plan" 0 !flushes

(* ------------------------------------------------------------------ *)
(* Rack-ops grammar *)

let test_rack_ops_parse () =
  let ops = Rack_ops.parse_exn "add@3ms:cap=1048576;drain@5ms:id=1;rebalance@7ms" in
  (match ops with
  | [ a; d; r ] ->
      check_int "add fires at 3ms" 3_000_000 a.Rack_ops.at_ns;
      (match a.Rack_ops.op with
      | Rack_ops.Add_node { capacity = Some c } -> check_int "capacity" 1048576 c
      | _ -> Alcotest.fail "expected add with capacity");
      (match d.Rack_ops.op with
      | Rack_ops.Drain { id } -> check_int "drain target" 1 id
      | _ -> Alcotest.fail "expected drain");
      check_bool "rebalance parsed" true (r.Rack_ops.op = Rack_ops.Rebalance)
  | l -> Alcotest.failf "expected 3 clauses, got %d" (List.length l));
  (* Round-trip through to_string. *)
  Alcotest.(check string)
    "round-trips" "add@3ms:cap=1048576;drain@5ms:id=1;rebalance@7ms"
    (Rack_ops.to_string ops);
  check_bool "empty spec is empty" true (Rack_ops.parse_exn "" = [])

let test_rack_ops_rejects_garbage () =
  List.iter
    (fun spec ->
      check_bool (Printf.sprintf "%S rejected" spec) true
        (match Rack_ops.parse spec with Ok _ -> false | Error _ -> true))
    [ "drain@5ms"; "drain@5ms:id=x"; "shrink@1ms"; "drain@bogus:id=1";
      "add@1ms:cap=-3" ]

(* Random schedules survive a print/parse round trip: any non-negative
   trigger time re-reads exactly through the unit-suffix printer. *)
let prop_rack_ops_roundtrip =
  let op =
    QCheck.Gen.(
      oneof
        [
          map (fun c -> Rack_ops.Add_node { capacity = Option.map (( + ) 1) c })
            (opt (int_bound 100_000_000));
          map (fun id -> Rack_ops.Drain { id }) (int_bound 7);
          pure Rack_ops.Rebalance;
        ])
  in
  let at = QCheck.Gen.(oneof [ int_bound 5_000_000_000; map (( * ) 1_000_000) nat ]) in
  let clause = QCheck.Gen.map2 (fun at_ns op -> { Rack_ops.at_ns; op }) at op in
  QCheck.Test.make ~name:"rack ops round-trip through to_string" ~count:300
    (QCheck.make ~print:Rack_ops.to_string QCheck.Gen.(list_size (int_bound 6) clause))
    (fun t -> Rack_ops.parse (Rack_ops.to_string t) = Ok t)

let () =
  Alcotest.run "kona_placement"
    [
      ( "heat",
        [
          Alcotest.test_case "accumulates and decays" `Quick
            test_heat_accumulates_and_decays;
          Alcotest.test_case "fold settles and prunes" `Quick
            test_heat_fold_settles_and_prunes;
          Alcotest.test_case "rejects bad epoch" `Quick
            test_heat_rejects_bad_epoch;
          QCheck_alcotest.to_alcotest ~long:false prop_heat_matches_census;
        ] );
      ( "policy",
        [
          Alcotest.test_case "registry" `Quick test_policy_registry;
          Alcotest.test_case "first-fit is inert" `Quick test_first_fit_is_inert;
          Alcotest.test_case "heat promotes hot slow pages" `Quick
            test_heat_promotes_hot_slow_pages;
          Alcotest.test_case "heat demotes only under pressure" `Quick
            test_heat_demotes_only_under_pressure;
          Alcotest.test_case "budget and draining respected" `Quick
            test_heat_respects_budget_and_draining;
          Alcotest.test_case "centralized balances capacity" `Quick
            test_centralized_balances_capacity;
          Alcotest.test_case "cold tail forced only on demand" `Quick
            test_plans_force_cold_tail_on_demand;
        ] );
      ( "migrator",
        [
          Alcotest.test_case "epoch gating and charging" `Quick
            test_migrator_epoch_gating;
          Alcotest.test_case "counts declined moves" `Quick
            test_migrator_counts_failures;
          Alcotest.test_case "first-fit never forces the cold tail" `Quick
            test_migrator_first_fit_never_forces_tail;
        ] );
      ( "rack-ops",
        [
          Alcotest.test_case "parses schedules" `Quick test_rack_ops_parse;
          Alcotest.test_case "rejects garbage" `Quick
            test_rack_ops_rejects_garbage;
          QCheck_alcotest.to_alcotest ~long:false prop_rack_ops_roundtrip;
        ] );
    ]
