(* In-memory spans for the traced run.

   Each layer call the benchmark makes can be wrapped in a span: a name,
   host start and end times, the span that was open when it began (its
   parent) and a request id naming the workload, run and slice or episode
   index.  Nothing is recorded while tracing is off, so the untraced run
   pays one branch per call.  Spans stay in memory until [write]. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : string;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []

let fresh ~req name t0 =
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  let s = { id = !next_id; name; parent; req; t0; t1 = t0 } in
  incr next_id;
  s

(* A span around [f ()]. *)
let within ?(req = "") name f =
  if not !enabled then f ()
  else begin
    let s = fresh ~req name (Hostspeed.now ()) in
    open_stack := s.id :: !open_stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- Hostspeed.now ();
        open_stack := List.tl !open_stack;
        recorded := s :: !recorded)
  end

(* A leaf span the caller timed itself (a block of sink calls, one rack
   step), under whichever span is open. *)
let record ~req name ~t0 ~t1 =
  if !enabled then begin
    let s = fresh ~req name t0 in
    s.t1 <- t1;
    recorded := s :: !recorded
  end

let duration s = s.t1 -. s.t0

let children_time () =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent)))
    !recorded;
  tbl

(* Total duration of every span called [name]. *)
let total name =
  List.fold_left (fun a s -> if s.name = name then a +. duration s else a) 0. !recorded

(* One JSON object per span, in start order; times in microseconds from
   the first span. *)
let write path =
  let spans = List.sort (fun a b -> compare a.id b.id) !recorded in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0. in
  let kids = children_time () in
  let oc = open_out path in
  List.iter
    (fun s ->
      let us t = (t -. origin) *. 1e6 in
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n"
        s.id s.name s.parent s.req (us s.t0) (us s.t1)
        ((duration s -. Option.value ~default:0. (Hashtbl.find_opt kids s.id)) *. 1e6))
    spans;
  close_out oc;
  List.length spans
