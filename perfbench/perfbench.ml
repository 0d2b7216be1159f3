(* The repository benchmark.

     perfbench --workload runtime-stream|rack-heat --seed N --seconds S
               --trace 0|1 [--plant-fault] [--spans PATH]

   With --trace 0 it runs the workload untraced and reports the end-to-end
   metrics; with --trace 1 it runs the per-layer suite with spans on and
   reports the per-layer metrics.  The last line of stdout is one JSON
   object: correct, attempted, failed, metrics (name -> value and unit)
   and fingerprints (the determinism digests, for cross-run comparison).
   run.py builds this program and drives it. *)

open Common

(* Racks per traced run: enough for per-layer ratios, a third of a
   measured run's cost. *)
let trace_racks = 3

let peak_heap_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let measured ~workload ~seed ~seconds ~plant =
  let m =
    match workload with
    | "runtime-stream" -> Stream.measure ~seed ~seconds ~plant
    | _ -> Rack_heat.measure ~seed ~seconds
  in
  m @ [ ("peak_heap_mib", peak_heap_mib (), "MiB") ]

(* The traced run: the per-layer suite with spans on.  The workload's own
   pass (the stream's runtime pass, or [trace_racks] racks) is then run
   again untraced for the trace overhead; GC counters cover that traced
   pass from set-up to its checks. *)
let traced ~workload ~seed =
  Spans.enabled := true;
  let (stream_accesses, stream_gc), stream_layers =
    Spans.within ~req:("runtime-stream/" ^ string_of_int seed) "workload" (fun () ->
        Stream.layers ~seed)
  in
  let run_racks () = Rack_heat.run_racks ~seed ~count:trace_racks in
  let racks, rack_gc =
    gc_delta (fun () ->
        Spans.within ~req:("rack-heat/" ^ string_of_int seed) "workload" run_racks)
  in
  let rack_layers = Rack_heat.layers racks ~seed in
  let shmem = Probes.shmem ~seed in
  let scrub = Probes.scrub ~seed in
  let fuzz = Probes.fuzz ~seed in
  Spans.enabled := false;
  let accesses, gc, untraced =
    match workload with
    | "runtime-stream" ->
        ( stream_accesses,
          stream_gc,
          snd (gc_delta (fun () ->
                   Stream.run_pass ~seed ~idx:0 ~slices:(Quant.slices ()) ~plant:false)) )
    | _ ->
        ( Rack_heat.sumi (fun r -> r.Rack_heat.accesses) racks,
          rack_gc,
          snd (gc_delta run_racks) )
  in
  stream_layers @ rack_layers @ shmem @ scrub @ fuzz
  @ [
      ("gc.minor_words_per_access", gc.words /. float_of_int (max 1 accesses), "words");
      ("gc.major_collections", float_of_int gc.majors, "count");
      ( "telemetry.trace_overhead_ratio",
        Hostspeed.scale ~t0:gc.started gc.seconds
        /. Hostspeed.scale ~t0:untraced.started untraced.seconds,
        "ratio" );
    ]

(* Host times are the metrics in s, ms or us and those named *host_* or
   *self_ns*; virtual times are always in ns and never named so. *)
let is_host_time name unit =
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length name && (String.sub name i n = sub || go (i + 1)) in
    go 0
  in
  List.mem unit [ "s"; "ms"; "us" ] || has "host_" || has "self_ns"

(* Scale the traced run's host times and rates to the nominal host speed
   by the whole run's factor ({!Hostspeed}); the measured run scales each
   sample by the factor around it. *)
let normalise metrics =
  let f = Hostspeed.factor () in
  List.map
    (fun (k, v, u) ->
      if u = "1/s" then (k, v *. f, u) else if is_host_time k u then (k, v /. f, u) else (k, v, u))
    metrics

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let plant = ref false and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "runtime-stream | rack-heat");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "nominal run length; sets the amount of work");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer metrics");
      ("--plant-fault", Arg.Set plant, "flip a remote bit after drain (runtime-stream)");
      ("--spans", Arg.Set_string spans, "write the traced run's spans here (JSON lines)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "runtime-stream"; "rack-heat" ]) then begin
    prerr_endline "perfbench: --workload must be runtime-stream or rack-heat";
    exit 2
  end;
  let metrics =
    if !trace = 0 then measured ~workload:!workload ~seed:!seed ~seconds:!seconds ~plant:!plant
    else traced ~workload:!workload ~seed:!seed
  in
  let metrics = if !trace = 0 then metrics else normalise metrics in
  Printf.printf "host speed: reference loop median %.1f us over %d samples (nominal %.1f us)\n"
    (1e6 *. Hostspeed.factor () *. Hostspeed.nominal_s)
    (Quant.count Hostspeed.durations) (1e6 *. Hostspeed.nominal_s);
  if !spans <> "" then
    Printf.printf "spans: %d written to %s\n" (Spans.write !spans) !spans;
  List.iter (fun (k, v, u) -> Printf.printf "  %-40s %.6g %s\n" k v u) metrics;
  let obj kvs = "{" ^ String.concat "," kvs ^ "}" in
  let metrics =
    List.map (fun (k, v, u) -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" k v u) metrics
  in
  let prints =
    Hashtbl.fold (fun k d acc -> Printf.sprintf "%S:%S" k d :: acc) fingerprints []
    |> List.sort compare
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s,\"fingerprints\":%s}\n"
    (!failed = 0) !attempted !failed (obj metrics) (obj prints)
