(* Host speed reference.

   The sandboxes this benchmark runs in share physical cores with other
   machines, and the speed of one core drifts by up to 1.7x, switching
   within a second and wandering over minutes (a pure integer loop shows
   the same drift).  Raw host times of one workload therefore differ by
   10-30% between consecutive runs.  To compare runs, the benchmark times
   a fixed integer loop between slices throughout every run and scales
   each host time by

     nominal_s / (median reference-loop time around that measurement)

   so host times are reported in seconds of a host that runs the
   reference loop in [nominal_s].  The reference is frozen with the
   benchmark: a change to the simulator moves the workload's host time,
   never the reference's.  The reference's own time is taken out of
   every measured interval ({!now}). *)

let iterations = 400_000

(* The reference loop's typical time on the host the benchmark was tuned
   on (see NOTES.md); only a unit conversion. *)
let nominal_s = 4.5e-4

let durations = Quant.samples ()
let at = Quant.samples ()  (* {!now} when each sample ended *)
let spent_s = ref 0.
let sink = ref 0

(* The clock every measurement reads: host seconds with the reference
   loop's own time taken out. *)
let now () = Unix.gettimeofday () -. !spent_s

let sample () =
  let t0 = Unix.gettimeofday () in
  let y = ref 0 in
  for i = 1 to iterations do
    y := !y lxor (i * 7)
  done;
  sink := !sink lxor !y;
  let d = Unix.gettimeofday () -. t0 in
  spent_s := !spent_s +. d;
  Quant.push durations d;
  Quant.push at (now ())

let slowness lo hi =
  Quant.median (Array.sub durations.Quant.data lo (hi - lo)) /. nominal_s

(* First sample index that ended at or after [t]. *)
let index t =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if at.Quant.data.(mid) < t then go (mid + 1) hi else go lo mid
  in
  go 0 at.Quant.len

(* How much slower than nominal the host ran around clock time [t]: the
   median of the [k] samples nearest to [t].  Divide host times by it,
   multiply rates by it. *)
let factor_at ?(k = 9) t =
  let n = durations.Quant.len in
  if n = 0 then 1.
  else
    let lo = max 0 (min (n - k) (index t - (k / 2))) in
    slowness lo (min n (lo + k))

(* The same over an interval: the median of the samples taken within
   [t0, t1], or of those nearest to [t1] when there were none. *)
let factor_between t0 t1 =
  let lo = index t0 and hi = index t1 in
  if hi > lo then slowness lo hi else factor_at t1

(* [dt] host seconds that began at clock time [t0], at nominal speed. *)
let scale ~t0 dt = dt /. factor_between t0 (t0 +. dt)

(* The whole run's factor, for the traced run. *)
let factor () =
  if durations.Quant.len = 0 then 1. else slowness 0 durations.Quant.len

(* Slice durations scaled to nominal speed, each by the factor around its
   own end. *)
let scaled (s : Quant.slices) =
  Array.init s.Quant.dur.Quant.len (fun i ->
      s.Quant.dur.Quant.data.(i) /. factor_at s.Quant.ends.Quant.data.(i))
