(* Order statistics over host-time samples and interpolated percentiles
   of the simulator's log2 latency histograms. *)

module Histogram = Kona_util.Histogram

(* A growable float buffer: slice and set-up samples. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len
let count s = s.len

(* Linear interpolation between closest ranks, as numpy's default and
   Python's [statistics.quantiles(method="inclusive")]. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* [p]-th percentile (0 < p <= 100) of a log2 histogram, interpolated
   linearly inside the bucket that holds it: bucket [lo, 2 lo) is assumed
   uniformly filled.  {!Histogram.percentile} returns the bucket's upper
   bound instead, which cannot move unless a sample crosses a power of
   two. *)
let hist_percentile h p =
  let n = Histogram.count h in
  if n = 0 then 0.
  else begin
    let target = p /. 100. *. float_of_int n in
    let rec go cum = function
      | [] -> 0.
      | (lo, c) :: rest ->
          let cum' = cum +. float_of_int c in
          if cum' >= target then
            let lo = float_of_int lo in
            let width = if lo = 0. then 0. else lo in
            lo +. (width *. ((target -. cum) /. float_of_int c))
          else go cum' rest
    in
    go 0. (Histogram.buckets h)
  end

(* Slices per group for {!tail}: the 99th percentile of a group then has
   at least ten samples beyond it. *)
let tail_group = 1500

(* The median over consecutive groups of [tail_group] slices of each
   group's [q]-quantile.  A host stall that inflates the tail of one group
   moves this less than it moves the quantile of the whole run. *)
let tail xs q =
  let groups = max 1 (Array.length xs / tail_group) in
  median
    (Array.init groups (fun g ->
         let len = if g = groups - 1 then Array.length xs - (g * tail_group) else tail_group in
         quantile (Array.sub xs (g * tail_group) len) q))

(* [xs] holds [rows] equal-length runs of the same work, slice for slice
   (the passes of one seed).  Returns each position's median over the
   runs: a host stall that hits one run drops out, and work that is slow
   on every run stays. *)
let position_medians ~rows xs =
  let n = Array.length xs / rows in
  if n * rows <> Array.length xs then invalid_arg "Quant.position_medians";
  Array.init n (fun i -> median (Array.init rows (fun r -> xs.((r * n) + i))))

(* Work per second of each run of [size] consecutive slices: [times] are
   the slices' host seconds, [work] what each slice did. *)
let chunk_rates ~size times work =
  Array.init (Array.length times / size) (fun c ->
      let t = ref 0. and w = ref 0. in
      for i = c * size to (c * size) + size - 1 do
        t := !t +. times.(i);
        w := !w +. work.(i)
      done;
      !w /. !t)

(* Host-timed slices: each slice's duration and the clock at its end. *)
type slices = { dur : samples; ends : samples }

let slices () = { dur = samples (); ends = samples () }

let push_slice s ~t0 ~t1 =
  push s.dur (t1 -. t0);
  push s.ends t1
