type cell = {
  vpage : int;
  mutable value : int;
  mutable epoch : int;
  mutable listed : bool;
      (* on [hot]; an unlisted cell is one a fold found at 0, untouched
         since, whose epoch lags [raised] until it is next read *)
}

type t = {
  epoch_ns : int;
  cells : (int, cell) Hashtbl.t; (* vpage -> decaying counter, never removed *)
  mutable hot : cell list; (* the listed cells: what a fold visits *)
  mutable raised : int;
      (* the epoch of the last fold, which settled every unlisted cell
         to at least this — applied lazily, see [catch_up] *)
  mutable touches : int;
}

let create ~epoch_ns =
  if epoch_ns <= 0 then invalid_arg "Heat.create: non-positive epoch";
  { epoch_ns; cells = Hashtbl.create 256; hot = []; raised = 0; touches = 0 }

let epoch_ns t = t.epoch_ns

(* Lazy decay: halve once per epoch elapsed since the cell was last
   brought current.  A shift by >= 63 would be undefined; past that the
   counter is simply gone. *)
let settle t cell ~now =
  let epoch = now / t.epoch_ns in
  if epoch > cell.epoch then begin
    let elapsed = epoch - cell.epoch in
    cell.value <- (if elapsed >= 63 then 0 else cell.value lsr elapsed);
    cell.epoch <- epoch
  end

(* An unlisted cell holds 0, which decay leaves at 0, so the folds it sat
   out only moved its epoch: to [raised].  The epoch still matters — a
   touch at an earlier epoch (another tenant's clock ran behind the
   fold's) must not decay the new weight at the boundary the fold
   already crossed. *)
let catch_up t cell =
  if not cell.listed then cell.epoch <- max cell.epoch t.raised

let touch t ~vpage ~weight ~now =
  if weight < 0 then invalid_arg "Heat.touch: negative weight";
  t.touches <- t.touches + 1;
  match Hashtbl.find_opt t.cells vpage with
  | Some cell ->
      if not cell.listed then begin
        catch_up t cell;
        cell.listed <- true;
        t.hot <- cell :: t.hot
      end;
      settle t cell ~now;
      cell.value <- cell.value + weight
  | None ->
      let cell =
        { vpage; value = weight; epoch = now / t.epoch_ns; listed = true }
      in
      Hashtbl.add t.cells vpage cell;
      t.hot <- cell :: t.hot

let heat t ~vpage ~now =
  match Hashtbl.find_opt t.cells vpage with
  | None -> 0
  | Some cell ->
      catch_up t cell;
      settle t cell ~now;
      cell.value

let fold t ~now f init =
  let epoch = now / t.epoch_ns in
  (* Folds normally come in epoch order, so raising [raised] settles
     every unlisted cell at once.  One that goes back in time would lower
     it: write the pending raise into each unlisted cell first. *)
  if epoch < t.raised then Hashtbl.iter (fun _ cell -> catch_up t cell) t.cells;
  t.raised <- epoch;
  let acc = ref init in
  t.hot <-
    List.filter
      (fun cell ->
        settle t cell ~now;
        if cell.value = 0 then begin
          cell.listed <- false;
          false
        end
        else begin
          acc := f ~vpage:cell.vpage ~heat:cell.value !acc;
          true
        end)
      t.hot;
  !acc

let tracked t = List.length t.hot
let touches t = t.touches
