module Json = Kona_telemetry.Json

(* One optional JSON-lines artifact per bench process: every printed table
   row is mirrored there, so the console report and the machine-readable
   record cannot drift apart. *)
let json_out : out_channel option ref = ref None
let current_section = ref ""

(* Provenance stamp: every artifact header records the git commit it was
   produced from and the workload seed in effect, so a BENCH_*.json found
   in CI storage is traceable to an exact tree + run.  Resolved with plain
   Stdlib IO (bench does not link unix): follow .git/HEAD to the ref file
   or packed-refs. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let git_commit =
  lazy
    (let rec find_git dir depth =
       let candidate = Filename.concat dir ".git" in
       if Sys.file_exists candidate && Sys.is_directory candidate then
         Some candidate
       else if depth >= 6 then None
       else find_git (Filename.concat dir Filename.parent_dir_name) (depth + 1)
     in
     let resolve git_dir =
       match read_file (Filename.concat git_dir "HEAD") with
       | None -> None
       | Some head -> (
           let head = String.trim head in
           match String.length head >= 5 && String.sub head 0 5 = "ref: " with
           | false -> Some head (* detached HEAD: a bare hash *)
           | true -> (
               let refname =
                 String.trim (String.sub head 5 (String.length head - 5))
               in
               match read_file (Filename.concat git_dir refname) with
               | Some hash -> Some (String.trim hash)
               | None -> (
                   (* ref packed away: scan packed-refs for "<hash> <ref>" *)
                   match read_file (Filename.concat git_dir "packed-refs") with
                   | None -> None
                   | Some packed ->
                       String.split_on_char '\n' packed
                       |> List.find_map (fun line ->
                              match String.index_opt line ' ' with
                              | Some i
                                when String.sub line (i + 1)
                                       (String.length line - i - 1)
                                     = refname ->
                                  Some (String.sub line 0 i)
                              | _ -> None))))
     in
     match find_git (Sys.getcwd ()) 0 with
     | None -> "unknown"
     | Some git_dir -> (
         match resolve git_dir with Some h -> h | None -> "unknown"))

let seed = ref 42
let set_seed s = seed := s

let stamp meta =
  let with_default key value meta =
    if List.mem_assoc key meta then meta else (key, value) :: meta
  in
  meta
  |> with_default "commit" (Json.String (Lazy.force git_commit))
  |> with_default "seed" (Json.Int !seed)

let json_line fields =
  match !json_out with
  | None -> ()
  | Some oc ->
      let fields =
        if !current_section = "" then fields
        else ("section", Json.String !current_section) :: fields
      in
      output_string oc (Json.to_string (Json.Obj fields));
      output_char oc '\n'

let open_json ~path ?(meta = []) () =
  (match !json_out with Some oc -> close_out_noerr oc | None -> ());
  let oc = open_out path in
  json_out := Some oc;
  current_section := "";
  json_line (("schema", Json.String "kona.bench.v1") :: stamp meta)

let close_json () =
  match !json_out with
  | None -> ()
  | Some oc ->
      close_out oc;
      json_out := None

let with_artifact ~path ?(meta = []) f =
  let saved_out = !json_out and saved_section = !current_section in
  let oc = open_out path in
  json_out := Some oc;
  current_section := "";
  json_line (("schema", Json.String "kona.bench.v1") :: stamp meta);
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      json_out := saved_out;
      current_section := saved_section)
    f

let section title =
  current_section := title;
  let line = String.make (String.length title + 8) '=' in
  Format.printf "@.%s@.=== %s ===@.%s@." line title line

let note fmt = Format.printf ("  " ^^ fmt ^^ "@.")

let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell -> Format.printf "  %-*s" (List.nth widths c) cell)
      row;
    Format.printf "@."
  in
  print_row header;
  Format.printf "  %s@."
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter print_row rows;
  Format.printf "@.";
  let rec fields hs cs =
    match (hs, cs) with
    | h :: hs, c :: cs -> (h, Json.String c) :: fields hs cs
    | _ -> []
  in
  List.iter
    (fun row -> json_line (("kind", Json.String "row") :: fields header row))
    rows

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v

let ns v =
  if v >= 1_000_000_000 then Printf.sprintf "%.2fs" (float_of_int v /. 1e9)
  else if v >= 1_000_000 then Printf.sprintf "%.1fms" (float_of_int v /. 1e6)
  else if v >= 1_000 then Printf.sprintf "%.1fus" (float_of_int v /. 1e3)
  else Printf.sprintf "%dns" v

let vs_paper ~measured ~paper =
  Printf.sprintf "%.2f (paper %.2f)" measured paper
