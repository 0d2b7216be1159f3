exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type t = { kind : string; at : int option; params : (string * string) list }

(* "200us" -> 200_000; bare integers are nanoseconds. *)
let duration s =
  let num, mult =
    let n = String.length s in
    let split k m = (String.sub s 0 (n - k), m) in
    if n >= 2 && String.sub s (n - 2) 2 = "ns" then split 2 1
    else if n >= 2 && String.sub s (n - 2) 2 = "us" then split 2 1_000
    else if n >= 2 && String.sub s (n - 2) 2 = "ms" then split 2 1_000_000
    else if n >= 1 && s.[n - 1] = 's' then split 1 1_000_000_000
    else (s, 1)
  in
  match int_of_string_opt num with
  | Some v when v >= 0 -> v * mult
  | Some _ | None -> bad "bad duration %S (expected e.g. 500ns, 200us, 2ms, 1s)" s

let ns_to_string ns =
  if ns mod 1_000_000_000 = 0 && ns > 0 then Printf.sprintf "%ds" (ns / 1_000_000_000)
  else if ns mod 1_000_000 = 0 && ns > 0 then Printf.sprintf "%dms" (ns / 1_000_000)
  else if ns mod 1_000 = 0 && ns > 0 then Printf.sprintf "%dus" (ns / 1_000)
  else Printf.sprintf "%dns" ns

(* [s] cut at the first [c]: (before, Some after), or (s, None). *)
let cut c s =
  match String.index_opt s c with
  | Some i -> (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> (s, None)

let lex s =
  let head, params = cut ':' s in
  let kind, at = cut '@' head in
  let at = Option.map duration at in
  let kv p =
    match cut '=' p with
    | k, Some v -> (k, v)
    | _, None -> bad "bad parameter %S (expected key=value)" p
  in
  let params =
    match params with
    | None -> []
    | Some p ->
        String.split_on_char ',' p |> List.filter (fun p -> p <> "") |> List.map kv
  in
  let rec distinct = function
    | [] -> ()
    | (k, _) :: rest ->
        if List.mem_assoc k rest then
          bad "duplicate parameter %S (each key may appear once per clause)" k;
        distinct rest
  in
  distinct params;
  { kind; at; params }

let to_string { kind; at; params } =
  let at = match at with Some t -> "@" ^ ns_to_string t | None -> "" in
  let params = List.map (fun (k, v) -> k ^ "=" ^ v) params in
  kind ^ at ^ if params = [] then "" else ":" ^ String.concat "," params

let parse_list f s =
  match
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun c -> c <> "")
    |> List.map lex |> f
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let dispatch ~what table c =
  match List.assoc_opt c.kind table with
  | Some f -> f c
  | None ->
      bad "unknown %s %S (%s)" what c.kind (String.concat " | " (List.map fst table))

let known c ks =
  List.iter
    (fun (k, _) -> if not (List.mem k ks) then bad "unknown parameter %S" k)
    c.params

let require_at c =
  match c.at with
  | Some t -> t
  | None -> bad "%s needs a trigger time (e.g. %s@2ms)" c.kind c.kind

let no_at c =
  if c.at <> None then bad "%s takes no trigger time (drop the @)" c.kind

type 'a conv = string -> string -> 'a

let opt c key conv = Option.map (conv key) (List.assoc_opt key c.params)

let get c key conv =
  match opt c key conv with
  | Some v -> v
  | None -> bad "missing required parameter %s=" key

let int key s =
  match int_of_string_opt s with Some v -> v | None -> bad "bad integer %S for %s" s key

let dur _ s = duration s

let at_least lo conv key s =
  let v = conv key s in
  if v < lo then bad "%s must be >= %d (got %d)" key lo v;
  v

let pos = at_least 1 int
let nonneg = at_least 0 int
let pos_dur = at_least 1 dur

let prob _ s =
  match float_of_string_opt s with
  | Some p when p >= 0. && p <= 1. -> p
  | Some _ | None -> bad "bad probability %S (expected a float in [0,1])" s

let one key conv f c =
  known c [ key ];
  f (get c key conv)

let bare v c =
  known c [];
  v

let list conv key s =
  match String.split_on_char '|' s |> List.filter (fun x -> x <> "") with
  | [] -> bad "%s: empty list (expected e.g. %s=0|1)" key key
  | l -> List.map (conv key) l

let ints_to_string l = String.concat "|" (List.map string_of_int l)
