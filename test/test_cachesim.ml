(* Tests for Kona_cachesim: single-level cache behaviour and the 3-level
   inclusive hierarchy with its fill/writeback event streams. *)

open Kona_cachesim
module Access = Kona_trace.Access

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_cache ?(size = 512) ?(assoc = 2) ?(block = 64) () =
  Cache.create ~name:"test" ~size ~assoc ~block

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_miss () =
  let c = small_cache () in
  if Cache.access c ~addr:0 ~write:false <> Cache.no_victim then
    Alcotest.fail "cold access must miss with no victim";
  if Cache.access c ~addr:32 ~write:false <> Cache.hit then
    Alcotest.fail "same line must hit";
  let s = Cache.stats c in
  check_int "reads" 2 s.Cache.reads;
  check_int "read misses" 1 s.Cache.read_misses

let test_cache_lru_eviction () =
  (* 512B, 2-way, 64B blocks -> 4 sets. Lines 0, 4, 8 map to set 0. *)
  let c = small_cache () in
  let addr line = line * 64 in
  ignore (Cache.access c ~addr:(addr 0) ~write:false);
  ignore (Cache.access c ~addr:(addr 4) ~write:false);
  ignore (Cache.access c ~addr:(addr 0) ~write:false) (* refresh line 0 *);
  let v = Cache.access c ~addr:(addr 8) ~write:false in
  if not (Cache.is_victim v) then Alcotest.fail "expected eviction";
  check_int "LRU victim is line 4" (addr 4) (Cache.victim_addr v);
  check_bool "line 0 kept" true (Cache.probe c ~addr:(addr 0));
  check_bool "line 4 gone" false (Cache.probe c ~addr:(addr 4))

let test_cache_dirty_writeback () =
  let c = small_cache () in
  let addr line = line * 64 in
  ignore (Cache.access c ~addr:(addr 0) ~write:true);
  check_bool "dirty after write" true (Cache.is_dirty c ~addr:(addr 0));
  ignore (Cache.access c ~addr:(addr 4) ~write:false);
  let v = Cache.access c ~addr:(addr 8) ~write:false in
  if not (Cache.is_victim v) then Alcotest.fail "expected dirty eviction";
  check_int "victim addr" (addr 0) (Cache.victim_addr v);
  check_bool "victim dirty" true (Cache.victim_dirty v);
  check_int "dirty evictions counted" 1 (Cache.stats c).Cache.dirty_evictions

let test_cache_flush_and_set_dirty () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:100 ~write:false);
  check_bool "set_dirty on resident" true (Cache.set_dirty c ~addr:100);
  let v = Cache.flush_block c ~addr:100 in
  if v = Cache.no_victim then Alcotest.fail "expected resident block";
  check_bool "flushed dirty" true (Cache.victim_dirty v);
  check_bool "gone after flush" false (Cache.probe c ~addr:100);
  check_bool "set_dirty on absent" false (Cache.set_dirty c ~addr:100);
  check_int "flush absent" Cache.no_victim (Cache.flush_block c ~addr:100)

let test_cache_create_validation () =
  check_bool "bad block" true
    (try
       ignore (Cache.create ~name:"x" ~size:512 ~assoc:2 ~block:65);
       false
     with Invalid_argument _ -> true);
  check_bool "bad size" true
    (try
       ignore (Cache.create ~name:"x" ~size:500 ~assoc:2 ~block:64);
       false
     with Invalid_argument _ -> true)

let prop_cache_capacity =
  QCheck.Test.make ~name:"resident blocks never exceed capacity" ~count:100
    QCheck.(list_of_size Gen.(50 -- 200) (int_bound 10_000))
    (fun addrs ->
      let c = small_cache () in
      List.iter (fun addr -> ignore (Cache.access c ~addr ~write:false)) addrs;
      let resident = ref 0 in
      Cache.iter_resident c (fun ~block_addr:_ ~dirty:_ -> incr resident);
      !resident <= 512 / 64)

let prop_cache_hit_after_access =
  QCheck.Test.make ~name:"probe hits immediately after access" ~count:200
    QCheck.(int_bound 100_000)
    (fun addr ->
      let c = small_cache () in
      ignore (Cache.access c ~addr ~write:false);
      Cache.probe c ~addr)

(* ------------------------------------------------------------------ *)
(* Hierarchy *)

let tiny_config =
  {
    Hierarchy.l1 = { Hierarchy.size = 512; assoc = 2 };
    l2 = { Hierarchy.size = 1024; assoc = 2 };
    llc = { Hierarchy.size = 2048; assoc = 4 };
  }

let test_hierarchy_levels () =
  let h = Hierarchy.create ~config:tiny_config () in
  check_int "first access goes to memory" 4 (Hierarchy.access_line h ~addr:0 ~write:false);
  check_int "second hits L1" 1 (Hierarchy.access_line h ~addr:0 ~write:false);
  check_int "memory accesses" 1 (Hierarchy.memory_accesses h)

let test_hierarchy_fill_events () =
  let fills = ref [] in
  let h =
    Hierarchy.create ~config:tiny_config
      ~on_fill:(fun ~addr ~write -> fills := (addr, write) :: !fills)
      ()
  in
  ignore (Hierarchy.access_line h ~addr:70 ~write:true);
  ignore (Hierarchy.access_line h ~addr:70 ~write:false);
  Alcotest.(check (list (pair int bool))) "one fill, write-flagged" [ (64, true) ] !fills

let test_hierarchy_writeback_reaches_memory () =
  (* Write a line, then stream enough conflicting lines to push it out of
     all three levels; the dirty line must surface exactly once. *)
  let writebacks = ref [] in
  let h =
    Hierarchy.create ~config:tiny_config
      ~on_writeback:(fun ~addr -> writebacks := addr :: !writebacks)
      ()
  in
  ignore (Hierarchy.access_line h ~addr:0 ~write:true);
  for i = 1 to 512 do
    ignore (Hierarchy.access_line h ~addr:(i * 64) ~write:false)
  done;
  check_bool "dirty line written back" true (List.mem 0 !writebacks);
  check_int "exactly once" 1 (List.length (List.filter (fun a -> a = 0) !writebacks))

let test_hierarchy_flush_page () =
  let h = Hierarchy.create ~config:tiny_config () in
  ignore (Hierarchy.access_line h ~addr:4096 ~write:true);
  ignore (Hierarchy.access_line h ~addr:4160 ~write:false);
  let dirty = Hierarchy.flush_page h ~page:1 in
  Alcotest.(check (list int)) "only written line dirty" [ 4096 ] dirty;
  check_int "line gone from caches" 4 (Hierarchy.access_line h ~addr:4096 ~write:false);
  Alcotest.(check (list int)) "second flush finds nothing" []
    (Hierarchy.flush_page h ~page:1)

let test_hierarchy_resident_dirty () =
  let h = Hierarchy.create ~config:tiny_config () in
  ignore (Hierarchy.access_line h ~addr:8192 ~write:true);
  Alcotest.(check (list int)) "resident dirty" [ 8192 ]
    (Hierarchy.resident_dirty_lines h ~page:2);
  Alcotest.(check (list int)) "still resident (no invalidate)" [ 8192 ]
    (Hierarchy.resident_dirty_lines h ~page:2)

let prop_no_lost_writes =
  (* Every written line is either still resident (dirty) or was written
     back: stream random accesses, then flush everything and check the
     union of writebacks + flush results covers all written lines. *)
  QCheck.Test.make ~name:"hierarchy never loses a dirty line" ~count:50
    QCheck.(list_of_size Gen.(1 -- 300) (pair (int_bound 16_383) bool))
    (fun ops ->
      let writebacks = Hashtbl.create 64 in
      let h =
        Hierarchy.create ~config:tiny_config
          ~on_writeback:(fun ~addr -> Hashtbl.replace writebacks addr ())
          ()
      in
      let written = Hashtbl.create 64 in
      List.iter
        (fun (addr, write) ->
          if write then
            Hashtbl.replace written (Kona_util.Units.align_down addr ~alignment:64) ();
          ignore (Hierarchy.access_line h ~addr ~write))
        ops;
      for page = 0 to 3 do
        List.iter (fun a -> Hashtbl.replace writebacks a ()) (Hierarchy.flush_page h ~page)
      done;
      Hashtbl.fold (fun addr () acc -> acc && Hashtbl.mem writebacks addr) written true)

(* A reference model: fully-associative LRU as a plain list, MRU first,
   of (block, dirty).  A Cache configured with a single set must agree
   with it exactly, victim address and dirty bit included. *)
let lru_ways = 4

let single_set_cache () =
  Cache.create ~name:"ref" ~size:(lru_ways * 64) ~assoc:lru_ways ~block:64

let code_of (block, dirty) = if dirty then block lor 1 else block

(* Apply one access to the model; the code the cache must return. *)
let model_access model ~addr ~write =
  let block = addr / 64 * 64 in
  match List.assoc_opt block !model with
  | Some dirty ->
      model := (block, dirty || write) :: List.remove_assoc block !model;
      Cache.hit
  | None ->
      let kept, expected =
        if List.length !model >= lru_ways then
          ( List.filteri (fun i _ -> i < lru_ways - 1) !model,
            code_of (List.nth !model (lru_ways - 1)) )
        else (!model, Cache.no_victim)
      in
      model := (block, write) :: kept;
      expected

let prop_cache_matches_lru_model =
  QCheck.Test.make ~name:"single-set cache == list-based LRU model" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (pair (int_bound 2_000) bool))
    (fun ops ->
      let c = single_set_cache () in
      let model = ref [] in
      List.for_all
        (fun (addr, write) ->
          let expected = model_access model ~addr ~write in
          Cache.access c ~addr ~write = expected)
        ops)

let prop_flush_reports_dirty_iff_written =
  QCheck.Test.make ~name:"flush_block dirty iff written since fill" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (triple (int_bound 600) bool bool))
    (fun ops ->
      let c = single_set_cache () in
      let model = ref [] in
      List.for_all
        (fun (addr, write, flush) ->
          if flush then begin
            let block = addr / 64 * 64 in
            let expected =
              match List.assoc_opt block !model with
              | Some dirty -> code_of (block, dirty)
              | None -> Cache.no_victim
            in
            model := List.remove_assoc block !model;
            Cache.flush_block c ~addr = expected
          end
          else
            let expected = model_access model ~addr ~write in
            Cache.access c ~addr ~write = expected)
        ops)

(* ------------------------------------------------------------------ *)
(* Allocation *)

let accesses = 100_000

(* Minor words per call of [f i] over [accesses] calls. *)
let words_per_call f =
  let w0 = Gc.minor_words () in
  for i = 0 to accesses - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int accesses

let test_access_line_allocates_nothing () =
  (* Half the stream revisits eight hot lines (L1 hits); the rest writes
     and reads 1024 lines over a 2 KiB LLC, so misses evict dirty
     victims at every level. *)
  let rng = Kona_util.Rng.create ~seed:5 in
  let addrs =
    Array.init accesses (fun i ->
        if i mod 2 = 0 then Kona_util.Rng.int rng 8 * 64 else Kona_util.Rng.int rng 65_536)
  in
  let writes = Array.init accesses (fun _ -> Kona_util.Rng.bool rng) in
  let h = Hierarchy.create ~config:tiny_config () in
  let levels = Array.make 5 0 in
  let words =
    words_per_call (fun i ->
        let level = Hierarchy.access_line h ~addr:addrs.(i) ~write:writes.(i) in
        levels.(level) <- levels.(level) + 1)
  in
  check_bool "stream hits L1" true (levels.(1) > 0);
  check_bool "stream reaches memory" true (levels.(4) > 0);
  check_bool "stream writes dirty victims back" true (Hierarchy.writebacks h > 0);
  if words >= 0.01 then
    Alcotest.failf "access_line allocates %.3f minor words per call" words

let qsuite name props = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) props)

let () =
  Alcotest.run "kona_cachesim"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "dirty writeback" `Quick test_cache_dirty_writeback;
          Alcotest.test_case "flush + set_dirty" `Quick test_cache_flush_and_set_dirty;
          Alcotest.test_case "create validation" `Quick test_cache_create_validation;
        ] );
      qsuite "cache-props"
        [
          prop_cache_capacity;
          prop_cache_hit_after_access;
          prop_cache_matches_lru_model;
          prop_flush_reports_dirty_iff_written;
        ];
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "fill events" `Quick test_hierarchy_fill_events;
          Alcotest.test_case "writeback reaches memory" `Quick
            test_hierarchy_writeback_reaches_memory;
          Alcotest.test_case "flush page" `Quick test_hierarchy_flush_page;
          Alcotest.test_case "resident dirty lines" `Quick test_hierarchy_resident_dirty;
          Alcotest.test_case "access_line allocates nothing" `Quick
            test_access_line_allocates_nothing;
        ] );
      qsuite "hierarchy-props" [ prop_no_lost_writes ];
    ]
