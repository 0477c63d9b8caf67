(* Correctness tests for all collectors: no reachable object is ever
   lost, heap accounting stays consistent, runs are deterministic, and
   every collector actually reclaims memory under churn. *)

let ms = Util.Units.ms
let mib = Util.Units.mib

(* A compact workload so each collector run stays fast. *)
let test_app : Workload.Apps.t =
  {
    Workload.Apps.name = "test-app";
    fixed_requests = 2_000;
    spec =
      {
        Workload.Spec.name = "test-app";
        mutators = 4;
        live_bytes = 8 * mib;
        node_data = 128;
        chain_len = 5;
        temp_objs = 40;
        temp_data_min = 32;
        temp_data_max = 256;
        survivors = 4;
        pool_slots = 96;
        store_reads = 8;
        update_pct = 0.5;
        cpu_ns = 40_000;
        weak_pct = 0.05;
      };
  }

let collectors : (string * (Runtime.Rt.t -> unit)) list =
  [
    ("g1", fun rt -> ignore (Collectors.G1.install rt));
    ("g1-10ms",
      fun rt ->
        ignore
          (Collectors.G1.install
             ~config:
               {
                 Collectors.G1.default_config with
                 Collectors.G1.pause_target = 10 * ms;
               }
             rt));
    ("shenandoah", fun rt -> ignore (Collectors.Shenandoah.install rt));
    ("zgc", fun rt -> ignore (Collectors.Zgc.install rt));
    ("genshen", fun rt -> ignore (Collectors.Genshen.install rt));
    ("genz", fun rt -> ignore (Collectors.Genz.install rt));
    ("lxr", fun rt -> ignore (Collectors.Lxr.install rt));
    ("jade", fun rt -> ignore (Jade.Collector.install rt));
  ]

let machine heap_bytes =
  {
    Experiments.Harness.default_machine with
    Experiments.Harness.heap_bytes;
    cores = 4;
  }

(* Walk the object graph from the roots, checking that every reachable
   object is sound: not freed, housed in a non-free region, inside the
   region's allocated span. *)
let verify_reachable rt =
  let heap = rt.Runtime.Rt.heap in
  let seen = Hashtbl.create 4096 in
  let count = ref 0 in
  let rec visit depth (o : Heap.Gobj.t) =
    let o = Heap.Gobj.resolve o in
    if not (Hashtbl.mem seen o.Heap.Gobj.id) then begin
      Hashtbl.replace seen o.Heap.Gobj.id ();
      incr count;
      if Heap.Gobj.is_freed o then begin
        let r = Heap.Heap_impl.region heap o.Heap.Gobj.region in
        Alcotest.failf
          "reachable object #%d is freed (region %d kind=%s top=%d off=%d size=%d fwd=%b mark=%d ymark=%d epoch=%d age=%d)"
          o.Heap.Gobj.id o.Heap.Gobj.region
          (Heap.Region.kind_to_string r.Heap.Region.kind)
          r.Heap.Region.top (Heap.Gobj.offset o) o.Heap.Gobj.size
          (Heap.Gobj.is_forwarded o) (Heap.Gobj.mark o) (Heap.Gobj.ymark o)
          heap.Heap.Heap_impl.mark_epoch (Heap.Gobj.age o)
      end;
      let r = Heap.Heap_impl.region heap o.Heap.Gobj.region in
      if Heap.Region.is_free r then
        Alcotest.failf "reachable object #%d lives in a free region"
          o.Heap.Gobj.id;
      if Heap.Gobj.offset o + o.Heap.Gobj.size > r.Heap.Region.top then
        Alcotest.failf "reachable object #%d outside its region's span"
          o.Heap.Gobj.id;
      Heap.Gobj.iter_fields (fun _ child -> visit (depth + 1) child) o
    end
  in
  Runtime.Rt.iter_roots rt (fun o -> if o != Heap.Gobj.null then visit 0 o);
  !count

let verify_free_accounting rt =
  let heap = rt.Runtime.Rt.heap in
  let actual = ref 0 in
  Array.iter
    (fun (r : Heap.Region.t) -> if Heap.Region.is_free r then incr actual)
    heap.Heap.Heap_impl.regions;
  Alcotest.(check int) "free-region accounting" !actual
    (Heap.Heap_impl.free_regions heap)

let run_once ~heap_bytes ~seed install =
  let machine = { (machine heap_bytes) with Experiments.Harness.seed } in
  Experiments.Harness.run_closed ~machine ~install ~collector:"x"
    ~warmup:(100 * ms) ~duration:(300 * ms) test_app

(* One test per collector: run under a comfortable heap, verify heap
   soundness and progress. *)
let test_collector_sound (name, install) () =
  let rt, request =
    Experiments.Harness.prepare ~machine:(machine (48 * mib)) ~install test_app
  in
  let r =
    Runtime.Driver.run rt ~n_mutators:4 ~mode:Runtime.Driver.Closed
      ~warmup:(100 * ms) ~duration:(400 * ms) ~request ()
  in
  Alcotest.(check bool) (name ^ " no OOM") true (r.Runtime.Driver.oom = None);
  Alcotest.(check bool)
    (Printf.sprintf "%s made progress (%d reqs)" name r.Runtime.Driver.completed)
    true
    (r.Runtime.Driver.completed > 500);
  let live = verify_reachable rt in
  Alcotest.(check bool)
    (Printf.sprintf "%s live graph intact (%d objects)" name live)
    true (live > 1000);
  verify_free_accounting rt;
  (* Memory was actually recycled: total allocation far exceeds the heap. *)
  Alcotest.(check bool) (name ^ " reclaimed memory") true
    (rt.Runtime.Rt.heap.Heap.Heap_impl.bytes_allocated > 48 * mib)

(* Tight heap: the collector either keeps up or OOMs cleanly — no hangs,
   no corruption. *)
let test_collector_pressure (name, install) () =
  let rt, request =
    Experiments.Harness.prepare ~machine:(machine (16 * mib)) ~install test_app
  in
  let r =
    Runtime.Driver.run rt ~n_mutators:4 ~mode:Runtime.Driver.Closed
      ~warmup:(50 * ms) ~duration:(200 * ms) ~request ()
  in
  (match r.Runtime.Driver.oom with
  | Some _ -> () (* clean OOM is acceptable at 2x live *)
  | None -> ignore (verify_reachable rt));
  verify_free_accounting rt;
  Alcotest.(check bool) (name ^ " terminated") true true

let test_determinism (name, install) () =
  let a = run_once ~heap_bytes:(48 * mib) ~seed:123 install in
  let b = run_once ~heap_bytes:(48 * mib) ~seed:123 install in
  Alcotest.(check int)
    (name ^ " deterministic completions")
    a.Experiments.Harness.completed b.Experiments.Harness.completed;
  Alcotest.(check int)
    (name ^ " deterministic pauses")
    a.Experiments.Harness.cumulative_pause b.Experiments.Harness.cumulative_pause

(* Unit tests for the per-region remembered-set table. *)
let test_region_remsets () =
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes:(4 * mib)
         ~region_bytes:(256 * Util.Units.kib) ())
  in
  let rs = Collectors.Region_remsets.create heap in
  Alcotest.(check bool) "lazy: no set yet" true
    (Collectors.Region_remsets.get rs 3 = None);
  Alcotest.(check int) "no memory yet" 0 (Collectors.Region_remsets.byte_size rs);
  Collectors.Region_remsets.add rs ~target_rid:3 ~card:17;
  Collectors.Region_remsets.add rs ~target_rid:3 ~card:17;
  Collectors.Region_remsets.add rs ~target_rid:3 ~card:21;
  Alcotest.(check int) "cardinality dedups" 2
    (Collectors.Region_remsets.cardinal rs 3);
  Alcotest.(check bool) "memory accounted" true
    (Collectors.Region_remsets.byte_size rs > 0);
  Collectors.Region_remsets.clear rs 3;
  Alcotest.(check int) "cleared" 0 (Collectors.Region_remsets.cardinal rs 3);
  Alcotest.(check bool) "set dropped" true
    (Collectors.Region_remsets.get rs 3 = None)

let () =
  Alcotest.run "collectors"
    ([
       ( "soundness",
         List.map
           (fun c ->
             Alcotest.test_case (fst c) `Slow (test_collector_sound c))
           collectors );
       ( "pressure",
         List.map
           (fun c ->
             Alcotest.test_case (fst c) `Slow (test_collector_pressure c))
           collectors );
       ( "region remsets",
         [ Alcotest.test_case "lifecycle" `Quick test_region_remsets ] );
       ( "determinism",
         [
           Alcotest.test_case "g1" `Slow
             (test_determinism (List.nth collectors 0));
           Alcotest.test_case "zgc" `Slow
             (test_determinism (List.nth collectors 3));
           Alcotest.test_case "jade" `Slow
             (test_determinism (List.nth collectors 7));
         ] );
     ])
