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
    ("genshen", fun rt -> ignore (Collectors.Generational.install_genshen rt));
    ("genz", fun rt -> ignore (Collectors.Generational.install_genz rt));
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

(* ------------------------------------------------------------------ *)
(* The shared work-claiming loop ([Common.claim]).                       *)

let claim_rt () =
  let engine = Sim.Engine.create ~cores:2 () in
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes:(4 * mib)
         ~region_bytes:(256 * Util.Units.kib) ())
  in
  Runtime.Rt.create ~seed:42 ~engine ~heap ()

(* Claim [0 .. len-1] with [n] workers from a GC fiber.  [f item] runs as
   each item is claimed, after it is logged and after a yield that lets
   the other workers run.  Returns (claim log, remainder, failed). *)
let run_claim ~n ~len ?(stop = fun _ -> false) f =
  let rt = claim_rt () in
  let log = ref [] in
  let result = ref ([], false) in
  ignore
    (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"claimer" ~kind:Sim.Engine.Gc
       (fun () ->
         result :=
           Collectors.Common.claim rt ~n ~name:"claim-test"
             ~stop:(fun () -> stop (List.length !log))
             (Array.init len Fun.id)
             (fun _tk i ->
               log := i :: !log;
               Sim.Engine.yield ();
               f i)));
  Sim.Engine.run rt.Runtime.Rt.engine;
  (List.rev !log, fst !result, snd !result)

let ints = Alcotest.(list int)

let test_claim_each_once_in_order () =
  let log, rest, failed = run_claim ~n:3 ~len:10 ignore in
  Alcotest.check ints "each item claimed once, in index order"
    (List.init 10 Fun.id) log;
  Alcotest.check ints "nothing left" [] rest;
  Alcotest.(check bool) "no failure" false failed

let test_claim_stops_on_flag () =
  let log, rest, failed = run_claim ~n:2 ~len:10 ~stop:(fun k -> k >= 3) ignore in
  Alcotest.check ints "claiming stops once the flag rises" [ 0; 1; 2 ] log;
  Alcotest.check ints "unclaimed tail, descending" [ 9; 8; 7; 6; 5; 4; 3 ] rest;
  Alcotest.(check bool) "a stop is not a failure" false failed

let test_claim_more_workers_than_items () =
  let log, rest, failed = run_claim ~n:5 ~len:2 ignore in
  Alcotest.check ints "both items claimed" [ 0; 1 ] log;
  Alcotest.check ints "nothing left" [] rest;
  Alcotest.(check bool) "no failure" false failed

let test_claim_failure_remainder () =
  (* Items 1 and 2 fail while both workers are inside them, so the
     remainder holds two failed items behind the unclaimed tail. *)
  let fails = ref [] in
  let log, rest, failed =
    run_claim ~n:2 ~len:8 (fun i ->
        if i = 1 || i = 2 then begin
          fails := i :: !fails;
          raise Collectors.Common.Evac.Evacuation_failure
        end)
  in
  Alcotest.(check bool) "failure reported" true failed;
  Alcotest.(check int) "both failing items were claimed" 2 (List.length !fails);
  let claimed = List.length log in
  Alcotest.check ints
    "unclaimed tail in descending index, then failed items (latest first)"
    (List.init (8 - claimed) (fun k -> 7 - k) @ !fails)
    rest

(* The shared tenuring policy. *)
let test_tenuring_policy () =
  let rt = claim_rt () in
  let ten = Collectors.Common.Evac.tenuring rt ~tenure_age:2 in
  let uids = Heap.Gobj.uid_source () in
  let obj ~age =
    Heap.Gobj.remake ~uids
      (Heap.Gobj.make_with ~uids ~id:1 ~size:64 ~nrefs:0 ~region:0 ~offset:0)
      ~age ~region:0 ~offset:0
  in
  let promotes o = Collectors.Common.Evac.promotes ten o in
  Alcotest.(check bool) "age below tenure_age stays young" false
    (promotes (obj ~age:1));
  Alcotest.(check bool) "age = tenure_age promotes" true (promotes (obj ~age:2));
  Alcotest.(check bool) "age above tenure_age promotes" true
    (promotes (obj ~age:3));
  let cap = ten.Collectors.Common.Evac.survivor_cap in
  Alcotest.(check int) "survivor cap is a sixteenth of the heap"
    (4 * mib / 16) cap;
  ten.Collectors.Common.Evac.survivor_bytes <- cap - 64;
  Collectors.Common.Evac.survived ten (obj ~age:0);
  Alcotest.(check int) "survivors counted" cap
    ten.Collectors.Common.Evac.survivor_bytes;
  Alcotest.(check bool) "survivor bytes at the cap: no overflow" false
    (promotes (obj ~age:0));
  Collectors.Common.Evac.survived ten (obj ~age:0);
  Alcotest.(check bool) "survivor bytes above the cap: young promotes" true
    (promotes (obj ~age:0))

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
       ( "claim",
         [
           Alcotest.test_case "each item once, in index order" `Quick
             test_claim_each_once_in_order;
           Alcotest.test_case "stops when the flag rises" `Quick
             test_claim_stops_on_flag;
           Alcotest.test_case "more workers than items" `Quick
             test_claim_more_workers_than_items;
           Alcotest.test_case "failure remainder order" `Quick
             test_claim_failure_remainder;
         ] );
       ( "tenuring",
         [ Alcotest.test_case "age and survivor overflow" `Quick test_tenuring_policy ] );
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
