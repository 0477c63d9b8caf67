(* The simulator's layer benchmark.

     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Runs one workload through the public entry points (Harness.prepare,
   Runtime.Driver.run, Analysis.Explore.run) for about S host seconds,
   as repeated passes, and checks every pass's simulated fingerprint
   against the first.

   --trace 0 prints the end-to-end metrics: medians over untraced
   passes, host times scaled to the reference host speed measured by
   the calibration kernel (calibrate.ml).  --trace 1 runs untraced
   passes for half the time, then one traced pass (sampler, spans,
   observation seams) and prints the per-layer metrics.  The last
   stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module H = Experiments.Harness
module Exp = Experiments.Exp
module Reg = Experiments.Registry
module RtM = Runtime.Rt
module Metrics = Runtime.Metrics
module Driver = Runtime.Driver

let ms = Util.Units.ms

(* ------------------------------------------------------------------ *)
(* One simulation run = one operation.                                  *)

type run = {
  label : string;
  fingerprint : string;
      (** every simulated result of the run; must repeat exactly *)
  failure : string option;
  completed : int;
  elapsed_ns : int;
  mean_latency_ns : float;
}

let failed_run label why =
  { label; fingerprint = "failed: " ^ why; failure = Some why; completed = 0;
    elapsed_ns = 0; mean_latency_ns = 0. }

let outcome ~label ?expect rt (r : Driver.result) =
  let m = rt.RtM.metrics and engine = rt.RtM.engine in
  let counters =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.Metrics.counters []
    |> List.sort compare
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  in
  let fingerprint =
    Printf.sprintf
      "%s completed=%d elapsed=%d pauses=%d pause_ns=%d p99_lat=%d \
       p99_pause=%d busy_mut=%d busy_gc=%d oom=%s [%s]"
      label r.Driver.completed r.Driver.elapsed_ns (Metrics.pause_count m)
      (Metrics.cumulative_pause m) (Metrics.p99_latency m) (Metrics.p99_pause m)
      (Sim.Engine.busy_ns engine Sim.Engine.Mutator)
      (Sim.Engine.busy_ns engine Sim.Engine.Gc)
      (Option.value ~default:"-" r.Driver.oom)
      (String.concat " " counters)
  in
  let failure =
    match (r.Driver.oom, expect) with
    | Some why, _ -> Some ("out of memory: " ^ why)
    | None, Some n when r.Driver.completed < n ->
        Some (Printf.sprintf "completed %d of %d requests" r.Driver.completed n)
    | None, _ when r.Driver.completed = 0 -> Some "no request completed"
    | None, _ -> None
  in
  { label; fingerprint; failure; completed = r.Driver.completed;
    elapsed_ns = r.Driver.elapsed_ns;
    mean_latency_ns = Util.Histogram.mean m.Metrics.latency }

(** Prepare and drive one run, spanned as [run:<collector>] > prepare, drive. *)
let sim_run spans (probe : Probe.t) ~label ~machine ~(entry : Reg.entry) ~mode
    ?warmup ?duration ?expect ?(attach = ignore) app =
  Spans.run spans ("run:" ^ entry.Reg.name) (fun () ->
      match
        Spans.run spans "prepare" (fun () ->
            H.prepare ~machine ~verify:Analysis.Sanitizer.Off
              ~attach:(fun rt -> attach rt; probe.Probe.attach rt)
              ~install:entry.Reg.install app)
      with
      | exception H.Setup_oom why -> failed_run label ("setup out of memory: " ^ why)
      | rt, request ->
          let r =
            Spans.run spans "drive" (fun () ->
                Driver.run rt
                  ~n_mutators:app.Workload.Apps.spec.Workload.Spec.mutators
                  ~mode ?warmup ?duration ~request ())
          in
          probe.Probe.finish ~label rt r;
          outcome ~label ?expect rt r)

(* ------------------------------------------------------------------ *)
(* Workloads.                                                           *)

type workload = {
  name : string;
  explored : bool;  (** runs carry the explorer's scheduling policy *)
  pass : seed:int -> Probe.t -> Spans.t -> run list;
}

(* Table 1's Jade cell: closed loop, 8 mutators on 8 virtual cores, 4x
   heap.  Simulating the mutator dominates host time here. *)
let closed_h2_jade =
  let app = Workload.Apps.find "h2-tpcc" in
  {
    name = "closed-h2-jade";
    explored = false;
    pass =
      (fun ~seed probe spans ->
        let machine = { (Exp.machine_for app ~mult:4.0) with H.seed } in
        [ sim_run spans probe ~label:"jade" ~machine ~entry:Reg.jade
            ~mode:Driver.Closed ~warmup:(50 * ms) ~duration:(400 * ms) app ]);
  }

(* Table 4's tight-heap DaCapo shape: fixed work at 1.5x heap, once per
   collector.  GC-bound: most collectors spend at least the mutator's
   virtual CPU on GC and several degenerate into full GCs.  g1-10ms is
   left out: its pause target never binds here, so it repeats g1. *)
let suite_collectors = Reg.[ jade; g1; zgc; shenandoah; lxr; genz; genshen ]
let suite_requests = 2_500

let tight_xalan_suite =
  let app = Workload.Apps.find "xalan" in
  {
    name = "tight-xalan-suite";
    explored = false;
    pass =
      (fun ~seed probe spans ->
        let machine = { (Exp.machine_for ~cores:4 app ~mult:1.5) with H.seed } in
        List.map
          (fun (entry : Reg.entry) ->
            sim_run spans probe ~label:entry.Reg.name ~machine ~entry
              ~mode:(Driver.Fixed suite_requests) ~expect:suite_requests app)
          suite_collectors);
  }

(* Schedule exploration as `gcsim check` runs it, at 1.5x heap so that
   Jade collects inside every schedule and the verifier and race
   detector have work.  Every schedule rebuilds the machine and live set. *)
let check_schedules = 40
let check_requests = 2_000

let check_avrora_tight =
  let app = Workload.Apps.find "avrora" in
  {
    name = "check-avrora-tight";
    explored = true;
    pass =
      (fun ~seed probe spans ->
        let machine = { (Exp.machine_for ~cores:4 app ~mult:1.5) with H.seed } in
        let runs = ref [] in
        let scenario ~attach =
          Spans.run spans "scenario" (fun () ->
              let label = Printf.sprintf "schedule-%d" (List.length !runs) in
              runs :=
                sim_run spans probe ~label ~machine ~entry:Reg.jade
                  ~mode:(Driver.Fixed check_requests) ~expect:check_requests
                  ~attach app
                :: !runs)
        in
        let cfg =
          { Analysis.Explore.strategy = Analysis.Explore.Rand;
            schedules = check_schedules; depth = 8; seed = 1; jobs = 1 }
        in
        let res = Spans.run spans "explore" (fun () -> Analysis.Explore.run scenario cfg) in
        let runs = List.rev !runs in
        let ran = res.Analysis.Explore.explored + res.Analysis.Explore.shrink_runs in
        (* A schedule cut short by a violation or an exception leaves no
           run behind; it is counted here. *)
        let lost =
          List.init (max 0 (ran - List.length runs)) (fun i ->
              failed_run (Printf.sprintf "lost-%d" i) "schedule raised")
        in
        let verdict =
          match res.Analysis.Explore.violation with
          | None -> []
          | Some v ->
              [ failed_run "explore"
                  (Analysis.Report.to_string v.Analysis.Explore.report) ]
        in
        runs @ lost @ verdict);
  }

let workloads = [ closed_h2_jade; tight_xalan_suite; check_avrora_tight ]

(* ------------------------------------------------------------------ *)
(* Passes.                                                              *)

type pass = {
  runs : run list;
  kernel_s : float list;  (** {!Calibrate} kernel times just before and after *)
  wall_s : float;
  spans : Spans.t;
  minor_words : float;
  promoted_words : float;
}

(* [sample] wraps the pass body alone, so the sampler never sees the
   kernel or the compactions. *)
let run_pass ?(sample = fun f -> f ()) w ~seed probe =
  (* The calibration kernel runs just before and just after the pass; the
     pass starts from a compacted host heap, so garbage left by the
     previous pass or the kernel is not collected on the pass's clock. *)
  Gc.compact ();
  let before = Calibrate.seconds () in
  Gc.compact ();
  let spans = Spans.create () in
  let s0 = Gc.quick_stat () in
  let t0 = Spans.now_ns () in
  let runs = sample (fun () -> w.pass ~seed probe spans) in
  let wall_s = Spans.seconds (Int64.sub (Spans.now_ns ()) t0) in
  let s1 = Gc.quick_stat () in
  Gc.compact ();
  let kernel_s = [ before; Calibrate.seconds () ] in
  { runs; kernel_s; wall_s; spans;
    minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_mem_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> Option.fold ~none:0. ~some:(fun kb -> float_of_int kb /. 1024.)

(* Passes of [w] until [seconds] have elapsed (at least [min_passes]). *)
let timed_passes w ~seed ~seconds ~min_passes =
  let t0 = Spans.now_ns () in
  let rec loop acc =
    let elapsed = Spans.seconds (Int64.sub (Spans.now_ns ()) t0) in
    if List.length acc >= min_passes && elapsed >= seconds then List.rev acc
    else begin
      let p = run_pass w ~seed Probe.none in
      Printf.printf "pass %d: %.3fs, setup %.3fs, kernel %s\n%!" (List.length acc + 1)
        p.wall_s (Spans.total_s p.spans "prepare")
        (String.concat " " (List.map (Printf.sprintf "%.3fs") p.kernel_s));
      loop (p :: acc)
    end
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Output.                                                              *)

type metric = { mname : string; value : float; unit : string }

let metric mname unit value = { mname; value; unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "%-40s %18.6f %s\n" m.mname m.value m.unit)
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname
          (json_number m.value) m.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* The simulated metrics of one pass: requests per virtual second over
   all its runs, and the runs' mean request latency, averaged.  (p99 is
   quantized to the latency histogram's 0.8 % buckets, so on a single
   run it reads the same for almost every seed.) *)
let sim_metrics runs =
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  let n = max 1 (List.length runs) in
  let elapsed = sum (fun r -> r.elapsed_ns) in
  [
    metric "sim_throughput_rps" "req/virtual-s"
      (if elapsed = 0 then 0.
       else float_of_int (sum (fun r -> r.completed)) /. Util.Units.to_sec elapsed);
    metric "sim_mean_latency_ms" "virtual-ms"
      (List.fold_left (fun a r -> a +. r.mean_latency_ns) 0. runs /. float_of_int n /. 1e6);
  ]

(* Host times are scaled to the reference host speed: the medians of the
   passes' times, times the reference kernel time over the median kernel
   time of this run.  The kernel does not change with the simulator, so
   a faster simulator still shows in full. *)
let end_to_end passes =
  let runs = (List.hd passes).runs in
  let wall = median (List.map (fun p -> p.wall_s) passes) in
  let setup = median (List.map (fun p -> Spans.total_s p.spans "prepare") passes) in
  let kernel = median (List.concat_map (fun p -> p.kernel_s) passes) in
  let scale = Calibrate.reference_s /. kernel in
  Printf.printf "median pass %.4fs, setup %.4fs, kernel %.4fs (reference %.3fs): scale %.4f\n"
    wall setup kernel Calibrate.reference_s scale;
  [
    metric "wall_s" "s" (wall *. scale);
    metric "setup_s" "s" (setup *. scale);
    metric "peak_mem_mb" "MB" (peak_mem_mb ());
  ]
  @ sim_metrics runs

let layer_of_collector = function "jade" -> "core" | _ -> "collectors"

let per_layer w ~untraced ~(traced : pass) (t : Probe.tally) (s : Sampler.t) =
  let pct layer = Sampler.pct s (Sampler.count s layer) in
  let ms_of ns = float_of_int ns /. 1e6 in
  let count name n = metric name "count" (float_of_int n) in
  let counter layer key = count (layer ^ "." ^ key) (Probe.get t.Probe.counters key) in
  (* Both sides scaled by their own kernel times, like wall_s. *)
  let scaled ps =
    median (List.map (fun p -> p.wall_s) ps)
    /. median (List.concat_map (fun p -> p.kernel_s) ps)
  in
  let u = List.hd untraced in
  let spans = traced.spans in
  [
    count "trace.samples" s.Sampler.samples;
    metric "trace.overhead_pct" "%"
      (100. *. ((scaled [ traced ] /. scaled untraced) -. 1.));
    metric "heap.host_pct" "%" (pct "heap");
    metric "heap.gobj_host_pct" "%" (Sampler.pct s (Sampler.file_count s "lib/heap/gobj.ml"));
    count "heap.region_claims" t.Probe.region_claims;
    count "heap.region_releases" t.Probe.region_releases;
  ]
  @ List.map
      (fun res ->
        count
          ("heap.access." ^ String.map (function '-' -> '_' | c -> c)
                              (Heap.Access.res_to_string res))
          t.Probe.access.(Probe.access_index res))
      Probe.access_classes
  @ [
      metric "workload.host_pct" "%" (pct "workload");
      metric "runtime.host_pct" "%" (pct "runtime");
      count "runtime.requests" t.Probe.requests;
      count "runtime.pauses" t.Probe.pauses;
      metric "runtime.pause_ms" "virtual-ms" (ms_of t.Probe.pause_ns);
      metric "runtime.stall_ms" "virtual-ms" (ms_of t.Probe.stall_ns);
      metric "runtime.exec_ms" "virtual-ms" (ms_of t.Probe.exec_ns);
      metric "runtime.p99_latency_ms" "virtual-ms"
        (ms_of t.Probe.p99_latency_ns /. float_of_int (max 1 t.Probe.runs));
      metric "core.host_pct" "%" (pct "core");
      metric "collectors.host_pct" "%" (pct "collectors");
      count "collectors.evac_objects" t.Probe.evac_objects;
      metric "collectors.evac_bytes" "bytes" (float_of_int t.Probe.evac_bytes);
      count "collectors.full_gc_count" (Probe.get t.Probe.counters "full_gc_count");
    ]
  @ List.map (counter "core")
      [ "jade.old_cycles"; "jade.young_collections"; "jade.groups_built";
        "jade.chasing_rounds"; "jade.build_cards_scanned"; "jade.build_cards_via_crdt" ]
  @ List.map (counter "collectors") [ "g1.cards_scanned"; "lxr.rc_log_processed" ]
  @ List.concat_map
      (fun (e : Reg.entry) ->
        let c = e.Reg.name in
        let prefix = layer_of_collector c ^ "." ^ c in
        let mine = List.filter (fun r -> r.label = c) traced.runs in
        let on_suite = w.name = tight_xalan_suite.name in
        let cycles = Probe.get t.Probe.cycles c in
        [
          metric (prefix ^ ".wall_s") "s"
            (if on_suite then Spans.total_s spans ("run:" ^ c) else 0.);
          metric (prefix ^ ".sim_exec_ms") "virtual-ms"
            (if on_suite then
               ms_of (List.fold_left (fun a r -> a + r.elapsed_ns) 0 mine)
             else 0.);
          metric (prefix ^ ".full_gc_ratio") "ratio"
            (if on_suite && cycles > 0 then
               float_of_int (Probe.get t.Probe.full_gcs c) /. float_of_int cycles
             else 0.);
        ])
      suite_collectors
  @ [
      metric "analysis.host_pct" "%" (pct "analysis");
      count "analysis.schedules" (if w.explored then t.Probe.runs else 0);
      count "analysis.access_events" t.Probe.analysis_access;
      metric "analysis.explore_overhead_s" "s"
        (if w.explored then Spans.self_s spans "explore" else 0.);
      metric "sim.host_pct" "%" (pct "sim");
      count "sim.threads" t.Probe.threads;
      count "sim.choice_points" t.Probe.choice_points;
      metric "sim.busy_mutator_ms" "virtual-ms" (ms_of t.Probe.busy_mutator_ns);
      metric "sim.busy_gc_ms" "virtual-ms" (ms_of t.Probe.busy_gc_ns);
      metric "experiments.prepare_s" "s" (Spans.total_s spans "prepare");
      metric "experiments.drive_s" "s" (Spans.total_s spans "drive");
      metric "util.host_pct" "%" (pct "util");
      metric "obs.host_pct" "%" (pct "obs");
      metric "other.host_pct" "%" (pct "other");
      metric "host.minor_mwords" "Mwords" (u.minor_words /. 1e6);
      metric "host.promoted_mwords" "Mwords" (u.promoted_words /. 1e6);
    ]

let print_trace_tables (traced : pass) (s : Sampler.t) =
  Printf.printf "spans of the traced pass (host s):\n";
  List.iter
    (fun (name, n, total, self) ->
      Printf.printf "  %-24s %6d  total %9.4f  self %9.4f\n" name n total self)
    (Spans.table traced.spans);
  Printf.printf "sampled host time, %d samples at %.0f us of CPU each \
                 (signals land at poll points, so shares skew toward \
                 allocation sites):\n"
    s.Sampler.samples (Sampler.interval_s *. 1e6);
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) s.Sampler.layers []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (l, c) ->
         Printf.printf "  %-12s %6d samples  %5.1f%%\n" l c (Sampler.pct s c));
  Printf.printf "top files:\n";
  List.iter
    (fun (f, c) -> Printf.printf "  %-32s %6d samples  %5.1f%%\n" f c (Sampler.pct s c))
    (Sampler.top_files s 12)

(* ------------------------------------------------------------------ *)
(* Main.                                                                *)

let development_seed = 42

let () =
  let workload = ref "" and seed = ref development_seed in
  let seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       "NAME one of " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace 0|1"; exit 2);
  let seed = !seed in
  Printf.printf "workload %s, seed %d (%s), %.0f s\n%!" w.name seed
    (if seed = development_seed then "the development seed"
     else "held out: not the development seed")
    !seconds;
  let budget = if !trace = 1 then !seconds /. 2. else !seconds in
  (* The kernel's first run pays for growing the heap; keep it out. *)
  ignore (Calibrate.seconds ());
  let untraced = timed_passes w ~seed ~seconds:budget ~min_passes:2 in
  let traced =
    if !trace = 0 then None
    else begin
      let tally = Probe.create_tally () and sampler = Sampler.create () in
      let probe = Probe.traced tally ~explored:w.explored in
      let p = run_pass ~sample:(Sampler.with_sampler sampler) w ~seed probe in
      Printf.printf "traced pass: %.3fs\n" p.wall_s;
      Some (p, tally, sampler)
    end
  in
  let passes = untraced @ Option.fold ~none:[] ~some:(fun (p, _, _) -> [ p ]) traced in
  let reference = (List.hd passes).runs in
  let attempted = List.fold_left (fun a p -> a + List.length p.runs) 0 passes in
  (* A run fails on its own (OOM, short, violation) or by differing from
     the first pass's run in the same position. *)
  let failures =
    List.concat_map
      (fun p ->
        if List.length p.runs <> List.length reference then
          List.map (fun r -> (r.label, "pass ran a different number of runs")) p.runs
        else
          List.concat
            (List.map2
               (fun r r0 ->
                 match r.failure with
                 | Some why -> [ (r.label, why) ]
                 | None when r.fingerprint <> r0.fingerprint ->
                     [ (r.label, "simulated fingerprint differs from the first pass:\n  "
                                 ^ r.fingerprint ^ "\n  " ^ r0.fingerprint) ]
                 | None -> [])
               p.runs reference))
      passes
  in
  List.iter (fun (label, why) -> Printf.printf "FAILED %s: %s\n" label why) failures;
  let failed = List.length failures in
  let metrics =
    match traced with
    | None -> end_to_end untraced
    | Some (p, tally, sampler) ->
        print_trace_tables p sampler;
        per_layer w ~untraced ~traced:p tally sampler
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
