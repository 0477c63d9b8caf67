(** What the traced pass reads from the simulator's public observation
    seams, summed over every simulation run of the pass:

    - {!Obs.Trace.attach}: region claims/releases, evacuation batches,
      collector cycles (the [cycle-end] phase boundary);
    - {!Heap.Access}: metadata accesses by class, chained in front of any
      logger already installed (the explorer's race detector owns the
      hook in explored runs, and its events are counted separately);
    - {!Sim.Engine}: threads, choice points, virtual CPU by thread kind;
    - {!Runtime.Metrics}: requests, pauses, stalls and the named counters.

    An untraced pass uses {!none}, which touches nothing. *)

module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

type tally = {
  mutable runs : int;
  mutable region_claims : int;
  mutable region_releases : int;
  mutable evac_objects : int;
  mutable evac_bytes : int;
  access : int array;  (** indexed by {!access_index} *)
  mutable analysis_access : int;
  mutable threads : int;
  mutable choice_points : int;
  mutable busy_mutator_ns : int;
  mutable busy_gc_ns : int;
  mutable requests : int;
  mutable pauses : int;
  mutable pause_ns : int;
  mutable stall_ns : int;
  mutable exec_ns : int;
  mutable p99_latency_ns : int;  (** summed over runs *)
  counters : (string, int) Hashtbl.t;
  cycles : (string, int) Hashtbl.t;  (** run label -> cycle-end boundaries *)
  full_gcs : (string, int) Hashtbl.t;  (** run label -> full GCs *)
}

let access_classes =
  Heap.Access.[ Forward; Fwd_table; Card; Mark_bit; Region_ctl; Remset ]

let access_index : Heap.Access.res -> int = function
  | Heap.Access.Forward -> 0
  | Heap.Access.Fwd_table -> 1
  | Heap.Access.Card -> 2
  | Heap.Access.Mark_bit -> 3
  | Heap.Access.Region_ctl -> 4
  | Heap.Access.Remset -> 5

let create_tally () =
  {
    runs = 0;
    region_claims = 0;
    region_releases = 0;
    evac_objects = 0;
    evac_bytes = 0;
    access = Array.make (List.length access_classes) 0;
    analysis_access = 0;
    threads = 0;
    choice_points = 0;
    busy_mutator_ns = 0;
    busy_gc_ns = 0;
    requests = 0;
    pauses = 0;
    pause_ns = 0;
    stall_ns = 0;
    exec_ns = 0;
    p99_latency_ns = 0;
    counters = Hashtbl.create 32;
    cycles = Hashtbl.create 8;
    full_gcs = Hashtbl.create 8;
  }

let add tbl k n = Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

type t = {
  attach : RtM.t -> unit;  (** before the first simulated step *)
  finish : label:string -> RtM.t -> Runtime.Driver.result -> unit;
      (** after the run's driver returned *)
}

let none = { attach = ignore; finish = (fun ~label:_ _ _ -> ()) }

(** A probe adding every run to [tally].  [explored] runs already carry
    the explorer's scheduling policy, which counts their choice points;
    other runs get a rotation-0 policy, which the engine guarantees
    schedules bit-identically to none, so their choice points count too. *)
let traced tally ~explored =
  let recorder = ref None in
  let attach rt =
    recorder := Some (Obs.Trace.attach rt);
    if not explored then Sim.Engine.set_policy rt.RtM.engine (Some (fun _ -> 0));
    let previous = !(Heap.Access.hooks ()) in
    Heap.Access.set_hook
      (Some
         (fun op res ~key ~site ->
           let i = access_index res in
           tally.access.(i) <- tally.access.(i) + 1;
           match previous with
           | Some log ->
               tally.analysis_access <- tally.analysis_access + 1;
               log op res ~key ~site
           | None -> ()))
  in
  let finish ~label rt (r : Runtime.Driver.result) =
    let engine = rt.RtM.engine and m = rt.RtM.metrics in
    tally.runs <- tally.runs + 1;
    Option.iter
      (fun trace ->
        Obs.Trace.iter
          (fun (e : Obs.Trace.event) ->
            match e.Obs.Trace.payload with
            | Runtime.Tracepoint.Region_claim _ ->
                tally.region_claims <- tally.region_claims + 1
            | Runtime.Tracepoint.Region_release _ ->
                tally.region_releases <- tally.region_releases + 1
            | Runtime.Tracepoint.Evac_batch { objects; bytes } ->
                tally.evac_objects <- tally.evac_objects + objects;
                tally.evac_bytes <- tally.evac_bytes + bytes
            | Runtime.Tracepoint.Boundary { boundary = "cycle-end"; _ } ->
                add tally.cycles label 1
            | _ -> ())
          trace;
        Obs.Trace.detach rt)
      !recorder;
    recorder := None;
    Heap.Access.reset ();
    tally.threads <- tally.threads + List.length (Sim.Engine.thread_info engine);
    tally.choice_points <- tally.choice_points + Sim.Engine.choice_points engine;
    tally.busy_mutator_ns <-
      tally.busy_mutator_ns + Sim.Engine.busy_ns engine Sim.Engine.Mutator;
    tally.busy_gc_ns <- tally.busy_gc_ns + Sim.Engine.busy_ns engine Sim.Engine.Gc;
    tally.requests <- tally.requests + r.Runtime.Driver.completed;
    tally.exec_ns <- tally.exec_ns + r.Runtime.Driver.elapsed_ns;
    tally.p99_latency_ns <- tally.p99_latency_ns + Metrics.p99_latency m;
    tally.pauses <- tally.pauses + Metrics.pause_count m;
    tally.pause_ns <- tally.pause_ns + Metrics.cumulative_pause m;
    tally.stall_ns <- tally.stall_ns + Metrics.cumulative_pause_of m Metrics.Alloc_stall;
    Hashtbl.iter (fun k v -> add tally.counters k v) m.Metrics.counters;
    add tally.full_gcs label (Metrics.counter m "full_gc_count")
  in
  { attach; finish }
