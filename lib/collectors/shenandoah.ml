(** Shenandoah collector model (Flood et al., §2.3).

    Heap-wise three-phase concurrent cycle: concurrent SATB marking over
    the whole heap, concurrent evacuation of a collection set bounded by
    the available free space, and a concurrent update-references pass
    that walks *every* live object — memory is released only after all
    three phases finish, which is exactly the long pre-reclamation cycle
    the paper analyses (§2.3).  Allocation failure during a cycle
    degenerates it: the remaining phases complete inside one
    stop-the-world pause, and a full compaction follows if even that
    cannot free memory. *)

open Heap
module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

type config = {
  gc_threads : int;
  trigger_occupancy : float;  (** start a cycle above this heap occupancy *)
  cset_live_threshold : float;
  cset_filter : Region.t -> bool;
      (** extra victim filter (GenShen restricts old cycles to old regions) *)
  copy_hook : Gobj.t -> unit;
      (** fires on every evacuated copy (GenShen rebuilds old-to-young
          remembered-set entries for relocated holders) *)
  poll_interval : int;
}

let default_config =
  {
    gc_threads = 2;
    trigger_occupancy = 0.55;
    cset_live_threshold = 0.85;
    cset_filter = (fun _ -> true);
    copy_hook = ignore;
    poll_interval = 100 * Util.Units.us;
  }

type t = {
  rt : RtM.t;
  config : config;
  marker : Common.Marker.t;
  mutable cycle_running : bool;
  mutable degen_requested : bool;
  mutable urgent : bool;
}

(* ------------------------------------------------------------------ *)
(* Collection-set selection (final mark).                               *)

let select_cset t =
  let heap = t.rt.RtM.heap in
  let cset = ref [] in
  (* Evacuation needs destination space: bound the cset's live bytes by
     the free space (§2.3: "the number of objects collected in each GC
     cycle is restricted by the remaining free space size"). *)
  let budget =
    ref (Heap_impl.free_regions heap * heap.Heap_impl.cfg.region_bytes * 9 / 10)
  in
  let candidates =
    Array.to_list heap.Heap_impl.regions
    |> List.filter (fun (r : Region.t) ->
           (not (Region.is_free r))
           && (not r.Region.humongous)
           && r.Region.alloc_epoch < heap.Heap_impl.mark_epoch
           && Region.live_ratio r < t.config.cset_live_threshold
           && t.config.cset_filter r)
    |> List.sort (fun (a : Region.t) b ->
           compare a.Region.live_bytes b.Region.live_bytes)
  in
  List.iter
    (fun (r : Region.t) ->
      if r.Region.live_bytes <= !budget then begin
        budget := !budget - r.Region.live_bytes;
        r.Region.in_cset <- true;
        cset := r :: !cset
      end)
    candidates;
  !cset

(* ------------------------------------------------------------------ *)
(* Cycle.                                                               *)

let evacuate t dest tk r =
  Common.Evac.evacuate_region t.rt tk
    ~live:(Common.Evac.live_after_mark t.rt.RtM.heap r)
    ~dest:(fun _ -> dest) r

let release_cset t tk cset =
  let heap = t.rt.RtM.heap in
  List.iter
    (fun (r : Region.t) ->
      Heap_impl.release_region heap r;
      Common.Ticker.tick tk t.rt.RtM.costs.Costs.region_reset)
    cset;
  Metrics.add t.rt.RtM.metrics "shen.regions_reclaimed" (List.length cset);
  RtM.notify_memory_freed t.rt

(* Finish the rest of a degenerated cycle inside one STW pause; returns
   true when even the degenerated evacuation failed (full GC needed). *)
let degenerate t ~evac_rest ~update_rest ~cset =
  let rt = t.rt in
  Metrics.add rt.RtM.metrics "shen.degenerated" 1;
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Degenerated (fun () ->
      let tk =
        Common.Ticker.create ~workers:(Sim.Engine.cores rt.RtM.engine) ()
      in
      let dest =
        Common.Evac.make_dest ~on_copied:t.config.copy_hook rt Region.Old
      in
      let failed =
        match List.iter (evacuate t dest tk) evac_rest with
        | () -> false
        | exception Common.Evac.Evacuation_failure -> true
      in
      if not failed then begin
        List.iter
          (fun (r : Region.t) ->
            if (not (Region.is_free r)) && not r.Region.in_cset then
              Common.update_refs_in_region rt tk r)
          update_rest;
        RtM.update_roots rt;
        release_cset t tk cset
      end
      else List.iter (fun (r : Region.t) -> r.Region.in_cset <- false) cset;
      Common.Ticker.flush tk;
      failed)

let run_cycle t =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  let marker = t.marker in
  t.cycle_running <- true;
  t.degen_requested <- false;
  let now () = Sim.Engine.now rt.RtM.engine in
  let stw_tk () =
    Common.Ticker.create ~workers:(Sim.Engine.cores rt.RtM.engine) ()
  in
  Metrics.phase_begin metrics "shen.cycle" ~now:(now ());
  (* 1. Init mark (STW). *)
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Init_mark (fun () ->
      RtM.retire_all_tlabs rt;
      ignore (Heap_impl.begin_mark heap);
      marker.Common.Marker.active <- true;
      let tk = stw_tk () in
      Common.scan_roots rt tk (Common.Marker.gray marker);
      Common.Ticker.flush tk;
      RtM.fire_phase rt Runtime.Vhook.Mark_start);
  (* 2. Concurrent mark. *)
  Metrics.phase_begin metrics "shen.mark" ~now:(now ());
  Common.Marker.concurrent_mark marker ~workers:t.config.gc_threads;
  Metrics.phase_end metrics "shen.mark" ~now:(now ());
  (* 3. Final mark (STW): terminate marking, process weak refs, select
     the collection set. *)
  let cset = ref [] in
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Final_mark (fun () ->
      let tk = stw_tk () in
      Common.scan_roots rt tk (Common.Marker.gray marker);
      Common.Marker.final_drain marker tk;
      marker.Common.Marker.active <- false;
      Heap_impl.end_mark heap;
      let _, cleared = Heap_impl.process_weak_refs_marked heap in
      Common.Ticker.tick tk (cleared * rt.RtM.costs.Costs.weak_ref_process);
      cset := select_cset t;
      ignore (Common.reclaim_dead_humongous rt tk);
      Common.Ticker.flush tk;
      RtM.fire_phase rt Runtime.Vhook.Mark_end);
  (* 4. Concurrent evacuation. *)
  Metrics.phase_begin metrics "shen.evac" ~now:(now ());
  (* Parallel phases stop early at a degeneration request; the unclaimed
     rest finishes inside the degenerated pause. *)
  let stop () = t.degen_requested in
  let evac_rest, evac_failed =
    Common.claim rt ~n:t.config.gc_threads ~name:"shen-evac" ~stop
      (Array.of_list !cset)
      (fun tk ->
        evacuate t
          (Common.Evac.make_dest ~on_copied:t.config.copy_hook rt Region.Old)
          tk)
  in
  Metrics.phase_end metrics "shen.evac" ~now:(now ());
  let all_regions = Array.to_list heap.Heap_impl.regions in
  let finish_ok =
    if evac_failed || t.degen_requested then begin
      let failed = degenerate t ~evac_rest ~update_rest:all_regions ~cset:!cset in
      if failed then Common.full_gc_or_oom rt;
      false
    end
    else begin
      (* 5. Concurrent update-refs over every live region. *)
      Metrics.phase_begin metrics "shen.update_refs" ~now:(now ());
      let update_rest, _ =
        Common.claim rt ~n:t.config.gc_threads ~name:"shen-update" ~stop
          heap.Heap_impl.regions
          (fun tk (r : Region.t) ->
            if (not (Region.is_free r)) && not r.Region.in_cset then
              Common.update_refs_in_region rt tk r)
      in
      Metrics.phase_end metrics "shen.update_refs" ~now:(now ());
      (* Evacuation is complete here, so the degenerated pause only
         updates references and cannot fail. *)
      if t.degen_requested then begin
        ignore (degenerate t ~evac_rest:[] ~update_rest ~cset:!cset);
        false
      end
      else true
    end
  in
  (* 6. Final update-refs (STW): fix roots, release the cset. *)
  if finish_ok then
    Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Remark (fun () ->
        let tk = stw_tk () in
        RtM.update_roots rt;
        release_cset t tk !cset;
        Common.Ticker.flush tk;
        RtM.fire_phase rt Runtime.Vhook.Evac_end);
  Common.check_reachability rt ~where:"shen_cycle";
  Metrics.phase_end metrics "shen.cycle" ~now:(now ());
  Metrics.add metrics "shen.cycles" 1;
  t.cycle_running <- false;
  RtM.fire_phase rt Runtime.Vhook.Cycle_end

(* ------------------------------------------------------------------ *)
(* Controller and plumbing.                                             *)

let controller t () =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  while true do
    if t.urgent || Heap_impl.occupancy heap >= t.config.trigger_occupancy
    then begin
      t.urgent <- false;
      run_cycle t;
      (* Escalate if the cycle made no usable progress while mutators are
         starving: full GC, then OOM. *)
      if
        rt.RtM.stalled_mutators > 0
        && Heap_impl.free_regions heap < Common.low_watermark heap
      then Common.full_gc_or_oom rt
    end
    else Sim.Engine.sleep rt.RtM.engine t.config.poll_interval
  done

(** A Shenandoah instance whose cycles the caller drives (GenShen's old
    space). *)
let create ?(config = default_config) rt =
  {
    rt;
    config;
    marker = Common.Marker.create rt;
    cycle_running = false;
    degen_requested = false;
    urgent = false;
  }

(** An allocation failed: a running cycle degenerates. *)
let request_degeneration t =
  if t.cycle_running then t.degen_requested <- true

let install ?config rt =
  let t = create ?config rt in
  RtM.install_collector rt
    {
      RtM.cname = "shenandoah";
      store_barrier = Common.satb_store_barrier t.marker;
      load_extra_cost = 1;
      mutator_tax_pct = 0;
      alloc_failure =
        (fun () ->
          t.urgent <- true;
          request_degeneration t;
          Common.stall_until_freed rt);
    };
  ignore
    (Sim.Engine.spawn rt.RtM.engine ~daemon:true ~kind:Sim.Engine.Gc
       ~name:"shen-controller" (controller t));
  t
