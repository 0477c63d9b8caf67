(** Shared young-generation machinery for the generational baselines
    (GenShen §2.5, GenZ §2.5) and reused by Jade's heap layout (§4.1).

    Maintains the old-to-young remembered set (one bit per 512-byte card
    of old-generation memory that may hold references to young objects)
    and provides a *concurrent* young collection:

      STW init  — snapshot young regions, scan roots and old-to-young
                  cards as young roots;
      concurrent young marking (scope: young regions only);
      STW final — drain the write-barrier queue;
      concurrent evacuation of every young region, promoting objects past
      the tenuring age to the old generation;
      (GenShen style) a reference-update pass over survivors, remembered
      cards and roots — or (GenZ style) lazy healing via load barriers.

    The evacuation records new old-to-young remembered-set entries when a
    promoted object still references young survivors. *)

open Heap
module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

type style = Update_refs_phase | Lazy_healing

type t = {
  rt : RtM.t;
  remset : Remset.t;  (** old-to-young, card granularity *)
  tenuring : Common.Evac.tenuring;
  style : style;
  atomic_cost : bool;  (** colored-pointer cost during young marking *)
  marker : Common.Marker.t;
  mutable young_cycle_active : bool;
}

let create ?(tenure_age = 1) ?(atomic_cost = false) ~style rt =
  Common.check_tenure_age ~who:"Young_gen.create" tenure_age;
  let heap = rt.RtM.heap in
  let t =
    {
      rt;
      remset =
        Remset.create ~name:"old2young"
          ~total_cards:(Heap_impl.total_cards heap);
      tenuring = Common.Evac.tenuring rt ~tenure_age;
      style;
      atomic_cost;
      marker =
        Common.Marker.create
          ~scope:(Common.Marker.Only (fun r -> r.Region.kind = Region.Young))
          ~gen:Common.Marker.Young_gen ~atomic_cost rt;
      young_cycle_active = false;
    }
  in
  (* Verifier metadata: the card remset is the sole old→young coverage
     source for the generational baselines (no dirty-card backup). *)
  RtM.register_remset_provider rt
    {
      Runtime.Vhook.rp_name = "young_gen.old2young";
      rp_covers =
        (fun () -> Some (fun ~card ~target_rid:_ -> Remset.mem t.remset card));
    };
  t

let is_young heap (o : Gobj.t) =
  (Heap_impl.region heap o.Gobj.region).Region.kind = Region.Young

let is_old heap (o : Gobj.t) =
  (Heap_impl.region heap o.Gobj.region).Region.kind = Region.Old

(** Write-barrier hook: remember old-to-young stores; during a young
    cycle also gray the stored value so concurrently created references
    are not lost. *)
let barrier t ~(src : Gobj.t) ~field ~(new_v : Gobj.t) =
  let heap = t.rt.RtM.heap in
  (* Null first: the sentinel's region id (-1) must never be looked up. *)
  if new_v != Gobj.null && is_old heap src && is_young heap new_v then begin
    Sim.Engine.tick t.rt.RtM.costs.Costs.card_barrier;
    ignore (Remset.add t.remset (Heap_impl.card_of_field heap src field));
    if t.young_cycle_active then Util.Vec.push t.marker.Common.Marker.satb new_v
  end

let young_regions t =
  let heap = t.rt.RtM.heap in
  Array.to_list heap.Heap_impl.regions
  |> List.filter (fun (r : Region.t) ->
         r.Region.kind = Region.Young && not r.Region.humongous)

(* Scan the old-to-young remembered set, graying young targets.  Cards
   that no longer hold any old-to-young reference are pruned. *)
let scan_remset_roots t tk =
  let heap = t.rt.RtM.heap in
  let costs = t.rt.RtM.costs in
  let prune = ref [] in
  Remset.iter
    (fun card ->
      Common.Ticker.tick tk costs.Costs.card_scan;
      let holder_r = Heap_impl.region heap (Heap_impl.card_to_region heap card) in
      if holder_r.Region.kind <> Region.Old then prune := card :: !prune
      else begin
        let found = ref false in
        Heap_impl.scan_card heap card ~f:(fun o i ->
            let slot = Gobj.get_field o i in
            if slot != Gobj.null then begin
              let child = Gobj.resolve slot in
              if is_young heap child then begin
                found := true;
                Common.Marker.gray t.marker child
              end
            end);
        if not !found then prune := card :: !prune
      end)
    t.remset;
  List.iter (fun card -> Remset.remove t.remset card) !prune

(** Re-remember the young references of [o'], a copy now in the old
    generation (a promoted object, or an old holder an old cycle
    relocated); [tick] bills each insert. *)
let remember_old_copy t ~tick (o' : Gobj.t) =
  let heap = t.rt.RtM.heap in
  Gobj.iter_fields
    (fun i child ->
      (* Stale refs count too: their copies are also young. *)
      if is_young heap (Gobj.resolve child) then begin
        tick ();
        ignore (Remset.add t.remset (Heap_impl.card_of_field heap o' i))
      end)
    o'

(** Run one concurrent young collection.  Returns false on evacuation
    failure (caller escalates). *)
let debug =
  match Sys.getenv_opt "SIM_DEBUG" with Some "1" -> true | _ -> false
  [@@gcsim.allow "env-gated debug flag (SIM_DEBUG), read once at module init"]

let collect t ~gc_threads =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  (if debug then
     Printf.eprintf "[young] %.3fs start free=%d young=%d\n%!"
       (float_of_int (Sim.Engine.now rt.RtM.engine) /. 1e9)
       (Heap_impl.free_regions heap)
       (List.length (young_regions t)))
  [@gcsim.allow "debug trace on stderr, dead unless SIM_DEBUG=1"];
  let metrics = rt.RtM.metrics in
  let marker = t.marker in
  let now () = Sim.Engine.now rt.RtM.engine in
  let stw_tk () =
    Common.Ticker.create ~workers:(Sim.Engine.cores rt.RtM.engine) ()
  in
  t.young_cycle_active <- true;
  t.tenuring.Common.Evac.survivor_bytes <- 0;
  Metrics.phase_begin metrics "young.cycle" ~now:(now ());
  let snapshot = ref [] in
  (* Init (STW): roots + remembered set. *)
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Init_mark (fun () ->
      RtM.retire_all_tlabs rt;
      ignore (Heap_impl.begin_young_mark heap);
      snapshot := young_regions t;
      List.iter (fun (r : Region.t) -> r.Region.in_cset <- true) !snapshot;
      marker.Common.Marker.active <- true;
      RtM.fire_phase rt Runtime.Vhook.Remset_scan;
      let tk = stw_tk () in
      Common.scan_roots rt tk (Common.Marker.gray marker);
      scan_remset_roots t tk;
      Common.Ticker.flush tk);
  (* Concurrent young mark. *)
  Metrics.phase_begin metrics "young.mark" ~now:(now ());
  Common.Marker.concurrent_mark marker ~workers:gc_threads;
  Metrics.phase_end metrics "young.mark" ~now:(now ());
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Final_mark (fun () ->
      let tk = stw_tk () in
      Common.scan_roots rt tk (Common.Marker.gray marker);
      Common.Marker.final_drain marker tk;
      marker.Common.Marker.active <- false;
      Heap_impl.end_young_mark heap;
      Common.Ticker.flush tk;
      RtM.fire_phase rt Runtime.Vhook.Young_mark_end);
  (* Concurrent evacuation over the snapshot. *)
  Metrics.phase_begin metrics "young.evac" ~now:(now ());
  (* Survivors stay young, objects past the tenuring age promote, and
     promoted objects with young references get remembered-set entries
     for their new location.  Liveness is exactly the young mark:
     snapshot regions all predate the cycle, and objects born during it
     were allocated young-marked. *)
  let _, failed =
    Common.claim rt ~n:gc_threads ~name:"young-evac" ~stop:(fun () -> false)
      (Array.of_list !snapshot)
      (fun tk ->
        let dest_young =
          Common.Evac.make_dest
            ~on_copied:(Common.Evac.survived t.tenuring)
            rt Region.Young
        in
        let on_promoted (o' : Gobj.t) =
          Metrics.add metrics "young.promoted_bytes" o'.Gobj.size;
          remember_old_copy t o' ~tick:(fun () ->
              Common.Ticker.tick tk rt.RtM.costs.Costs.remset_insert)
        in
        let dest_old = Common.Evac.make_dest ~on_copied:on_promoted rt Region.Old in
        Common.Evac.evacuate_region rt tk
          ~live:(Heap_impl.is_marked_young heap)
          ~dest:(fun o ->
            if Common.Evac.promotes t.tenuring o then dest_old else dest_young))
  in
  Metrics.phase_end metrics "young.evac" ~now:(now ());
  if not failed then begin
    (* Reference updating: eager pass (GenShen) or left to load-barrier
       healing and the next marking cycle (GenZ). *)
    (match t.style with
    | Lazy_healing ->
        Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Remark (fun () ->
            RtM.update_roots rt)
    | Update_refs_phase ->
        Metrics.phase_begin metrics "young.update_refs" ~now:(now ());
        (* Snapshot the survivor regions now: later-allocated eden heals
           lazily through the load barrier, exactly as in GenShen —
           chasing live allocation here would never terminate. *)
        let survivors =
          Array.to_list heap.Heap_impl.regions
          |> List.filter (fun (r : Region.t) ->
                 (not (Region.is_free r))
                 && r.Region.kind = Region.Young
                 && not r.Region.in_cset)
        in
        Common.run_workers rt ~n:gc_threads ~name:"young-update" (fun w tk ->
            (* Fix the remembered cards and the survivor regions. *)
            if w = 0 then
              Remset.iter (fun card -> Common.update_refs_in_card rt tk card)
                t.remset
            else if w = 1 then
              List.iter
                (fun (r : Region.t) ->
                  if not (Region.is_free r) then
                    Common.update_refs_in_region rt tk r)
                survivors);
        Metrics.phase_end metrics "young.update_refs" ~now:(now ());
        Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Remark (fun () ->
            RtM.update_roots rt));
    (* Release the collected young regions. *)
    let tk = Common.Ticker.create () in
    List.iter
      (fun (r : Region.t) ->
        Metrics.add metrics "young.reclaimed_bytes" r.Region.top;
        Heap_impl.release_region heap r;
        Common.Ticker.tick tk rt.RtM.costs.Costs.region_reset)
      !snapshot;
    Common.Ticker.flush tk;
    let _, cleared = Heap_impl.process_weak_refs_freed_only heap in
    Metrics.add metrics "young.weak_cleared" cleared;
    Metrics.add metrics "young.collections" 1;
    RtM.notify_memory_freed rt;
    RtM.fire_phase rt Runtime.Vhook.Evac_end
  end
  else List.iter (fun (r : Region.t) -> r.Region.in_cset <- false) !snapshot;
  Common.check_reachability rt ~where:"young_gen";
  Metrics.phase_end metrics "young.cycle" ~now:(now ());
  t.young_cycle_active <- false;
  RtM.fire_phase rt Runtime.Vhook.Cycle_end;
  (if debug then
     Printf.eprintf "[young] %.3fs end ok=%b free=%d remset=%d\n%!"
       (float_of_int (Sim.Engine.now rt.RtM.engine) /. 1e9)
       (not failed)
       (Heap_impl.free_regions heap)
       (Remset.cardinal t.remset))
  [@gcsim.allow "debug trace on stderr, dead unless SIM_DEBUG=1"];
  not failed
