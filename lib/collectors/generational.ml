(** Generational collectors built by composition (§2.5): the shared
    concurrent young collection ({!Young_gen}) over an old space whose
    cycles are restricted to old regions.

    - GenZ keeps ZGC's two-phase young shape — concurrent young marking
      with colored-pointer costs, then young relocation with lazy
      reference healing — so "the young GC algorithm still contains the
      overhead of color pointers" (§2.5); old collections are ZGC cycles.
      The colored-pointer mutator taxes (per-load color checks,
      compressed references disabled) apply throughout.
    - GenShen uses the parent's three-phase young structure — concurrent
      young marking, concurrent evacuation, and an eager reference-update
      pass over survivors, remembered cards and roots — so it keeps
      Shenandoah's per-cycle overheads; old collections are Shenandoah
      cycles. *)

open Heap
module RtM = Runtime.Rt

type config = {
  gc_threads : int;
  young_budget_fraction : int;  (** young GC when young regions > heap/n *)
  old_trigger_occupancy : float;
  poll_interval : int;
}

let default_config =
  {
    gc_threads = 2;
    young_budget_fraction = 4;
    old_trigger_occupancy = 0.60;
    poll_interval = 100 * Util.Units.us;
  }

(** The old-space collector, as the combinator drives it. *)
type old_space = {
  marker : Common.Marker.t;  (** its SATB marker *)
  run_cycle : unit -> unit;
  on_alloc_failure : unit -> unit;  (** its reaction to a stalled allocation *)
}

type t = {
  rt : RtM.t;
  config : config;
  young : Young_gen.t;
  old : old_space;
  mutable urgent : bool;
}

let young_count t = Common.count_regions t.rt.RtM.heap Region.Young
let old_occupancy t = Common.old_occupancy t.rt.RtM.heap

(* Below the watermark: an old cycle, then a full GC, then OOM. *)
let escalate t =
  let heap = t.rt.RtM.heap in
  if Heap_impl.free_regions heap < Common.low_watermark heap then begin
    t.old.run_cycle ();
    if Heap_impl.free_regions heap < Common.low_watermark heap then
      Common.full_gc_or_oom t.rt
  end

let controller t () =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  while true do
    let budget =
      max 4 (Heap_impl.num_regions heap / t.config.young_budget_fraction)
    in
    if
      t.urgent
      || young_count t >= budget
      || Heap_impl.free_regions heap <= max 2 (Heap_impl.num_regions heap / 16)
         && young_count t > 0
    then begin
      t.urgent <- false;
      let ok = Young_gen.collect t.young ~gc_threads:t.config.gc_threads in
      if (not ok) || Heap_impl.free_regions heap < Common.low_watermark heap
      then escalate t
    end
    else if old_occupancy t >= t.config.old_trigger_occupancy then
      t.old.run_cycle ()
    else Sim.Engine.sleep rt.RtM.engine t.config.poll_interval
  done

let install ~cname ~load_extra_cost ~mutator_tax_pct ~config ~young ~old rt =
  let t = { rt; config; young; old; urgent = false } in
  let store_barrier ~src ~field ~old_v ~new_v =
    (* Old-generation SATB during old marking, young SATB during young
       marking; old-to-young remembering always. *)
    if old.marker.Common.Marker.active || young.Young_gen.marker.Common.Marker.active
    then begin
      Sim.Engine.tick rt.RtM.costs.Costs.satb_barrier;
      if old_v != Gobj.null then begin
        Common.Marker.satb_enqueue old.marker old_v;
        Common.Marker.satb_enqueue young.Young_gen.marker old_v
      end
    end;
    Young_gen.barrier young ~src ~field ~new_v
  in
  RtM.install_collector rt
    {
      RtM.cname;
      store_barrier;
      load_extra_cost;
      mutator_tax_pct;
      alloc_failure =
        (fun () ->
          t.urgent <- true;
          old.on_alloc_failure ();
          Common.stall_until_freed rt);
    };
  ignore
    (Sim.Engine.spawn rt.RtM.engine ~daemon:true ~kind:Sim.Engine.Gc
       ~name:(cname ^ "-controller") (controller t));
  t

let old_only (r : Region.t) = r.Region.kind = Region.Old

let install_genz ?(config = default_config) rt =
  let young =
    Young_gen.create ~atomic_cost:true ~style:Young_gen.Lazy_healing rt
  in
  let zgc =
    Zgc.create rt
      ~config:
        {
          Zgc.default_config with
          gc_threads = config.gc_threads;
          cset_filter = old_only;
          (* Old cycles relocate holders of old-to-young references:
             their new locations must re-enter the remembered set or
             young targets would be lost when the old card's region is
             freed. *)
          copy_hook = Young_gen.remember_old_copy young ~tick:ignore;
        }
  in
  let costs = rt.RtM.costs in
  install ~cname:"genz" ~load_extra_cost:costs.Costs.colored_load_extra
    ~mutator_tax_pct:costs.Costs.compressed_oops_tax_pct ~config ~young rt
    ~old:
      {
        marker = zgc.Zgc.marker;
        run_cycle = (fun () -> Zgc.run_cycle zgc);
        on_alloc_failure = ignore;
      }

let install_genshen ?(config = default_config) rt =
  let young = Young_gen.create ~style:Young_gen.Update_refs_phase rt in
  let shen =
    Shenandoah.create rt
      ~config:
        {
          Shenandoah.default_config with
          gc_threads = config.gc_threads;
          cset_filter = old_only;
          copy_hook = Young_gen.remember_old_copy young ~tick:ignore;
        }
  in
  install ~cname:"genshen" ~load_extra_cost:1 ~mutator_tax_pct:0 ~config
    ~young rt
    ~old:
      {
        marker = shen.Shenandoah.marker;
        run_cycle = (fun () -> Shenandoah.run_cycle shen);
        on_alloc_failure = (fun () -> Shenandoah.request_degeneration shen);
      }
