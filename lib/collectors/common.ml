(** Machinery shared by every collector: batched GC-thread cost
    accounting, parallel worker phases, root scanning, SATB concurrent
    marking, evacuation, remembered-set scanning and a stop-the-world
    full compaction used as everyone's last resort. *)

open Heap

module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

(** Reject a promotion age the object header cannot count to: ages
    saturate at {!Gobj.max_age}, so a larger tenure age would never
    promote. *)
let check_tenure_age ~who n =
  if n < 0 || n > Gobj.max_age then
    invalid_arg
      (Printf.sprintf "%s: tenure_age %d outside [0, %d]" who n Gobj.max_age)

(* ------------------------------------------------------------------ *)
(* Batched cost accounting for GC threads.                              *)

module Ticker = struct
  type t = { mutable pending : int; batch : int; workers : int }

  (** [workers] divides all billed cost: under a stop-the-world pause,
      [k <= cores] workers sharing the work finish in work/k wall time
      with no contention (all mutators are stopped), so serially executed
      STW phases bill cost/k — exact in this machine model.  Concurrent
      phases use real worker fibers instead and must keep [workers = 1]. *)
  let create ?(batch = 20_000) ?(workers = 1) () =
    if workers < 1 then invalid_arg "Ticker.create";
    { pending = 0; batch; workers }

  let flush t =
    if t.pending > 0 then begin
      let n = (t.pending + t.workers - 1) / t.workers in
      t.pending <- 0;
      Sim.Engine.tick n
    end

  (** Accumulate [n] ns, paying the engine in ~[batch]-sized chunks so GC
      loops do not suspend on every object. *)
  let tick t n =
    t.pending <- t.pending + n;
    if t.pending >= t.batch * t.workers then flush t
end

(* ------------------------------------------------------------------ *)
(* Parallel GC worker phases.                                           *)

(** Run [n] GC worker fibers executing [f worker_index ticker] and block
    the calling fiber until all finish. *)
let run_workers rt ~n ~name f =
  let engine = rt.RtM.engine in
  let remaining = ref n in
  let done_c = Sim.Engine.cond (name ^ ".done") in
  for i = 0 to n - 1 do
    ignore
      (Sim.Engine.spawn engine ~daemon:true ~kind:Sim.Engine.Gc
         ~name:(Printf.sprintf "%s-%d" name i)
         (fun () ->
           let tk = Ticker.create () in
           f i tk;
           Ticker.flush tk;
           decr remaining;
           if !remaining = 0 then Sim.Engine.broadcast engine done_c))
  done;
  while !remaining > 0 do
    Sim.Engine.wait done_c
  done

(** Block the calling mutator, outside the safepoint protocol, until a
    collector releases memory: every collector's allocation-failure wait. *)
let stall_until_freed rt =
  Runtime.Safepoint.park rt.RtM.safepoint;
  Sim.Engine.wait rt.RtM.mem_freed;
  Runtime.Safepoint.unpark rt.RtM.safepoint

(** The number of regions of [kind]. *)
let count_regions heap kind =
  Array.fold_left
    (fun n (r : Region.t) -> if r.Region.kind = kind then n + 1 else n)
    0 heap.Heap_impl.regions

(** Old regions as a fraction of the heap: the old-cycle trigger. *)
let old_occupancy heap =
  float_of_int (count_regions heap Region.Old)
  /. float_of_int (Heap_impl.num_regions heap)

(** The ints [iter] yields, in reverse, without a cons per element.  Card
    sets iterate in ascending order and their consumers claim cards in
    descending order, which is part of the deterministic schedule. *)
let descending_snapshot iter =
  let v = Util.Vec.create ~capacity:64 0 in
  iter (fun c -> Util.Vec.push v c);
  let n = Util.Vec.length v in
  Array.init n (fun i -> Util.Vec.get v (n - 1 - i))

(* ------------------------------------------------------------------ *)
(* Roots.                                                               *)

(** Scan all root sets, calling [f] on each live root; bills root-scan
    cost to the calling fiber (used under STW or at init-mark). *)
let scan_roots rt (tk : Ticker.t) f =
  let costs = rt.RtM.costs in
  RtM.iter_roots rt (fun o ->
      (* Empty slots (the null sentinel) still bill a root-scan tick:
         the stack scan touches every slot either way. *)
      Ticker.tick tk costs.Costs.root_scan;
      if o != Gobj.null then f (Gobj.resolve o))

(* ------------------------------------------------------------------ *)
(* SATB concurrent marking.                                             *)

module Marker = struct
  type scope = All | Only of (Region.t -> bool)

  (** Which mark word the cycle uses; young and old cycles co-run and
      must not alias each other's mark state. *)
  type gen = Old_gen | Young_gen

  type t = {
    rt : RtM.t;
    mutable scope : scope;
    gen : gen;
    remap : bool;  (** fix stale refs while tracing (ZGC-style remap) *)
    atomic_cost : bool;  (** bill a CAS per object (colored pointers) *)
    crdt : Crdt.t option;  (** record cross-region refs while marking *)
    satb : Gobj.t Util.Vec.t;  (** overwritten values enqueued by mutators *)
    stack : Gobj.t Util.Vec.t;  (** gray worklist *)
    mutable active : bool;
    mutable objects_marked : int;
    mutable epoch : int;
  }

  let create ?(scope = All) ?(gen = Old_gen) ?(remap = false)
      ?(atomic_cost = false) ?crdt rt =
    {
      rt;
      scope;
      gen;
      remap;
      atomic_cost;
      crdt;
      satb = Util.Vec.create Gobj.null;
      stack = Util.Vec.create Gobj.null;
      active = false;
      objects_marked = 0;
      epoch = 0;
    }

  let in_scope t (o : Gobj.t) =
    match t.scope with
    | All -> true
    | Only pred -> pred t.rt.RtM.heap.Heap_impl.regions.(o.region)

  let mark t heap o =
    match t.gen with
    | Old_gen -> Heap_impl.mark_object heap o
    | Young_gen -> Heap_impl.mark_object_young heap o

  (** Called by the write barrier: pre-store snapshot of the overwritten
      value.  Cheap test first; the queue is drained by mark workers. *)
  let satb_enqueue t (old_v : Gobj.t) =
    if t.active then Util.Vec.push t.satb old_v

  (* Visit one gray object: mark children, push newly marked ones.
     Colored-pointer marking (ZGC/GenZ) recolors every reference with an
     atomic op and traverses uncompressed 64-bit references, so both a
     per-reference CAS and the compressed-oops tax apply (§2.4). *)
  let visit t (tk : Ticker.t) (o : Gobj.t) =
    let heap = t.rt.RtM.heap in
    let costs = t.rt.RtM.costs in
    let size_cost = Costs.mark_size_cost costs o.size in
    let size_cost =
      if t.atomic_cost then
        size_cost * (100 + costs.Costs.compressed_oops_tax_pct) / 100
      else size_cost
    in
    Ticker.tick tk (costs.Costs.mark_obj + size_cost);
    t.objects_marked <- t.objects_marked + 1;
    let nf = Gobj.num_fields o in
    for i = 0 to nf - 1 do
      Ticker.tick tk costs.Costs.mark_ref;
      if t.atomic_cost then Ticker.tick tk costs.Costs.mark_atomic;
      let child = Gobj.get_field o i in
      if child != Gobj.null then begin
        let child' = Gobj.resolve child in
        if t.remap && child' != child then begin
          Ticker.tick tk costs.Costs.heal;
          Gobj.set_field o i child'
        end;
        (match t.crdt with
        | Some crdt when child'.region <> o.region ->
            Ticker.tick tk costs.Costs.crdt_record;
            Crdt.record crdt ~card:(Heap_impl.card_of_field heap o i)
              ~rid:child'.region
        | _ -> ());
        if in_scope t child' && mark t heap child' then
          Util.Vec.push t.stack child'
      end
    done

  (* Gray an object discovered from roots or SATB. *)
  let gray t (o : Gobj.t) =
    let o = Gobj.resolve o in
    if in_scope t o && mark t t.rt.RtM.heap o then
      Util.Vec.push t.stack o

  let drain t tk =
    (* Allocation-free: [Vec.pop] boxes an option per element, pure
       garbage in the hottest GC loop.  Control flow is unchanged — in
       particular the periodic flush check still runs after {e every}
       iteration, including the terminal empty one (flushing ticks
       virtual time, so moving it would shift the schedule). *)
    let continue_ = ref true in
    while !continue_ do
      if not (Util.Vec.is_empty t.stack) then
        visit t tk (Util.Vec.pop_last t.stack)
      else if not (Util.Vec.is_empty t.satb) then
        gray t (Util.Vec.pop_last t.satb)
      else continue_ := false;
      (* Yield periodically so concurrent marking really is concurrent. *)
      if Util.Vec.length t.stack land 255 = 0 then Ticker.flush tk
    done

  (** Concurrent marking body for [n] workers; the caller wraps it between
      an init-mark and a final-mark STW. *)
  let concurrent_mark t ~workers =
    run_workers t.rt ~n:workers ~name:"mark" (fun _i tk ->
        drain t tk;
        (* Pick up late SATB entries until the queue stays empty. *)
        let rounds = ref 0 in
        while (not (Util.Vec.is_empty t.satb)) && !rounds < 1000 do
          incr rounds;
          drain t tk
        done)

  (** STW terminal drain (final mark / remark). *)
  let final_drain t tk = drain t tk
end

(** The SATB pre-write barrier of a collector with one concurrent marker:
    while it marks, bill the barrier and enqueue the overwritten value. *)
let satb_store_barrier (m : Marker.t) ~src:_ ~field:_ ~old_v ~new_v:_ =
  if m.Marker.active then begin
    Sim.Engine.tick m.Marker.rt.RtM.costs.Costs.satb_barrier;
    if old_v != Gobj.null then Marker.satb_enqueue m old_v
  end

(* ------------------------------------------------------------------ *)
(* Evacuation.                                                          *)

module Evac = struct
  (** A GC thread's destination buffer: one claimed region per kind.
      [on_copied] fires with each new copy — generational collectors use
      it to re-create old-to-young remembered-set entries for relocated
      holders. *)
  type dest = {
    rt : RtM.t;
    kind : Region.kind;
    mutable current : Region.t option;
    on_copied : Gobj.t -> unit;
  }

  exception Evacuation_failure

  let make_dest ?(on_copied = fun _ -> ()) rt kind =
    { rt; kind; current = None; on_copied }

  let dest_region d ~size =
    let ok r = Region.fits r size in
    match d.current with
    | Some r when ok r -> r
    | _ -> (
        match Heap_impl.claim_region d.rt.RtM.heap d.kind with
        | Some r ->
            d.current <- Some r;
            r
        | None -> raise Evacuation_failure)

  (** The relocation primitive under every copy: append an aged copy of
      [o] at the top of [r], install the forwarding pointer (reported to
      the access hooks as [site]) and bill the copy.  Returns the copy. *)
  let relocate rt tk ~site (r : Region.t) (o : Gobj.t) =
    let heap = rt.RtM.heap in
    let copy =
      Gobj.remake ~uids:heap.Heap_impl.uids o ~age:(Gobj.age o + 1)
        ~region:r.Region.rid ~offset:r.Region.top
    in
    Heap_impl.push_relocated heap r copy;
    Gobj.set_forward_with ~hooks:heap.Heap_impl.hooks ~site o copy;
    Ticker.tick tk (Costs.copy_cost rt.RtM.costs o.Gobj.size);
    copy

  (** Copy [o] to [d], installing the forwarding pointer; returns the new
      copy.  Idempotent: an already-forwarded object returns its copy.
      [racy] plants the check-then-act bug a real CAS install closes
      (sanitizer regression tests only): after seeing the slot empty the
      worker suspends, so a second worker can relocate the same object. *)
  let copy_object ?(racy = false) ?window d (tk : Ticker.t) (o : Gobj.t) =
    if Gobj.is_forwarded o then Gobj.resolve o
    else begin
        if racy then begin
          Ticker.flush tk;
          Sim.Engine.yield ()
        end;
        (match window with
        | Some w ->
            (* Check-then-act window spanning a quantum boundary: the
               slot was seen empty, now burn [w] ns of real work before
               installing.  Unlike [racy]'s yield, this only loses the
               race when the scheduler runs a competing worker inside
               the window. *)
            Ticker.flush tk;
            Sim.Engine.tick w
        | None -> ());
        let r = dest_region d ~size:o.Gobj.size in
        let copy = relocate d.rt tk ~site:"Evac.copy_object" r o in
        d.rt.RtM.heap.Heap_impl.bytes_allocated <-
          d.rt.RtM.heap.Heap_impl.bytes_allocated + o.Gobj.size;
        d.on_copied copy;
        copy
    end

  (** Adaptive tenuring, one policy for every copying young collection:
      an object promotes once its age reaches [tenure_age], or once the
      cycle's survivors exceed a sixteenth of the heap (survivor
      overflow, as in HotSpot). *)
  type tenuring = {
    tenure_age : int;
    survivor_cap : int;
    mutable survivor_bytes : int;  (** copied-to-young this cycle *)
  }

  let tenuring rt ~tenure_age =
    {
      tenure_age;
      survivor_cap = rt.RtM.heap.Heap_impl.cfg.heap_bytes / 16;
      survivor_bytes = 0;
    }

  let promotes t (o : Gobj.t) =
    Gobj.age o >= t.tenure_age || t.survivor_bytes > t.survivor_cap

  (** Count [o]'s copy as a survivor of this cycle. *)
  let survived t (o : Gobj.t) = t.survivor_bytes <- t.survivor_bytes + o.Gobj.size

  (** Report one finished evacuation batch (a region's live set, or a
      trace-and-copy cycle's total) to the tracer. *)
  let trace_batch rt ~objects ~bytes =
    if objects > 0 && RtM.tracing rt then
      RtM.trace rt (Runtime.Tracepoint.Evac_batch { objects; bytes })

  (** Liveness per the last full mark: marked, or in a region allocated
      since the mark began. *)
  let live_after_mark heap (region : Region.t) (o : Gobj.t) =
    Heap_impl.is_marked heap o
    || region.Region.alloc_epoch >= heap.Heap_impl.mark_epoch

  (** Copy every unforwarded [live] object of [region] to [dest o], then
      report the region as one batch.  {!Evacuation_failure} aborts the
      region before its batch is reported; the copies made so far stay. *)
  let evacuate_region rt tk ~live ~dest (region : Region.t) =
    let objects = ref 0 and bytes = ref 0 in
    Util.Vec.iter
      (fun (o : Gobj.t) ->
        if (not (Gobj.is_forwarded o)) && live o then begin
          ignore (copy_object (dest o) tk o);
          incr objects;
          bytes := !bytes + o.Gobj.size
        end)
      region.Region.objects;
    trace_batch rt ~objects:!objects ~bytes:!bytes
end

(** Shared work claiming.  [n] GC workers take [items] one at a time in
    index order; [worker tk] runs once per worker and returns the
    per-item function, so per-worker state (a destination buffer) lives
    in its closure.  Claiming stops when the items run out, when
    [stop ()] holds, or once an item raises {!Evac.Evacuation_failure};
    a worker inside an item finishes it.  Returns the remainder — the
    unclaimed tail in descending index order, then the failed items,
    latest failure first, the order Shenandoah's degenerated pause
    consumes it in — and whether an item failed. *)
let claim rt ~n ~name ~stop items worker =
  let next = ref 0 and failed = ref false and rest = ref [] in
  run_workers rt ~n ~name (fun _ tk ->
      let f = worker tk in
      while not (stop () || !failed || !next >= Array.length items) do
        let item = items.(!next) in
        incr next;
        try f item
        with Evac.Evacuation_failure ->
          failed := true;
          rest := item :: !rest
      done);
  for i = !next to Array.length items - 1 do
    rest := items.(i) :: !rest
  done;
  (!rest, !failed)

(* ------------------------------------------------------------------ *)
(* Reference updating.                                                  *)

(** Fix all stale references inside the live objects of [region]; used by
    Shenandoah's update-refs phase which walks the whole heap. *)
let update_refs_in_region rt (tk : Ticker.t) (region : Region.t) =
  let heap = rt.RtM.heap in
  let costs = rt.RtM.costs in
  Util.Vec.iter
    (fun (o : Gobj.t) ->
      if Evac.live_after_mark heap region o then begin
        Ticker.tick tk
          (costs.Costs.mark_obj + Costs.mark_size_cost costs o.Gobj.size);
        for i = 0 to Gobj.num_fields o - 1 do
          Ticker.tick tk costs.Costs.mark_ref;
          let child = Gobj.get_field o i in
          if Gobj.is_forwarded child then begin
            Ticker.tick tk costs.Costs.heal;
            Gobj.set_field o i (Gobj.resolve child)
          end
        done
      end)
    region.Region.objects

(** Scan one card, fixing stale references in the slots it covers; the
    remembered-set consumers (G1 mixed evac, Jade group rounds). *)
let update_refs_in_card rt (tk : Ticker.t) card =
  let heap = rt.RtM.heap in
  let costs = rt.RtM.costs in
  Ticker.tick tk costs.Costs.card_scan;
  Heap_impl.scan_card heap card ~f:(fun o i ->
      let child = Gobj.get_field o i in
      if Gobj.is_forwarded child then begin
        Ticker.tick tk costs.Costs.heal;
        Gobj.set_field o i (Gobj.resolve child)
      end)

(* ------------------------------------------------------------------ *)
(* Paranoid validation (SIM_PARANOID=1): after a collection, walk the
   roots on the host (no virtual cost) and fail fast if any reachable
   object was freed, printing the path.  Test/debug aid only.           *)

let paranoid =
  match Sys.getenv_opt "SIM_PARANOID" with Some "1" -> true | _ -> false
  [@@gcsim.allow "env-gated validation flag (SIM_PARANOID), read once at module init"]

exception Lost_object of string

let check_reachability rt ~where =
  if paranoid then begin
    let heap = rt.RtM.heap in
    let seen = Hashtbl.create 4096 in
    let describe (o : Gobj.t) =
      let r = Heap_impl.region heap o.Gobj.region in
      Printf.sprintf "#%d(r%d %s%s in_cset=%b age=%d mark=%d ymark=%d fwd=%b)"
        o.Gobj.id o.Gobj.region
        (Region.kind_to_string r.Region.kind)
        (if Gobj.is_freed o then " FREED" else "")
        r.Region.in_cset (Gobj.age o) (Gobj.mark o) (Gobj.ymark o)
        (Gobj.is_forwarded o)
    in
    let rec visit path (o : Gobj.t) =
      let o = Gobj.resolve o in
      (* Key on uid, not the record: records are cyclic through the null
         knot, so structural hashing of the value itself is off-limits. *)
      if not (Hashtbl.mem seen o.Gobj.uid) then begin
        Hashtbl.replace seen o.Gobj.uid ();
        if Gobj.is_freed o then
          raise
            (Lost_object
               (Printf.sprintf "%s: lost %s path=[%s]; lost-region hist: %s; parent-region hist: %s"
                  where (describe o)
                  (String.concat " -> " (List.rev_map describe path))
                  (Heap_impl.dump_region_history o.Gobj.region)
                  (match path with
                  | p :: _ -> Heap_impl.dump_region_history p.Gobj.region
                  | [] -> "-")))
        ;
        Gobj.iter_fields (fun _ c -> visit (o :: path) c) o
      end
    in
    RtM.iter_roots rt (fun o -> if o != Gobj.null then visit [] o)
  end

(** Release humongous regions whose object died per the just-completed
    mark (G1's "eager reclaim"; every collector needs it because
    humongous regions are excluded from collection sets).  Returns the
    count released. *)
let reclaim_dead_humongous rt (tk : Ticker.t) =
  let heap = rt.RtM.heap in
  let n = ref 0 in
  Array.iter
    (fun (r : Region.t) ->
      if
        (not (Region.is_free r))
        && r.Region.humongous
        && r.Region.alloc_epoch < heap.Heap_impl.mark_epoch
        && r.Region.live_bytes = 0
      then begin
        Heap_impl.release_region heap r;
        Ticker.tick tk rt.RtM.costs.Costs.region_reset;
        incr n
      end)
    heap.Heap_impl.regions;
  if !n > 0 then RtM.notify_memory_freed rt;
  !n

(* ------------------------------------------------------------------ *)
(* Full STW compaction: everyone's last resort.                         *)

(** Stop the world, mark everything reachable, compact, update every
    reference and release the emptied regions.  Returns reclaimed
    regions.  [on_live_ref holder i child] is called for every surviving
    cross-object reference during the update sweep, letting collectors
    rebuild their remembered sets (every pre-compaction entry is stale
    once objects move). *)
let debug_full =
  match Sys.getenv_opt "SIM_DEBUG" with Some "1" -> true | _ -> false
  [@@gcsim.allow "env-gated debug flag (SIM_DEBUG), read once at module init"]

let stw_full_compact ?(on_live_ref = fun _ _ _ -> ()) rt =
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  (* Phase fires carry a suffixed collector name: collector-specific
     verifier checks (e.g. Jade's CRDT agreement, reset before the
     compaction) must not run against this embedded full-heap mark. *)
  let vname = rt.RtM.collector.RtM.cname ^ "+full-compact" in
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Full_gc (fun () ->
      RtM.retire_all_tlabs rt;
      (* Full GC "sufficiently utilizes all available CPU resources"
         (§4.3 and all baselines): parallelize over every core. *)
      let tk = Ticker.create ~workers:(Sim.Engine.cores rt.RtM.engine) () in
      (* Mark. *)
      let _epoch = Heap_impl.begin_mark heap in
      RtM.fire_phase ~collector:vname rt Runtime.Vhook.Mark_start;
      let marker = Marker.create rt in
      marker.Marker.active <- true;
      scan_roots rt tk (Marker.gray marker);
      Marker.final_drain marker tk;
      marker.Marker.active <- false;
      Heap_impl.end_mark heap;
      RtM.fire_phase ~collector:vname rt Runtime.Vhook.Mark_end;
      (* True sliding compaction: needs zero headroom.  Victims are
         processed in ascending-liveness order; each live object goes to
         the tail of an earlier, already-compacted region when one has
         space, otherwise the victim itself is compacted in place and
         joins the destination pool.  Fully drained victims are released
         immediately. *)
      let victims = ref [] in
      Array.iter
        (fun (r : Region.t) ->
          if
            (not (Region.is_free r))
            && (not r.Region.humongous)
            && Region.live_ratio r < 0.95
          then victims := r :: !victims)
        heap.Heap_impl.regions;
      let victims =
        List.sort
          (fun (a : Region.t) b -> compare a.Region.live_bytes b.Region.live_bytes)
          !victims
      in
      let costs = rt.RtM.costs in
      let dest_pool : Region.t Queue.t = Queue.create () in
      let current_dest = ref None in
      let place_elsewhere (o : Gobj.t) =
        (* Find a compacted region with room for [o]. *)
        let rec pick () =
          match !current_dest with
          | Some (d : Region.t) when Region.fits d o.Gobj.size -> Some d
          | _ ->
              if not (Queue.is_empty dest_pool) then begin
                current_dest := Some (Queue.pop dest_pool);
                pick ()
              end
              else (
                (* Previously released victims are claimable too. *)
                match Heap_impl.claim_region heap Region.Old with
                | Some d ->
                    current_dest := Some d;
                    Some d
                | None -> None)
        in
        match pick () with
        | None -> false
        | Some d ->
            ignore (Evac.relocate rt tk ~site:"full_compact.place_elsewhere" d o);
            true
      in
      let reclaimed = ref 0 in
      List.iter
        (fun (r : Region.t) ->
          (* Partition the live objects of [r]. *)
          let live = ref [] in
          Util.Vec.iter
            (fun (o : Gobj.t) ->
              if (not (Gobj.is_forwarded o)) && Heap_impl.is_marked heap o
              then live := o :: !live)
            r.Region.objects;
          let live = List.rev !live in
          let stay =
            List.filter (fun o -> not (place_elsewhere o)) live
          in
          if stay = [] then begin
            Heap_impl.release_region heap r;
            Ticker.tick tk costs.Costs.region_reset;
            incr reclaimed
          end
          else begin
            (* In-place slide: rebuild the region with only its live
               objects; it then joins the destination pool. *)
            Heap_impl.begin_region_rebuild heap r;
            (* Region.clear_objects, not a raw Vec.clear: the in-place
               slide re-pushes survivors, and the block-offset table must
               be invalidated with the object vector or later card scans
               would start from indices of the pre-slide layout. *)
            Region.clear_objects r;
            List.iter
              (fun o ->
                ignore (Evac.relocate rt tk ~site:"full_compact.slide_in_place" r o))
              stay;
            r.Region.live_bytes <- r.Region.top;
            Queue.push r dest_pool
          end)
        victims;
      ignore (reclaim_dead_humongous rt tk);
      (* Dense young regions were skipped by compaction (nothing to gain
         from copying them); promote them in place — their objects have
         survived a full collection and belong to the old generation.
         Without this, a dense young region would be bounce-copied by
         every subsequent young collection. *)
      Array.iter
        (fun (r : Region.t) ->
          if r.Region.kind = Region.Young then begin
            r.Region.kind <- Region.Old;
            Heap_impl.record_region_event r.Region.rid "relabel:old"
          end)
        heap.Heap_impl.regions;
      (* Update all references, then roots. *)
      Array.iter
        (fun (r : Region.t) ->
          if not (Region.is_free r) then begin
            update_refs_in_region rt tk r;
            Util.Vec.iter
              (fun (o : Gobj.t) ->
                if Heap_impl.is_marked heap o && not (Gobj.is_forwarded o) then
                  Gobj.iter_fields (fun i child -> on_live_ref o i child) o)
              r.Region.objects
          end)
        heap.Heap_impl.regions;
      RtM.update_roots rt;
      let _, cleared = Heap_impl.process_weak_refs_marked heap in
      Ticker.tick tk (cleared * rt.RtM.costs.Costs.weak_ref_process);
      Ticker.flush tk;
      check_reachability rt ~where:"full_compact";
      Metrics.add metrics "full_gc_count" 1;
      ((if debug_full then begin
         let live = ref 0 and used = ref 0 in
         Array.iter
           (fun (r : Region.t) ->
             if not (Region.is_free r) then begin
               live := !live + r.Region.live_bytes;
               used := !used + r.Region.top
             end)
           heap.Heap_impl.regions;
         Printf.eprintf
           "[full] %.3fs reclaimed=%d free=%d live=%s used=%s victims_kept=%d\n%!"
           (float_of_int (Sim.Engine.now rt.RtM.engine) /. 1e9)
           !reclaimed
           (Heap_impl.free_regions heap)
           (Util.Units.pp_bytes !live) (Util.Units.pp_bytes !used)
           (Array.fold_left
              (fun a (r : Region.t) ->
                if (not (Region.is_free r)) && Region.live_ratio r >= 0.95 then
                  a + 1
                else a)
              0 heap.Heap_impl.regions)
       end)
      [@gcsim.allow "debug summary on stderr, dead unless SIM_DEBUG=1"]);
      RtM.notify_memory_freed rt;
      RtM.fire_phase ~collector:vname rt Runtime.Vhook.Evac_end;
      RtM.fire_phase ~collector:vname rt Runtime.Vhook.Cycle_end;
      !reclaimed)

(** The free-region floor below which a collector's progress counts as
    failed: the escalation and out-of-memory threshold. *)
let low_watermark heap = max 2 (Heap_impl.num_regions heap / 50)

(** Everyone's last resort: compact the whole heap, then declare the run
    out of memory if even that leaves the heap below {!low_watermark}
    (bounding the simulation the way Table 4 reports OOMs).
    [on_live_ref] is passed through to {!stw_full_compact}. *)
let full_gc_or_oom ?on_live_ref rt =
  let heap = rt.RtM.heap in
  ignore (stw_full_compact ?on_live_ref rt);
  if Heap_impl.free_regions heap < low_watermark heap then begin
    rt.RtM.oom <- true;
    RtM.notify_memory_freed rt
  end
