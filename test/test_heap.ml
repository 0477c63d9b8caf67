(* Tests for the heap substrate: regions, objects, cards, marking, weak
   references, CRDT, remembered sets, forwarding tables. *)

open Heap

let kib = Util.Units.kib
let mib = Util.Units.mib

let mk_heap ?(heap_bytes = 4 * mib) ?(region_bytes = 256 * kib) () =
  Heap_impl.create (Heap_impl.config ~heap_bytes ~region_bytes ())

let claim_exn heap kind =
  match Heap_impl.claim_region heap kind with
  | Some r -> r
  | None -> Alcotest.fail "no free region"

let alloc heap r ~size ~nrefs = Heap_impl.alloc_in heap r ~size ~nrefs ()

(* ------------------------------------------------------------------ *)

let test_config_validation () =
  Alcotest.check_raises "heap multiple of region"
    (Invalid_argument "Heap.config: heap_bytes must be a multiple of region_bytes")
    (fun () ->
      ignore (Heap_impl.config ~heap_bytes:mib ~region_bytes:(384 * kib) ()));
  Alcotest.check_raises "region multiple of card"
    (Invalid_argument "Heap.config: region_bytes must be a multiple of card_bytes")
    (fun () ->
      ignore
        (Heap_impl.config ~heap_bytes:(1000 * 1024) ~region_bytes:1000
           ~card_bytes:512 ()))

let test_claim_release () =
  let heap = mk_heap () in
  let n = Heap_impl.num_regions heap in
  Alcotest.(check int) "all free initially" n (Heap_impl.free_regions heap);
  let r = claim_exn heap Region.Young in
  Alcotest.(check int) "one claimed" (n - 1) (Heap_impl.free_regions heap);
  Alcotest.(check bool) "kind set" true (r.Region.kind = Region.Young);
  let o = alloc heap r ~size:64 ~nrefs:2 in
  Alcotest.(check int) "bump" 64 r.Region.top;
  Heap_impl.release_region heap r;
  Alcotest.(check int) "released" n (Heap_impl.free_regions heap);
  Alcotest.(check bool) "object freed flag" true (Gobj.is_freed o);
  Alcotest.(check bool) "region reset" true (Region.is_free r && r.Region.top = 0)

(* The incremental used-bytes counter must track the region fold it
   replaced through every path that moves bytes: fresh allocation,
   evacuation-style relocation, in-place rebuild, and release. *)
let test_used_bytes_incremental () =
  let heap = mk_heap () in
  let folded () =
    Array.fold_left
      (fun acc (r : Region.t) -> acc + r.Region.top)
      0 heap.Heap_impl.regions
  in
  let check_consistent label =
    Alcotest.(check int) (label ^ ": counter matches fold") (folded ())
      (Heap_impl.used_bytes heap)
  in
  Alcotest.(check int) "fresh heap unused" 0 (Heap_impl.used_bytes heap);
  let r1 = claim_exn heap Region.Young in
  let o1 = alloc heap r1 ~size:64 ~nrefs:1 in
  let _o2 = alloc heap r1 ~size:128 ~nrefs:0 in
  check_consistent "after allocs";
  (* Relocate o1 into another region, as evacuation does. *)
  let r2 = claim_exn heap Region.Old in
  Heap_impl.push_relocated heap r2 o1;
  check_consistent "after relocation";
  (* In-place rebuild: empty r1 and re-push one survivor. *)
  Heap_impl.begin_region_rebuild heap r1;
  Util.Vec.clear r1.Region.objects;
  r1.Region.top <- 0;
  Heap_impl.push_relocated heap r1 _o2;
  check_consistent "after rebuild";
  Heap_impl.release_region heap r1;
  check_consistent "after release";
  Heap_impl.release_region heap r2;
  Alcotest.(check int) "all released" 0 (Heap_impl.used_bytes heap)

let test_exhaustion () =
  let heap = mk_heap () in
  let n = Heap_impl.num_regions heap in
  for _ = 1 to n do
    ignore (claim_exn heap Region.Old)
  done;
  Alcotest.(check bool) "claim fails when empty" true
    (Heap_impl.claim_region heap Region.Old = None)

let test_object_size () =
  (* header 16 + 2 slots of 8 + payload rounded to 8. *)
  Alcotest.(check int) "size arithmetic" (16 + 16 + 24)
    (Heap_impl.object_size ~nrefs:2 ~data_bytes:20)

let test_object_offsets_sorted () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Young in
  let sizes = [ 64; 128; 32; 256; 48 ] in
  let objs = List.map (fun s -> alloc heap r ~size:s ~nrefs:0) sizes in
  let offsets = List.map Gobj.offset objs in
  Alcotest.(check (list int)) "bump offsets" [ 0; 64; 192; 224; 480 ] offsets

let test_forwarding_resolve () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let a = alloc heap r ~size:64 ~nrefs:0 in
  let b = alloc heap r ~size:64 ~nrefs:0 in
  let c = alloc heap r ~size:64 ~nrefs:0 in
  Gobj.set_forward a b;
  Gobj.set_forward b c;
  Alcotest.(check bool) "resolve follows chain" true (Gobj.resolve a == c);
  Alcotest.(check int) "depth" 2 (Gobj.forward_depth a);
  Alcotest.(check bool) "unforwarded resolves to self" true (Gobj.resolve c == c)

let test_card_math () =
  let heap = mk_heap ~region_bytes:(256 * kib) () in
  let cards_per_region = Heap_impl.cards_per_region heap in
  Alcotest.(check int) "cards per region" 512 cards_per_region;
  let card = Heap_impl.card_of heap ~rid:3 ~offset:1024 in
  Alcotest.(check int) "card index" ((3 * 512) + 2) card;
  Alcotest.(check int) "card -> region" 3 (Heap_impl.card_to_region heap card);
  Alcotest.(check int) "card -> offset" 1024 (Heap_impl.card_to_offset heap card)

let test_card_of_field () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  (* Push a filler so the test object starts at offset 500 (card 0 ends
     at 512; slot placement must pick the right card). *)
  ignore (alloc heap r ~size:500 ~nrefs:0);
  let o = alloc heap r ~size:64 ~nrefs:4 in
  (* field 0 at offset 500+16 = 516 -> card 1. *)
  Alcotest.(check int) "field card"
    ((r.Region.rid * Heap_impl.cards_per_region heap) + 1)
    (Heap_impl.card_of_field heap o 0)

let test_scan_card_finds_slots () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let target = alloc heap r ~size:32 ~nrefs:0 in
  let holder = alloc heap r ~size:64 ~nrefs:3 in
  Gobj.set_field holder 1 target;
  let card = Heap_impl.card_of_field heap holder 1 in
  let hits = ref [] in
  Heap_impl.scan_card heap card ~f:(fun o i ->
      if Gobj.get_field o i != Gobj.null then hits := (o.Gobj.id, i) :: !hits);
  Alcotest.(check (list (pair int int)))
    "found the populated slot"
    [ (holder.Gobj.id, 1) ]
    !hits

let test_dirty_cards () =
  let heap = mk_heap () in
  Heap_impl.dirty_card heap 7;
  Heap_impl.dirty_card heap 9;
  Alcotest.(check bool) "dirty" true (Heap_impl.card_is_dirty heap 7);
  let acc = ref [] in
  Heap_impl.iter_dirty_cards (fun c -> acc := c :: !acc) heap;
  Alcotest.(check (list int)) "iter" [ 9; 7 ] (List.sort (fun a b -> compare b a) !acc);
  Heap_impl.clean_card heap 7;
  Alcotest.(check bool) "cleaned" false (Heap_impl.card_is_dirty heap 7)

let test_release_clears_own_cards () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let o = alloc heap r ~size:64 ~nrefs:2 in
  let card = Heap_impl.card_of_field heap o 0 in
  Heap_impl.dirty_card heap card;
  Heap_impl.release_region heap r;
  Alcotest.(check bool) "card cleaned on release" false
    (Heap_impl.card_is_dirty heap card)

(* Batching regression: release_region clears its card stripe word-wise,
   but a detector installed while the heap is live — note: AFTER heap
   creation, so this also pins the cached-hook contract — must still see
   the same event sequence the per-card loop produced: the region's
   Release edge first, then one Atomic clean event per card of the
   stripe, all before the next claimer's Acquire. *)
let test_release_event_order_under_detector () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  ignore (alloc heap r ~size:64 ~nrefs:2);
  (* Exhaust the FIFO free list so the next claim after the release can
     only return [r] itself — making the Release->Acquire pair below an
     edge on one region. *)
  while Heap_impl.free_regions heap > 0 do
    ignore (claim_exn heap Region.Old)
  done;
  let events = ref [] in
  Access.set_hook
    (Some (fun op res ~key ~site:_ -> events := (op, res, key) :: !events));
  Fun.protect ~finally:Access.reset (fun () ->
      let rid = r.Region.rid in
      Heap_impl.release_region heap r;
      let r2 = claim_exn heap Region.Old in
      Alcotest.(check int) "same region recycled" rid r2.Region.rid;
      let seq = List.rev !events in
      let cpr = Heap_impl.cards_per_region heap in
      let c0 = rid * cpr in
      let release_pos = ref (-1) and acquire_pos = ref (-1) in
      let cleans = ref [] in
      List.iteri
        (fun i (op, res, key) ->
          match (op, res) with
          | Access.Release, Access.Region_ctl when key = rid ->
              release_pos := i
          | Access.Acquire, Access.Region_ctl when key = rid ->
              acquire_pos := i
          | Access.Atomic, Access.Card -> cleans := (i, key) :: !cleans
          | _ -> ())
        seq;
      let cleans = List.rev !cleans in
      Alcotest.(check bool) "release edge seen" true (!release_pos >= 0);
      Alcotest.(check bool) "acquire edge seen" true (!acquire_pos >= 0);
      Alcotest.(check bool) "release before acquire" true
        (!release_pos < !acquire_pos);
      Alcotest.(check (list int)) "one clean event per card, in order"
        (List.init cpr (fun i -> c0 + i))
        (List.map snd cleans);
      Alcotest.(check bool) "cleans between release and acquire" true
        (List.for_all
           (fun (i, _) -> i > !release_pos && i < !acquire_pos)
           cleans))

(* The arithmetic field-window scan plus the block-offset table must
   visit exactly the (object, field) pairs — in exactly the order — that
   the naive "every object, every field, range-check the slot offset"
   reference does, over random heaps: zero-field objects, objects
   spanning card boundaries, near-region-sized (humongous) objects, and
   freshly reset-and-reused regions. *)
let scan_card_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"scan_card/BOT matches naive all-fields reference"
       QCheck2.Gen.(
         pair
           (list_size (int_range 0 40)
              (pair (int_range 0 12) (int_range 0 600)))
           (list_size (int_range 0 40)
              (pair (int_range 0 12) (int_range 0 600))))
       (fun (specs1, specs2) ->
         let heap = mk_heap ~heap_bytes:(64 * kib) ~region_bytes:(8 * kib) () in
         let fill r specs =
           List.iter
             (fun (nrefs, data_bytes) ->
               (* An occasional near-region-sized object: spans most cards. *)
               let data_bytes =
                 if data_bytes >= 590 then 6 * kib else data_bytes
               in
               let size = Heap_impl.object_size ~nrefs ~data_bytes in
               if Region.fits r size then
                 ignore (alloc heap r ~size ~nrefs))
             specs
         in
         let check_region (r : Region.t) =
           let cpr = Heap_impl.cards_per_region heap in
           let card_bytes = heap.Heap_impl.cfg.Heap_impl.card_bytes in
           let ok = ref true in
           for local = 0 to cpr - 1 do
             let card = (r.Region.rid * cpr) + local in
             let off = local * card_bytes in
             let got = ref [] in
             Heap_impl.scan_card heap card ~f:(fun o i ->
                 got := (o.Gobj.uid, i) :: !got);
             let expected = ref [] in
             Util.Vec.iter
               (fun (o : Gobj.t) ->
                 for i = 0 to Gobj.num_fields o - 1 do
                   let foff = Gobj.field_offset o i in
                   if foff >= off && foff < off + card_bytes then
                     expected := (o.Gobj.uid, i) :: !expected
                 done)
               r.Region.objects;
             if !got <> !expected then ok := false
           done;
           !ok
         in
         let r = claim_exn heap Region.Old in
         fill r specs1;
         let pass1 = check_region r in
         (* Release and re-claim: the BOT must be invalidated with the
            region, and a freshly reset region must scan correctly. *)
         Heap_impl.release_region heap r;
         let r2 = claim_exn heap Region.Old in
         let empty_ok = check_region r2 in
         fill r2 specs2;
         pass1 && empty_ok && check_region r2))

(* Region.first_object_at (BOT fast path + binary-search fallback) vs a
   naive linear scan, at arbitrary byte offsets — not just the
   card-aligned ones scan_card produces. *)
let first_object_at_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"first_object_at matches naive linear scan"
       QCheck2.Gen.(
         list_size (int_range 0 30) (pair (int_range 0 6) (int_range 0 400)))
       (fun specs ->
         let heap = mk_heap ~heap_bytes:(64 * kib) ~region_bytes:(8 * kib) () in
         let r = claim_exn heap Region.Old in
         List.iter
           (fun (nrefs, data_bytes) ->
             let size = Heap_impl.object_size ~nrefs ~data_bytes in
             if Region.fits r size then ignore (alloc heap r ~size ~nrefs))
           specs;
         let n = Util.Vec.length r.Region.objects in
         let naive off =
           let rec go i =
             if i >= n then n
             else
               let o = Util.Vec.get r.Region.objects i in
               if Gobj.offset o + o.Gobj.size > off then i else go (i + 1)
           in
           go 0
         in
         let ok = ref true in
         let step = max 1 (r.Region.size / 512) in
         let off = ref 0 in
         while !off <= r.Region.size do
           if Region.first_object_at r ~off:!off <> naive !off then ok := false;
           off := !off + step
         done;
         !ok))

(* ------------------------------------------------------------------ *)
(* Marking *)

let test_mark_accounting () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let a = alloc heap r ~size:64 ~nrefs:0 in
  let b = alloc heap r ~size:128 ~nrefs:0 in
  ignore (alloc heap r ~size:32 ~nrefs:0);
  ignore (Heap_impl.begin_mark heap);
  (* Make the region pre-date the snapshot. *)
  r.Region.alloc_epoch <- heap.Heap_impl.mark_epoch - 1;
  Alcotest.(check bool) "first mark" true (Heap_impl.mark_object heap a);
  Alcotest.(check bool) "second mark is no-op" false (Heap_impl.mark_object heap a);
  ignore (Heap_impl.mark_object heap b);
  Heap_impl.end_mark heap;
  Alcotest.(check int) "live bytes published" 192 r.Region.live_bytes;
  Alcotest.(check int) "garbage (capacity-based)" (r.Region.size - 192)
    (Region.garbage_bytes r);
  Alcotest.(check bool) "livemap set" true (Region.livemap_is_marked r a)

let test_mark_scope () =
  let heap = mk_heap () in
  let ry = claim_exn heap Region.Young in
  let ro = claim_exn heap Region.Old in
  let y = alloc heap ry ~size:64 ~nrefs:0 in
  ignore (alloc heap ro ~size:64 ~nrefs:0);
  ro.Region.live_bytes <- 999;
  ignore
    (Heap_impl.begin_mark ~scope:(fun r -> r.Region.kind = Region.Young) heap);
  ry.Region.alloc_epoch <- heap.Heap_impl.mark_epoch - 1;
  ignore (Heap_impl.mark_object heap y);
  Heap_impl.end_mark ~scope:(fun r -> r.Region.kind = Region.Young) heap;
  Alcotest.(check int) "young published" 64 ry.Region.live_bytes;
  Alcotest.(check int) "old untouched" 999 ro.Region.live_bytes

let test_born_after_snapshot_fully_live () =
  let heap = mk_heap () in
  ignore (Heap_impl.begin_mark heap);
  let r = claim_exn heap Region.Old in
  ignore (alloc heap r ~size:100 ~nrefs:0);
  Heap_impl.end_mark heap;
  Alcotest.(check int) "born-after region fully live" r.Region.top
    r.Region.live_bytes

let test_allocate_live_during_mark () =
  let heap = mk_heap () in
  ignore (Heap_impl.begin_mark heap);
  let r = claim_exn heap Region.Old in
  let o = alloc heap r ~size:64 ~nrefs:0 in
  Alcotest.(check bool) "born marked" true (Heap_impl.is_marked heap o);
  Heap_impl.end_mark heap;
  let o2 = alloc heap r ~size:64 ~nrefs:0 in
  Alcotest.(check bool) "born unmarked after mark" false
    (Heap_impl.is_marked heap o2)

(* ------------------------------------------------------------------ *)
(* Weak references *)

let test_weak_refs_marked_judge () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let live = alloc heap r ~size:64 ~nrefs:0 in
  let dead = alloc heap r ~size:64 ~nrefs:0 in
  let fired = ref 0 in
  Heap_impl.register_weak heap live ~callback:(Some (fun () -> incr fired));
  Heap_impl.register_weak heap dead ~callback:(Some (fun () -> incr fired));
  ignore (Heap_impl.begin_mark heap);
  r.Region.alloc_epoch <- heap.Heap_impl.mark_epoch - 1;
  ignore (Heap_impl.mark_object heap live);
  Heap_impl.end_mark heap;
  let survivors, cleared = Heap_impl.process_weak_refs_marked heap in
  Alcotest.(check int) "one survivor" 1 survivors;
  Alcotest.(check int) "one cleared" 1 cleared;
  Alcotest.(check int) "callback fired once" 1 !fired

let test_weak_refs_freed_judge () =
  let heap = mk_heap () in
  let r1 = claim_exn heap Region.Young in
  let r2 = claim_exn heap Region.Young in
  let kept = alloc heap r1 ~size:64 ~nrefs:0 in
  let freed = alloc heap r2 ~size:64 ~nrefs:0 in
  ignore freed;
  Heap_impl.register_weak heap kept ~callback:None;
  Heap_impl.register_weak heap freed ~callback:None;
  Heap_impl.release_region heap r2;
  let survivors, cleared = Heap_impl.process_weak_refs_freed_only heap in
  Alcotest.(check int) "survivor" 1 survivors;
  Alcotest.(check int) "cleared" 1 cleared

let test_weak_follows_forwarding () =
  let heap = mk_heap () in
  let r1 = claim_exn heap Region.Young in
  let r2 = claim_exn heap Region.Old in
  let old_copy = alloc heap r1 ~size:64 ~nrefs:0 in
  let new_copy = alloc heap r2 ~size:64 ~nrefs:0 in
  Gobj.set_forward old_copy new_copy;
  Heap_impl.register_weak heap old_copy ~callback:None;
  Heap_impl.release_region heap r1;
  (* The referent moved before its region was freed: it survives. *)
  let survivors, cleared = Heap_impl.process_weak_refs_freed_only heap in
  Alcotest.(check int) "survivor via forwarding" 1 survivors;
  Alcotest.(check int) "none cleared" 0 cleared

(* ------------------------------------------------------------------ *)
(* CRDT *)

let test_crdt_basic () =
  let c = Crdt.create ~total_cards:64 in
  Alcotest.(check bool) "empty" true (Crdt.get c 5 = Crdt.Empty);
  Crdt.record c ~card:5 ~rid:10;
  Alcotest.(check bool) "one" true (Crdt.get c 5 = Crdt.One 10);
  Crdt.record c ~card:5 ~rid:10;
  Alcotest.(check bool) "dedup" true (Crdt.get c 5 = Crdt.One 10);
  Crdt.record c ~card:5 ~rid:20;
  Alcotest.(check bool) "two" true (Crdt.get c 5 = Crdt.Two (10, 20));
  Crdt.record c ~card:5 ~rid:20;
  Alcotest.(check bool) "dedup second" true (Crdt.get c 5 = Crdt.Two (10, 20));
  Crdt.record c ~card:5 ~rid:30;
  Alcotest.(check bool) "overflow on third" true (Crdt.get c 5 = Crdt.Overflow);
  Crdt.record c ~card:5 ~rid:40;
  Alcotest.(check bool) "overflow sticky" true (Crdt.get c 5 = Crdt.Overflow);
  Crdt.reset c;
  Alcotest.(check bool) "reset" true (Crdt.get c 5 = Crdt.Empty)

let test_crdt_rid_zero_and_max () =
  let c = Crdt.create ~total_cards:4 in
  Crdt.record c ~card:0 ~rid:0;
  Alcotest.(check bool) "rid 0 encodes" true (Crdt.get c 0 = Crdt.One 0);
  Crdt.record c ~card:0 ~rid:Crdt.max_region_id;
  Alcotest.(check bool) "max rid encodes" true
    (Crdt.get c 0 = Crdt.Two (0, Crdt.max_region_id));
  Alcotest.check_raises "rid out of range" (Invalid_argument "Crdt.record: rid")
    (fun () -> Crdt.record c ~card:1 ~rid:(Crdt.max_region_id + 1))

let crdt_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"crdt matches a set model"
       QCheck2.Gen.(list (int_range 0 5))
       (fun rids ->
         let c = Crdt.create ~total_cards:1 in
         List.iter (fun rid -> Crdt.record c ~card:0 ~rid) rids;
         let distinct = List.sort_uniq compare rids in
         match Crdt.get c 0 with
         | Crdt.Empty -> distinct = []
         | Crdt.One r -> distinct = [ r ]
         | Crdt.Two (a, b) ->
             List.length distinct = 2
             && List.mem a distinct && List.mem b distinct && a <> b
         | Crdt.Overflow -> List.length distinct >= 3))

let test_crdt_memory_size () =
  let c = Crdt.create ~total_cards:1000 in
  Alcotest.(check int) "4 bytes per card" 4000 (Crdt.byte_size c)

(* ------------------------------------------------------------------ *)
(* Remsets and forwarding tables *)

let test_remset () =
  let rs = Remset.create ~name:"t" ~total_cards:128 in
  Alcotest.(check bool) "new add" true (Remset.add rs 10);
  Alcotest.(check bool) "dup add" false (Remset.add rs 10);
  Alcotest.(check bool) "mem" true (Remset.mem rs 10);
  Alcotest.(check int) "cardinal" 1 (Remset.cardinal rs);
  Remset.remove rs 10;
  Alcotest.(check int) "removed" 0 (Remset.cardinal rs);
  ignore (Remset.add rs 5);
  Remset.clear rs;
  Alcotest.(check int) "cleared" 0 (Remset.cardinal rs);
  (* 1 bit per card -> heap/4096 bytes, the paper's arithmetic. *)
  Alcotest.(check int) "memory" 16 (Remset.byte_size rs)

let test_forwarding_table () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let o = alloc heap r ~size:64 ~nrefs:0 in
  let fwd = Forwarding.create ~rid:r.Region.rid ~expected:4 in
  Forwarding.add fwd ~old_offset:0 o;
  Alcotest.(check bool) "lookup hit" true (Forwarding.find fwd ~old_offset:0 == o);
  Alcotest.(check bool) "lookup miss" true (Gobj.is_null (Forwarding.find fwd ~old_offset:64));
  Alcotest.(check int) "entries" 1 (Forwarding.entries fwd)

(* ------------------------------------------------------------------ *)
(* Object model: null sentinel, strict accessors, packed header. *)

(* The sentinel must stay inert under arbitrary heap traffic: never
   marked, never forwarded, never surfaced by field iteration or card
   scans (so no tracer can enqueue it — barrier SATB paths test against
   it explicitly), and invisible to used-bytes.
   Random alloc/link/mark/scan/release sequences probe all of that at
   once; the [pure] wrapper keeps each QCheck case independent. *)
let sentinel_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"null sentinel stays inert"
       QCheck2.Gen.(
         pair (int_range 0 1000)
           (list_size (int_range 0 50) (pair (int_range 0 6) (int_range 0 300))))
       (fun (salt, specs) ->
         let heap = mk_heap ~heap_bytes:(64 * kib) ~region_bytes:(8 * kib) () in
         let r = claim_exn heap Region.Old in
         let objs =
           List.filter_map
             (fun (nrefs, data_bytes) ->
               let size = Heap_impl.object_size ~nrefs ~data_bytes in
               if Region.fits r size then Some (alloc heap r ~size ~nrefs)
               else None)
             specs
         in
         let arr = Array.of_list objs in
         let n = Array.length arr in
         (* Random edges, with explicit null stores mixed in. *)
         List.iteri
           (fun k (nrefs, data_bytes) ->
             if n > 0 && nrefs > 0 then begin
               let o = arr.(k mod n) in
               let i = data_bytes mod max 1 (Gobj.num_fields o) in
               if Gobj.num_fields o > 0 then
                 if (salt + k) mod 3 = 0 then Gobj.set_field o i Gobj.null
                 else Gobj.set_field o i arr.((salt + k) mod n)
             end)
           specs;
         let used_before = Heap_impl.used_bytes heap in
         (* Mark everything; the sentinel is never handed to the marker
            by any scan, so its word must stay untouched. *)
         ignore (Heap_impl.begin_mark heap);
         Array.iter (fun o -> ignore (Heap_impl.mark_object heap o)) arr;
         Heap_impl.end_mark heap;
         let saw_null = ref false in
         Array.iter
           (fun o ->
             Gobj.iter_fields
               (fun _ child -> if Gobj.is_null child then saw_null := true)
               o)
           arr;
         let cpr = Heap_impl.cards_per_region heap in
         for local = 0 to cpr - 1 do
           Heap_impl.scan_card heap
             ((r.Region.rid * cpr) + local)
             ~f:(fun o _ -> if Gobj.is_null o then saw_null := true)
         done;
         (* Writing null over every slot must not move used-bytes. *)
         Array.iter
           (fun o ->
             for i = 0 to Gobj.num_fields o - 1 do
               Gobj.set_field o i Gobj.null
             done)
           arr;
         let used_after = Heap_impl.used_bytes heap in
         (* Release flags every resident freed; the sentinel must
            survive it untouched too. *)
         Heap_impl.release_region heap r;
         (not !saw_null) && used_before = used_after
         && (not (Heap_impl.is_marked heap Gobj.null))
         && (not (Gobj.is_forwarded Gobj.null))
         && Gobj.null.Gobj.forward == Gobj.null
         && (not (Gobj.is_freed Gobj.null))
         && Gobj.num_fields Gobj.null = 0))

(* Accessors are strict: an index outside [0, num_fields) is a bug in
   the caller (a stale window, an off-by-one), never an empty slot, so
   it must raise with the object and index named instead of reading
   null or dropping the store. *)
let test_strict_accessors () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let o = alloc heap r ~size:64 ~nrefs:2 in
  let v = alloc heap r ~size:32 ~nrefs:0 in
  List.iter
    (fun i ->
      let msg op =
        Invalid_argument
          (Printf.sprintf "Gobj.%s: field %d of object #%d (uid %d) out of range [0, 2)"
             op i o.Gobj.id o.Gobj.uid)
      in
      Alcotest.check_raises "store past the range raises" (msg "set_field") (fun () ->
          Gobj.set_field o i v);
      Alcotest.check_raises "read past the range raises" (msg "get_field") (fun () ->
          ignore (Gobj.get_field o i)))
    [ 2; 3; -1; min_int ];
  (* The rejected stores left every in-range slot empty. *)
  Alcotest.(check bool) "no slot written" true
    (Gobj.is_null (Gobj.get_field o 0) && Gobj.is_null (Gobj.get_field o 1));
  Gobj.set_field o 1 v;
  Alcotest.(check bool) "in-range store lands" true (Gobj.get_field o 1 == v)

(* The packed header must behave exactly like separate fields: random
   sequences of its writers (address, marks, flags, relocation copies;
   in range, at the limits and past them) against a naive unpacked
   model.  A writer either applies its value (ages saturate) or raises
   without touching anything, and no value bleeds into a neighbour. *)
type model = {
  m_offset : int;
  m_region : int;
  m_age : int;
  m_flags : int;
  m_mark : int;
  m_ymark : int;
}

let packed_layout_model =
  let open QCheck2.Gen in
  let value limit =
    oneof
      [
        int_range 0 (min limit 1000);
        oneofl [ 0; limit; limit + 1; -1; min_int; max_int ];
        int_range 0 limit;
      ]
  in
  let flag =
    oneofl
      [ Gobj.flag_weak_referent; Gobj.flag_humongous; Gobj.flag_freed; 8; 0x80; 0x100; -1 ]
  in
  let op =
    oneof
      [
        map2 (fun r v -> `Place (r, v)) (int_range (-1) 100) (value Gobj.max_offset);
        map2 (fun a v -> `Remake (a, v)) (value Gobj.max_age) (value Gobj.max_offset);
        map (fun v -> `Mark v) (value Gobj.max_epoch);
        map (fun v -> `Ymark v) (value Gobj.max_epoch);
        map (fun f -> `Set f) flag;
        map (fun f -> `Clear f) flag;
      ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"packed header matches unpacked model"
       (list_size (int_range 1 60) op)
       (fun ops ->
         let uids = ref 0 in
         let o = ref (Gobj.make_with ~uids ~id:7 ~size:64 ~nrefs:1 ~region:3 ~offset:128) in
         let check m =
           let o = !o in
           Gobj.offset o = m.m_offset && o.Gobj.region = m.m_region
           && Gobj.age o = m.m_age && Gobj.mark o = m.m_mark
           && Gobj.ymark o = m.m_ymark
           && List.for_all
                (fun f -> Gobj.has_flag o f = (m.m_flags land f <> 0))
                [ 1; 2; 4; 8; 16; 32; 64; 128 ]
           && o.Gobj.id = 7 && o.Gobj.size = 64
           && Gobj.num_fields o = 1
           && not (Gobj.is_forwarded o)
         in
         let step m op =
           let attempt f m' = match f () with () -> m' | exception Invalid_argument _ -> m in
           let ok_flag f = f land lnot 0xff = 0 in
           match op with
           | `Place (r, v) ->
               attempt
                 (fun () -> Gobj.place !o ~region:r ~offset:v)
                 { m with m_offset = v; m_region = r }
           | `Remake (a, v) ->
               attempt
                 (fun () ->
                   o := Gobj.remake ~uids !o ~age:a ~region:m.m_region ~offset:v)
                 { m with m_age = min a Gobj.max_age; m_offset = v }
           | `Mark v -> attempt (fun () -> Gobj.set_mark !o v) { m with m_mark = v }
           | `Ymark v -> attempt (fun () -> Gobj.set_ymark !o v) { m with m_ymark = v }
           | `Set f ->
               let m' = if ok_flag f then { m with m_flags = m.m_flags lor f } else m in
               attempt (fun () -> Gobj.set_flag !o f) m'
           | `Clear f ->
               let m' =
                 if ok_flag f then { m with m_flags = m.m_flags land lnot f } else m
               in
               attempt (fun () -> Gobj.clear_flag !o f) m'
         in
         let m0 =
           { m_offset = 128; m_region = 3; m_age = 0; m_flags = 0; m_mark = 0; m_ymark = 0 }
         in
         check m0
         && snd
              (List.fold_left
                 (fun (m, ok) op ->
                   let m = step m op in
                   (m, ok && check m))
                 (m0, true) ops)))

(* The record must not quietly grow back: eight fields (nine host words
   with the block header) for a fresh object and a relocated copy. *)
let test_record_size () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let o = alloc heap r ~size:64 ~nrefs:1 in
  let copy =
    Gobj.remake ~uids:heap.Heap_impl.uids o ~age:(Gobj.age o + 1)
      ~region:r.Region.rid ~offset:r.Region.top
  in
  Alcotest.(check bool) "fresh record <= 8 fields" true (Obj.size (Obj.repr o) <= 8);
  Alcotest.(check bool) "copy record <= 8 fields" true (Obj.size (Obj.repr copy) <= 8);
  Alcotest.(check bool) "copy shares the slots" true (copy.Gobj.fields == o.Gobj.fields)

(* Values that cannot fit their packed field are refused where they
   enter: region geometry at config time, epochs before they wrap,
   tenure ages at collector install; ages themselves saturate. *)
let test_packed_limits () =
  let big = 2 * (Gobj.max_offset + 1) in
  Alcotest.check_raises "region offsets must fit the header"
    (Invalid_argument
       "Heap.config: region_bytes exceeds the object header's offset field")
    (fun () -> ignore (Heap_impl.config ~heap_bytes:big ~region_bytes:big ()));
  let heap = mk_heap () in
  heap.Heap_impl.mark_epoch <- Gobj.max_epoch - 1;
  Alcotest.(check int) "last epoch starts" Gobj.max_epoch (Heap_impl.begin_mark heap);
  Heap_impl.end_mark heap;
  (match Heap_impl.begin_mark heap with
  | _ -> Alcotest.fail "old epoch wrapped"
  | exception Failure _ -> ());
  heap.Heap_impl.young_epoch <- Gobj.max_epoch;
  (match Heap_impl.begin_young_mark heap with
  | _ -> Alcotest.fail "young epoch wrapped"
  | exception Failure _ -> ());
  let r = claim_exn heap Region.Old in
  let o = alloc heap r ~size:64 ~nrefs:0 in
  let copy =
    Gobj.remake ~uids:heap.Heap_impl.uids o ~age:(Gobj.max_age + 5)
      ~region:r.Region.rid ~offset:r.Region.top
  in
  Alcotest.(check int) "age saturates" Gobj.max_age (Gobj.age copy);
  let rt =
    Runtime.Rt.create ~seed:1 ~engine:(Sim.Engine.create ~cores:1 ()) ~heap:(mk_heap ()) ()
  in
  let too_old = Gobj.max_age + 1 in
  let rejects name f =
    match f () with
    | () -> Alcotest.failf "%s accepted tenure_age %d" name too_old
    | exception Invalid_argument _ -> ()
  in
  rejects "G1" (fun () ->
      ignore
        (Collectors.G1.install
           ~config:{ Collectors.G1.default_config with Collectors.G1.tenure_age = too_old }
           rt));
  rejects "LXR" (fun () ->
      ignore
        (Collectors.Lxr.install
           ~config:{ Collectors.Lxr.default_config with Collectors.Lxr.tenure_age = too_old }
           rt));
  rejects "Young_gen" (fun () ->
      ignore
        (Collectors.Young_gen.create ~tenure_age:too_old
           ~style:Collectors.Young_gen.Lazy_healing rt));
  rejects "Jade" (fun () ->
      ignore
        (Jade.Collector.install
           ~config:{ Jade.Jade_config.default with Jade.Jade_config.tenure_age = too_old }
           rt))

let () =
  Alcotest.run "heap"
    [
      ( "regions",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "claim/release" `Quick test_claim_release;
          Alcotest.test_case "used bytes incremental" `Quick
            test_used_bytes_incremental;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "object size" `Quick test_object_size;
          Alcotest.test_case "offsets sorted" `Quick test_object_offsets_sorted;
          Alcotest.test_case "forwarding resolve" `Quick test_forwarding_resolve;
        ] );
      ( "cards",
        [
          Alcotest.test_case "card math" `Quick test_card_math;
          Alcotest.test_case "card of field" `Quick test_card_of_field;
          Alcotest.test_case "scan card" `Quick test_scan_card_finds_slots;
          Alcotest.test_case "dirty cards" `Quick test_dirty_cards;
          Alcotest.test_case "release clears cards" `Quick
            test_release_clears_own_cards;
          Alcotest.test_case "release event order under detector" `Quick
            test_release_event_order_under_detector;
          scan_card_model;
          first_object_at_model;
        ] );
      ( "marking",
        [
          Alcotest.test_case "accounting" `Quick test_mark_accounting;
          Alcotest.test_case "scoped mark" `Quick test_mark_scope;
          Alcotest.test_case "born after snapshot" `Quick
            test_born_after_snapshot_fully_live;
          Alcotest.test_case "allocate live during mark" `Quick
            test_allocate_live_during_mark;
        ] );
      ( "weak refs",
        [
          Alcotest.test_case "marked judge" `Quick test_weak_refs_marked_judge;
          Alcotest.test_case "freed judge" `Quick test_weak_refs_freed_judge;
          Alcotest.test_case "follows forwarding" `Quick test_weak_follows_forwarding;
        ] );
      ( "crdt",
        [
          Alcotest.test_case "basic" `Quick test_crdt_basic;
          Alcotest.test_case "rid bounds" `Quick test_crdt_rid_zero_and_max;
          crdt_model;
          Alcotest.test_case "memory size" `Quick test_crdt_memory_size;
        ] );
      ( "remset+forwarding",
        [
          Alcotest.test_case "remset" `Quick test_remset;
          Alcotest.test_case "forwarding table" `Quick test_forwarding_table;
        ] );
      ( "object model",
        [
          sentinel_model;
          Alcotest.test_case "strict accessors" `Quick test_strict_accessors;
          packed_layout_model;
          Alcotest.test_case "record size" `Quick test_record_size;
          Alcotest.test_case "packed limits" `Quick test_packed_limits;
        ] );
    ]
