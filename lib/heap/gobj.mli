(** Simulated heap objects: unboxed reference slots around a null
    sentinel, with a packed header.

    An object is a record holding real reference slots ([fields]) to other
    objects, so marking genuinely traverses the graph and evacuation
    genuinely copies.  Reference slots are *unboxed*: an empty slot holds
    the distinguished {!null} sentinel instead of [None], so barrier
    reads, reference stores, mark-stack pushes and evacuation copies never
    box a reference in an [option] block ([tools/gcsim_lint] rule R5
    keeps [t option] out of the heap and collector trees).

    Relocation creates a copy record for the new location and installs it
    in the old copy's [forward] slot ({!null} = not relocated): references
    elsewhere in the heap keep pointing at the old record, which is
    exactly a stale reference in a concurrent copying collector, and
    healing replaces them with {!resolve}.  The new copy shares the
    [fields] array (the payload moved; there is one logical set of slots).

    Ownership.  A record is owned by the host GC: the simulator never
    recycles one, so a stale reference to a dead or relocated record
    always finds that record exactly as its region left it ([freed] or
    forwarded), never a new identity.  Regions ({!Region.push_obj}), the
    heap's marking ({!Heap_impl}) and relocation ({!set_forward}) are
    the only writers, and they write through the setters below: the
    record is [private], so everyone else reads.

    Layout.  Every simulated object is a host record that outlives the
    host minor heap, so host promotion, marking and sweeping cost grows
    with the record's size.  The record therefore holds eight fields
    (nine host words with the header): the small per-object scalars are
    packed, [offset | age | flags] in [hdr] and [mark | ymark] in
    [marks], behind the accessors below.  Each setter rejects a value
    that does not fit its packed field (age saturates instead), so a
    field never bleeds into its neighbour. *)

type t = private {
  id : int;  (** logical identity, preserved across copies *)
  uid : int;  (** physical identity of this record — unique per copy,
                  never reused; keys forwarding-install race checks *)
  size : int;  (** bytes, header included *)
  fields : t array;  (** reference slots; {!null} = empty *)
  mutable region : int;
  mutable forward : t;  (** newer copy; {!null} = not relocated *)
  mutable hdr : int;
      (** packed [offset | age | flags]; read through {!offset}, {!age}
          and {!has_flag} *)
  mutable marks : int;  (** packed [mark | ymark]; read through {!mark}, {!ymark} *)
}

(** {2 The null sentinel} *)

val null : t
(** The distinguished empty-slot / not-forwarded sentinel.  Compared
    physically ([==]); never resident in a region, never marked,
    forwarded, enqueued or counted — its [forward] is itself, so
    {!resolve} is the identity on it. *)

val is_null : t -> bool

(** {2 Layout constants} *)

val header_bytes : int
val slot_bytes : int

val slot_shift : int
(** log2 [slot_bytes]: card scans shift, not divide. *)

val max_offset : int
(** Largest byte offset the packed header holds; {!Heap_impl.config}
    rejects regions whose offsets would not fit. *)

val max_age : int
(** Ages saturate here; collector configs reject a larger tenure age. *)

val max_epoch : int
(** Largest mark epoch the packed mark word holds; the heap refuses to
    start a marking cycle past it. *)

(** {2 Packed header} *)

val offset : t -> int
(** Byte offset of the header inside the region. *)

val age : t -> int
(** Collections survived (copies made), saturating at {!max_age}. *)

val mark : t -> int
(** Epoch of the last old/full marking that reached the object. *)

val ymark : t -> int
(** Epoch of the last *young* marking that reached it — young and old
    cycles co-run, so their mark state must not alias. *)

val place : t -> region:int -> offset:int -> unit
(** Record the object's address ({!Region.push_obj}). *)

val set_mark : t -> int -> unit
val set_ymark : t -> int -> unit

(** {2 Flag bits} *)

val flag_weak_referent : int
val flag_humongous : int
val flag_freed : int

(** {2 Physical identity (uids)}

    Uids are minted from one per-domain counter: region ids and offsets
    are both recycled, so only the record itself names "this copy of
    this object" unambiguously across a whole run.  Domain-local, not
    global: the parallel exploration/sweep drivers ([Util.Dpool]) build
    one heap per domain, and a shared counter would interleave uid
    streams host-nondeterministically. *)

type uids = int ref
(** A cached handle on this domain's uid counter, for paths that mint a
    uid per allocation or per evacuation copy: resolving the DLS slot
    once at heap creation and minting through the handle turns the
    per-object cost into one load and one store.  The handle must live
    in run-threaded state (e.g. {!Heap_impl.t}), mirroring the
    {!Access.hooks} discipline — [tools/gcsim_lint] rule R4 enforces
    this. *)

val uid_source : unit -> uids
(** Resolve this domain's uid counter once. *)

val mint : uids -> int

val uid_watermark : unit -> int
(** Current value of the uid counter.  The verifier records it when a
    marking snapshot is taken: any record with a uid at or above the
    watermark was created (allocated or copied) after the snapshot, and
    tri-color discipline does not constrain it. *)

val reset_uids : unit -> unit
(** Restart the uid space.  Called when a fresh heap is created
    ({!Heap_impl.create}): uids, like virtual time, are then a pure
    function of the run — two in-process runs of one configuration mint
    identical uids, which is what lets the schedule-space explorer
    promise byte-identical violation reports on replay, whether the
    runs share a domain (sequential) or not ([-j N]). *)

(** {2 Construction} *)

val make_with :
  uids:uids -> id:int -> size:int -> nrefs:int -> region:int -> offset:int -> t
(** A fresh, unmarked, unforwarded object with [nrefs] empty slots,
    minting its uid through a cached handle. *)

val remake : uids:uids -> t -> age:int -> region:int -> offset:int -> t
(** Copy record for relocation: logical identity, size, mark state and
    flags carry over; the [fields] array is shared with the source (one
    logical set of slots).  [age] saturates at {!max_age}. *)

(** {2 Flags} *)

val has_flag : t -> int -> bool
val set_flag : t -> int -> unit
val clear_flag : t -> int -> unit
val is_weak_referent : t -> bool
val is_humongous : t -> bool
val is_freed : t -> bool

(** {2 Forwarding} *)

val is_forwarded : t -> bool
(** One physical comparison against {!null} — no option match, no C
    call; this test guards every mutator load/store and root access. *)

val set_forward : ?hooks:Access.hooks -> ?site:string -> t -> t -> unit
(** Install the forwarding pointer of [t].  All relocation paths go
    through here so the race detector sees every install as a [Write] on
    the old copy's physical identity — two unordered installs on one
    record are a double relocation.  Evacuation loops pass their heap's
    cached [hooks] handle so a disabled detector costs one load+branch
    per install instead of a DLS lookup. *)

val set_forward_with : hooks:Access.hooks -> site:string -> t -> t -> unit
(** [set_forward] for evacuation loops: the hooks handle is a plain
    labeled argument, so the per-copy call does not box it in an option
    the way [?hooks] would. *)

val resolve : t -> t
(** Newest copy of an object (identity: follows the forwarding chain).
    [resolve null] is [null], so field values resolve without a
    preceding emptiness test. *)

val forward_depth : t -> int
(** Length of the forwarding chain, for tests and cost accounting. *)

(** {2 Fields} *)

val num_fields : t -> int

val field_offset : t -> int -> int
(** Byte offset of field slot [i] inside the object's region. *)

val get_field : t -> int -> t
(** The raw slot value: {!null} when empty, possibly a stale (forwarded)
    record otherwise — callers resolve as needed.  Raises
    [Invalid_argument] naming the object and index when [i] is out of
    range. *)

val set_field : t -> int -> t -> unit
(** Store [v] ({!null} clears the slot).  Raises [Invalid_argument]
    naming the object and index when [i] is out of range. *)

val iter_fields : (int -> t -> unit) -> t -> unit
(** Apply to each non-{!null} field (index, referent). *)

val pp : Format.formatter -> t -> unit
