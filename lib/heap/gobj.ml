(** Simulated heap objects: unboxed reference slots around a null
    sentinel, with a packed header.

    An object is a record holding real reference slots ([fields]) to other
    objects, so marking genuinely traverses the graph and evacuation
    genuinely copies.  Reference slots are *unboxed*: an empty slot holds
    the distinguished {!null} sentinel instead of [None], so barrier
    reads, reference stores, mark-stack pushes and evacuation copies never
    box a reference in an [option] block — the host minor heap stays
    quiet on the per-reference fast path ([tools/gcsim_lint] rule R5
    keeps [t option] out of the heap and collector trees).

    Relocation creates a copy record for the new location and installs it
    in the old copy's [forward] slot ({!null} = not relocated): references
    elsewhere in the heap keep pointing at the old record, which is
    exactly a stale reference in a concurrent copying collector, and
    healing replaces them with {!resolve}.  The new copy shares the
    [fields] array (the payload moved; there is one logical set of slots).

    Every record lives until the host GC finds it unreachable; the
    simulator never recycles one.  Because every simulated object is a
    host record that survives the minor heap, the record is kept lean:
    the small per-object scalars share two packed words ([hdr] and
    [marks]) read and written only through the accessors below. *)

type t = {
  id : int;  (** logical identity, preserved across copies *)
  uid : int;  (** physical identity of this record, unique per copy *)
  size : int;  (** bytes, header included *)
  fields : t array;  (** reference slots; {!null} = empty *)
  mutable region : int;
  mutable forward : t;  (** newer copy; {!null} = not relocated *)
  mutable hdr : int;  (** [offset lsl 16 lor age lsl 8 lor flags] *)
  mutable marks : int;  (** [mark lsl 31 lor ymark] *)
}

let header_bytes = 16
let slot_bytes = 8
let slot_shift = 3 (* log2 slot_bytes: card scans shift, not divide *)

(* Packed header layout.  Flags sit in the low byte so a flag constant
   is its own mask; offset takes the top bits so reading it is one
   shift. *)
let flag_mask = 0xff
let age_shift = 8
let max_age = 0xff
let offset_shift = 16
let max_offset = max_int lsr offset_shift
let mark_shift = 31
let max_epoch = (1 lsl mark_shift) - 1

(* Flag bits *)
let flag_weak_referent = 1
let flag_humongous = 2
let flag_freed = 4

let no_fields : t array = [||]

(* The null sentinel: one distinguished record, compared physically.
   [forward] ties the knot so [resolve null] is [null] and the
   not-forwarded test is a single physical comparison. *)
let rec null =
  {
    id = -1;
    uid = -1;
    size = 0;
    fields = no_fields;
    region = -1;
    forward = null;
    hdr = 0;
    marks = 0;
  }

let[@inline] is_null t = t == null

(* Physical identities are minted from one per-domain counter: region
   ids and offsets are both recycled, so only the record itself names
   "this copy of this object" unambiguously across a whole run.
   Domain-local, not global: the parallel exploration/sweep drivers
   ([Util.Dpool]) build one heap per domain, and a shared counter would
   interleave uid streams host-nondeterministically. *)
let uid_counter_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

type uids = int ref

let uid_source () : uids = Domain.DLS.get uid_counter_key

let[@inline] mint (c : uids) =
  let u = !c in
  c := u + 1;
  u

let uid_watermark () = !(Domain.DLS.get uid_counter_key)
let reset_uids () = Domain.DLS.get uid_counter_key := 0

(* ------------------------------------------------------------------ *)
(* Packed header accessors.                                             *)

let[@inline] offset t = t.hdr lsr offset_shift
let[@inline] age t = (t.hdr lsr age_shift) land max_age
let[@inline] mark t = t.marks lsr mark_shift
let[@inline] ymark t = t.marks land max_epoch

let[@inline never] out_of_range what v max =
  invalid_arg (Printf.sprintf "Gobj.%s: %d outside [0, %d]" what v max)

let[@inline] check_offset off =
  if off < 0 || off > max_offset then out_of_range "offset" off max_offset

let[@inline] check_epoch what e =
  if e < 0 || e > max_epoch then out_of_range what e max_epoch

(* Ages only ever feed [age >= tenure_age] tests, and collector configs
   reject tenure ages above [max_age], so saturating keeps every
   promotion decision exact. *)
let[@inline] saturate_age a =
  if a < 0 then out_of_range "age" a max_age
  else if a > max_age then max_age
  else a

let set_mark t e =
  check_epoch "mark" e;
  t.marks <- (t.marks land max_epoch) lor (e lsl mark_shift)

let set_ymark t e =
  check_epoch "ymark" e;
  t.marks <- (t.marks land lnot max_epoch) lor e

let place t ~region ~offset =
  check_offset offset;
  t.hdr <- (t.hdr land ((1 lsl offset_shift) - 1)) lor (offset lsl offset_shift);
  t.region <- region

let has_flag t f = t.hdr land f land flag_mask <> 0

let[@inline] check_flag f =
  if f land lnot flag_mask <> 0 then out_of_range "flag" f flag_mask

let set_flag t f =
  check_flag f;
  t.hdr <- t.hdr lor f

let clear_flag t f =
  check_flag f;
  t.hdr <- t.hdr land lnot f

let is_weak_referent t = has_flag t flag_weak_referent
let is_humongous t = has_flag t flag_humongous
let is_freed t = has_flag t flag_freed

(* ------------------------------------------------------------------ *)
(* Construction.                                                        *)

let make_with ~uids ~id ~size ~nrefs ~region ~offset =
  check_offset offset;
  {
    id;
    uid = mint uids;
    size;
    fields = (if nrefs = 0 then no_fields else Array.make nrefs null);
    region;
    forward = null;
    hdr = offset lsl offset_shift;
    marks = 0;
  }

let remake ~uids (o : t) ~age ~region ~offset =
  check_offset offset;
  {
    id = o.id;
    uid = mint uids;
    size = o.size;
    fields = o.fields;
    region;
    forward = null;
    hdr =
      (offset lsl offset_shift)
      lor (saturate_age age lsl age_shift)
      lor (o.hdr land flag_mask);
    marks = o.marks;
  }

(* ------------------------------------------------------------------ *)
(* Forwarding.                                                          *)

(* Physical comparison against the sentinel: one load and one pointer
   compare, no C call — this test guards every mutator load/store and
   root access. *)
let[@inline] is_forwarded t = t.forward != null

let set_forward ?hooks ?(site = "Gobj.set_forward") t copy =
  (match hooks with
  | Some h -> Access.log_with h Access.Write Access.Forward ~key:t.uid ~site
  | None -> Access.log Access.Write Access.Forward ~key:t.uid ~site);
  t.forward <- copy

let set_forward_with ~hooks ~site t copy =
  Access.log_with hooks Access.Write Access.Forward ~key:t.uid ~site;
  t.forward <- copy

(* [resolve null] is [null]: the sentinel's knotted [forward] makes the
   empty slot a fixpoint, so callers can resolve a field value without
   testing it first. *)
let rec resolve t = if t.forward == null then t else resolve t.forward

let forward_depth t =
  let rec go t n = if t.forward == null then n else go t.forward (n + 1) in
  go t 0

(* ------------------------------------------------------------------ *)
(* Fields.                                                              *)

let num_fields t = Array.length t.fields
let field_offset t i = offset t + header_bytes + (i * slot_bytes)

let[@inline never] bad_index op t i =
  invalid_arg
    (Printf.sprintf "Gobj.%s: field %d of object #%d (uid %d) out of range [0, %d)"
       op i t.id t.uid (Array.length t.fields))

let get_field t i =
  let fs = t.fields in
  if i < 0 || i >= Array.length fs then bad_index "get_field" t i
  else Array.unsafe_get fs i

let set_field t i v =
  let fs = t.fields in
  if i < 0 || i >= Array.length fs then bad_index "set_field" t i
  else Array.unsafe_set fs i v

let iter_fields f t =
  for i = 0 to Array.length t.fields - 1 do
    let o = Array.unsafe_get t.fields i in
    if o != null then f i o
  done

let pp fmt t =
  if is_null t then Format.fprintf fmt "<null>"
  else
    Format.fprintf fmt "#%d(%dB r%d+%d%s)" t.id t.size t.region (offset t)
      (if is_forwarded t then " fwd" else "")
