(** Off-heap forwarding tables (ZGC-style, §2.4).

    ZGC frees an evacuated region before the references into it are
    updated; the old-address→new-object mapping must therefore outlive
    the region in a side table, kept until the next marking cycle has
    remapped every stale reference.  The ZGC collector model routes
    relocations through these tables and accounts their footprint. *)

type t

val create : rid:int -> expected:int -> t

val add : t -> old_offset:int -> Gobj.t -> unit
(** Record a mapping. *)

val find : t -> old_offset:int -> Gobj.t
(** The copy recorded for [old_offset], or {!Gobj.null}. *)

val entries : t -> int

val iter : (old_offset:int -> Gobj.t -> unit) -> t -> unit
(** Iterate every mapping (verifier use; no cost accounting). *)

val byte_size : t -> int
(** Approximate footprint (per-entry cost), for overhead reporting. *)
