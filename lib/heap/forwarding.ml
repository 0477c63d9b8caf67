(** Off-heap forwarding tables (ZGC-style, §2.4).

    ZGC frees an evacuated region before the references into it are
    updated; the old-address→new-object mapping must therefore outlive the
    region, in a side table kept until the *next* marking cycle has
    remapped every stale reference.  Our object records already carry an
    in-header [forward] field, but ZGC cannot use headers of freed memory,
    so its collector model routes lookups through these tables and accounts
    their footprint. *)

type t = {
  rid : int;
  table : (int, Gobj.t) Hashtbl.t; (* old offset -> new copy *)
  hooks : Access.hooks;  (* cached per-domain hook handle; see Access.hooks *)
}

let create ~rid ~expected =
  { rid; table = Hashtbl.create (max expected 16); hooks = Access.hooks () }

let add t ~old_offset obj =
  Access.log_with t.hooks Access.Atomic Access.Fwd_table ~key:t.rid
    ~site:"Forwarding.add";
  Hashtbl.replace t.table old_offset obj

let find t ~old_offset =
  Access.log_with t.hooks Access.Read Access.Fwd_table ~key:t.rid
    ~site:"Forwarding.find";
  match Hashtbl.find_opt t.table old_offset with
  | Some o -> o
  | None -> Gobj.null

let entries t = Hashtbl.length t.table

(** Iterate every mapping (verifier use; no cost accounting). *)
let iter f t = Hashtbl.iter (fun old_offset o -> f ~old_offset o) t.table

(** Approximate footprint: 16 bytes per entry plus table overhead, matching
    ZGC's reported forwarding-table cost. *)
let byte_size t = 32 + (24 * Hashtbl.length t.table)
