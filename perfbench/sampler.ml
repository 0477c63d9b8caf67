(** In-process host-time sampler: [ITIMER_PROF] plus
    [Printexc.get_callstack], bucketed by the innermost [lib/<dir>/]
    frame (the layer's self time).

    OCaml 5 runs signal handlers only at poll points (allocations and
    loop back-edges), so samples skew toward allocation sites; read the
    shares beside the deterministic counts, not as exact CPU time. *)

type t = {
  mutable samples : int;
  layers : (string, int) Hashtbl.t;  (** [lib/<dir>] -> samples *)
  files : (string, int) Hashtbl.t;  (** [lib/<dir>/<file>] -> samples *)
}

let create () =
  { samples = 0; layers = Hashtbl.create 16; files = Hashtbl.create 64 }

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Frames without a [lib/] source (the benchmark, the stdlib) are
   attributed to "other"; stdlib frames called from a layer fall through
   to that layer's frame below them. *)
let record t =
  t.samples <- t.samples + 1;
  let slots =
    Option.value ~default:[||]
      (Printexc.backtrace_slots (Printexc.get_callstack 64))
  in
  let layer_of slot =
    match Printexc.Slot.location slot with
    | Some { Printexc.filename; _ } -> (
        match String.split_on_char '/' filename with
        | "lib" :: dir :: _ :: _ -> Some (dir, filename)
        | _ -> None)
    | None -> None
  in
  match Array.find_map layer_of slots with
  | Some (dir, file) ->
      bump t.layers dir;
      bump t.files file
  | None -> bump t.layers "other"

let interval_s = 0.001

(** [with_sampler t f] samples [f ()] every millisecond of process CPU
    time and stops the timer before returning, even on exceptions. *)
let with_sampler t f =
  let tick = { Unix.it_interval = interval_s; it_value = interval_s } in
  let off = { Unix.it_interval = 0.; it_value = 0. } in
  let previous = Sys.signal Sys.sigprof (Sys.Signal_handle (fun _ -> record t)) in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_PROF off);
      Sys.set_signal Sys.sigprof previous)

let count t layer = Option.value ~default:0 (Hashtbl.find_opt t.layers layer)
let file_count t file = Option.value ~default:0 (Hashtbl.find_opt t.files file)

let pct t n =
  if t.samples = 0 then 0. else 100. *. float_of_int n /. float_of_int t.samples

(** The [n] files with the most samples, most first. *)
let top_files t n =
  Hashtbl.fold (fun f c acc -> (f, c) :: acc) t.files []
  |> List.sort (fun (f1, c1) (f2, c2) -> compare (c2, f1) (c1, f2))
  |> List.filteri (fun i _ -> i < n)
