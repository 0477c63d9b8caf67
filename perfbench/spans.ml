(** Host-time spans around the benchmark's own calls into the simulator's
    layers, kept in memory for the length of one pass.  A span's self
    time is its duration minus the durations of its direct children. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** [-1] for a root span *)
  start_ns : int64;
  mutable dur_ns : int64;
}

type t = { mutable spans : span list; mutable stack : int list; mutable next : int }

let create () = { spans = []; stack = []; next = 0 }
let now_ns () = Monotonic_clock.now ()
let seconds ns = Int64.to_float ns /. 1e9

(** [run t name f] is [f ()], recorded as a span nested in the innermost
    open one. *)
let run t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let s = { name; id; parent; start_ns = now_ns (); dur_ns = 0L } in
  t.spans <- s :: t.spans;
  t.stack <- id :: t.stack;
  Fun.protect f ~finally:(fun () ->
      s.dur_ns <- Int64.sub (now_ns ()) s.start_ns;
      t.stack <- List.tl t.stack)

let sum_s spans = seconds (List.fold_left (fun a s -> Int64.add a s.dur_ns) 0L spans)
let named t name = List.filter (fun s -> s.name = name) t.spans

(** Total seconds spent in spans called [name]. *)
let total_s t name = sum_s (named t name)

(** Self seconds of the spans called [name]. *)
let self_s t name =
  let ids = List.map (fun s -> s.id) (named t name) in
  total_s t name -. sum_s (List.filter (fun s -> List.mem s.parent ids) t.spans)

(** [(name, count, total_s, self_s)] for every span name, by total. *)
let table t =
  List.sort_uniq compare (List.map (fun s -> s.name) t.spans)
  |> List.map (fun n -> (n, List.length (named t n), total_s t n, self_s t n))
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)
