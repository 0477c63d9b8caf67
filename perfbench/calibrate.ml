(** A fixed reference workload for the host's current speed.

    Host time on a shared VM swings with the neighbours' load on the
    memory system.  This kernel does the kind of work the simulator does
    — builds a large linked object graph, allocates short-lived
    temporaries, stores young objects into old ones and walks the graph
    — from code that never changes with the simulator, so its time
    measures the machine, not the program. *)

type obj = { uid : int; mutable fields : obj array; mutable mark : int }

let null = { uid = -1; fields = [||]; mark = 0 }
let objects = 60_000

let run () =
  let st = Random.State.make [| 20240417 |] in
  let live = Array.make objects null in
  let index = Hashtbl.create 4096 in
  for i = 0 to objects - 1 do
    let arity = 1 + Random.State.int st 5 in
    let fields =
      Array.init arity (fun _ -> if i = 0 then null else live.(Random.State.int st i))
    in
    live.(i) <- { uid = i; fields; mark = 0 };
    if i land 7 = 0 then Hashtbl.replace index i live.(i);
    ignore (Sys.opaque_identity (Array.make (8 + Random.State.int st 40) i))
  done;
  let stack = Stack.create () in
  for round = 1 to 3 do
    for _ = 1 to objects do
      let o = live.(Random.State.int st objects) in
      let slot = Random.State.int st (Array.length o.fields) in
      o.fields.(slot) <-
        { uid = -round; fields = [| live.(Random.State.int st objects) |]; mark = 0 }
    done;
    Stack.push live.(0) stack;
    Hashtbl.iter (fun _ o -> Stack.push o stack) index;
    while not (Stack.is_empty stack) do
      let o = Stack.pop stack in
      if o.mark <> round then begin
        o.mark <- round;
        Array.iter (fun c -> if c.mark <> round then Stack.push c stack) o.fields
      end
    done
  done

(** The kernel's time on the reference host, a 2-vCPU VM shared with
    other tenants, at a quiet moment. *)
let reference_s = 0.110

(** Seconds one run of the kernel takes right now. *)
let seconds () =
  let t0 = Monotonic_clock.now () in
  run ();
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
