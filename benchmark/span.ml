(* The benchmark's one clock and its in-memory span recorder.

   Every duration the benchmark reports comes from [now], bechamel's
   noalloc CLOCK_MONOTONIC stub: never [Sys.time] (process CPU time,
   which on a pool domain also counts the other domains' work) and never
   [Unix.gettimeofday] (wall time that can step).

   Spans are recorded only in the traced run.  A span has a name
   ("layer.what"), a start and an end on the clock above, the id of the
   span that caused it (-1 for a root) and the id of the verified run it
   belongs to.  They are kept in memory, behind a mutex because serve
   sessions record from pool domains, and written out once at the end. *)

let now () = Monotonic_clock.now ()

type span = {
  id : int;
  name : string;
  run : int;
  parent : int;
  t0 : int64;
  t1 : int64;
}

type t = {
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;  (* newest first *)
}

let create () = { lock = Mutex.create (); next = 0; spans = [] }

(* Ids are handed out before a span closes, so a root can be named as
   the parent of spans recorded while it is still open. *)
let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  id

let add_with_id t ~id ~name ~run ~parent t0 t1 =
  let s = { id; name; run; parent; t0; t1 } in
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

let add t ~name ~run ~parent t0 t1 =
  add_with_id t ~id:(fresh_id t) ~name ~run ~parent t0 t1

let spans t = List.rev t.spans

let duration s = Int64.sub s.t1 s.t0

(* Self time: the span's duration minus the part of its interval that
   its children cover (the union of the children, clipped to the
   parent, so overlapping or overhanging children are never counted
   twice). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids =
        Option.value ~default:[] (Hashtbl.find_opt children s.id)
        |> List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1))
        |> List.filter (fun (a, b) -> Int64.compare a b < 0)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if Int64.compare a b < 0 then (Int64.add acc (Int64.sub b a), b)
            else (acc, max reach b))
          (0L, s.t0) kids
      in
      (s, Int64.sub (duration s) covered))
    spans

(** Sum of self time per span name, in nanoseconds. *)
let self_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (Int64.add self (Option.value ~default:0L (Hashtbl.find_opt tbl s.name))))
    (self_times spans);
  tbl

(** One JSON object per line, times in ns from [origin]. *)
let write_jsonl path ~origin spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"run\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.name s.run s.parent (Int64.sub s.t0 origin)
        (Int64.sub s.t1 origin))
    spans;
  close_out oc
