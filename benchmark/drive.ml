(* The three workloads' closed loops.

   Each loop is handed [more], which says whether item [k] (of client
   [c], on serve) should start; the caller builds it from the time
   budget or from a fixed count (the self-test's tiny size).  Inputs are
   generated before an item's clock starts.  Every item is a complete
   differentially verified run: [Vmm.Run.run] (directly, or inside
   [Serve.Session.run]) checks architected state, memory and console
   output against the reference interpreter and raises on any
   divergence. *)

module Wl = Workloads.Wl
module Run = Vmm.Run

type outcome = Verified of Run.result | Failed of string

type sample = {
  prog : string;          (** program name: the key of per-item figures *)
  index : int;            (** position in the workload's sequence *)
  latency : int64;        (** ns, submit -> completion *)
  queue : int64;          (** ns, submit -> start (serve only) *)
  outcome : outcome;
  code_bytes : int;       (** translated code the run executed *)
  flight_events : int;    (** events the flight recorder took *)
  minor_words : float;    (** allocated by the run's own domain *)
  mon : Stack.Monitor_spans.t option;  (** traced runs only *)
}

(* One side of a loop: its samples in sequence order (client by client
   for serve) and the summed wall time of its items, each item's window
   running from input generation to its recorded sample. *)
type phase = { samples : sample list; window : int64 }

type loop = {
  untraced : phase;
  traced : phase option;  (** paired runs of the same items, traced *)
  wall : int64;           (** the whole closed loop *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  gate_waits : int;       (** serve only *)
  leaked_pins : int;      (** serve only: pins left once all sessions ended *)
  inflight_keys : int;    (** serve only: translate gates left held *)
}

(* A run that ends on fuel has no verification point: a hang. *)
let verdict (r : Run.result) =
  if r.exit_code = None then Failed "hang (out of fuel)" else Verified r

let failure_message s = match s.outcome with Failed m -> Some m | _ -> None

(* --- one verified run with the `daisy run` stack ----------------------

   Untraced, the run is timed from outside only.  Traced, [Run.run]'s
   own steps are bracketed through the callbacks it exposes: the
   workload's [build]/[init] closures (called once for the reference
   image, once for the DAISY image) and [instrument], which [Run.run]
   calls right after [Monitor.create] and right before [Monitor.run]:

     bench.run                     Run.run call
       ppc.reference               entry .. second build
         workloads.instantiate     reference image
       workloads.instantiate       DAISY image
       vmm.create                  Monitor.create (tcache store open)
       obs.attach                  flight recorder, profile, supervisor
       vmm.run                     Monitor.run + final state compare
         (Stack.Monitor_spans)

   [ppc.reference] also holds the DAISY image's [Mem.create], which
   precedes its build callback; [vmm.run] also holds the final
   state/memory compare, which follows [Monitor.run] with no callback
   in between. *)
let verified_run ~crash_dir ?tcache_dir ?spans ?run ~index (w : Wl.t) =
  let run = Option.value run ~default:index in
  let flight = ref None in
  let attach vmm =
    flight := Some (Stack.daisy_run ~crash_dir ~workload:w.name vmm)
  in
  let builds = ref 0 in
  let b = [| 0L; 0L |] and i = [| 0L; 0L |] in
  let ti = ref 0L and tp = ref 0L in
  let mon = ref None in
  let vmm_run_id = Option.map Span.fresh_id spans in
  let w', instrument =
    match (spans, vmm_run_id) with
    | Some rec_, Some vr ->
      ( { w with
          build =
            (fun a ->
              if !builds < 2 then b.(!builds) <- Span.now ();
              w.build a);
          init =
            (fun m l ->
              w.init m l;
              if !builds < 2 then i.(!builds) <- Span.now ();
              incr builds) },
        (fun vmm ->
          ti := Span.now ();
          attach vmm;
          tp := Span.now ();
          mon :=
            Some (Stack.Monitor_spans.attach rec_ ~run ~parent:vr
                    ~start:!tp vmm)) )
    | _ -> (w, attach)
  in
  let w0 = Gc.minor_words () in
  let t0 = Span.now () in
  let outcome =
    match Run.run ~instrument ?tcache_dir w' with
    | r -> verdict r
    | exception Run.Mismatch m -> Failed ("mismatch: " ^ m)
    | exception e -> Failed ("crash: " ^ Printexc.to_string e)
  in
  let t1 = Span.now () in
  let minor_words = Gc.minor_words () -. w0 in
  (match (spans, vmm_run_id) with
  | Some rec_, Some vr ->
    let root = Span.fresh_id rec_ in
    Span.add_with_id rec_ ~id:root ~name:"bench.run" ~run ~parent:(-1)
      t0 t1;
    if !builds = 2 && Option.is_some !mon then begin
      let add name parent a z =
        Span.add rec_ ~name ~run ~parent a z
      in
      let pr = Span.fresh_id rec_ in
      Span.add_with_id rec_ ~id:pr ~name:"ppc.reference" ~run
        ~parent:root t0 b.(1);
      add "workloads.instantiate" pr b.(0) i.(0);
      add "workloads.instantiate" root b.(1) i.(1);
      add "vmm.create" root i.(1) !ti;
      add "obs.attach" root !ti !tp;
      Span.add_with_id rec_ ~id:vr ~name:"vmm.run" ~run ~parent:root
        !tp t1
    end
  | _ -> ());
  { prog = w.name; index; latency = Int64.sub t1 t0; queue = 0L; outcome;
    code_bytes =
      (match outcome with Verified r -> r.code_bytes | Failed _ -> 0);
    flight_events =
      (match !flight with Some f -> Obs.Flight.total f | None -> 0);
    minor_words; mon = !mon }

(* One client's closed loop.  With [spans], every item runs twice in a
   row, untraced then traced, so the two sides see the same process
   state (heap size, caches, directory contents) and their difference is
   the tracing overhead alone. *)
let client_loop ~more ~spans ~item =
  let u = ref [] and t = ref [] and wu = ref 0L and wt = ref 0L in
  let timed acc window sp k =
    let a = Span.now () in
    let s = item k sp in
    window := Int64.add !window (Int64.sub (Span.now ()) a);
    acc := s :: !acc
  in
  let k = ref 0 in
  while more !k do
    timed u wu None !k;
    if Option.is_some spans then timed t wt spans !k;
    incr k
  done;
  ( { samples = List.rev !u; window = !wu },
    { samples = List.rev !t; window = !wt } )

let merge phases =
  { samples = List.concat_map (fun p -> p.samples) phases;
    window = List.fold_left (fun a p -> Int64.add a p.window) 0L phases }

let single_client ~more ~spans ~item =
  let gc0 = Gc.quick_stat () in
  let t0 = Span.now () in
  let u, t = client_loop ~more ~spans ~item in
  { untraced = u; traced = Option.map (fun _ -> t) spans;
    wall = Int64.sub (Span.now ()) t0; gc0;
    gc1 = Gc.quick_stat (); gate_waits = 0; leaked_pins = 0;
    inflight_keys = 0 }

(* --- registry ---------------------------------------------------------- *)

let registry_block = List.length Workloads.Registry.all

let registry ~crash_dir ~programs ~more ~spans =
  let progs = Array.of_list programs in
  single_client ~more ~spans ~item:(fun k spans ->
      verified_run ~crash_dir ?spans ~index:k
        progs.(k mod Array.length progs))

(* --- coldcode ---------------------------------------------------------- *)

(* The population runs in passes until the time is up.  Each pass has a
   cache directory of its own, fresh for this benchmark run and removed
   once the next pass starts, so every run of a program is its first
   sight of its cache.  Traced runs get directories of their own too. *)
let coldcode ~crash_dir ~tcache_dir ~seed ~more ~spans =
  let n = Seeded.cold_programs in
  single_client ~more ~spans ~item:(fun k spans ->
      let dir pass =
        Printf.sprintf "%s-%s%d" tcache_dir
          (if Option.is_none spans then "" else "traced-")
          pass
      in
      let pass = k / n and index = k mod n in
      if index = 0 && pass > 0 then Serve.Session.rm_rf (dir (pass - 1));
      verified_run ~crash_dir ~tcache_dir:(dir pass) ?spans ~run:k ~index
        (Seeded.cold_program ~seed ~k:index))

(* --- serve_warm -------------------------------------------------------- *)

type fleet = { pool : Serve.Pool.t; shared : Serve.Shared.t }

let serve_clients = 2

(* Serve.Session outcomes reuse [Run.result]; the session's own typed
   failures become [Failed] with their class. *)
let session_outcome (o : Serve.Session.outcome) =
  match o.result with
  | Ok r -> verdict r
  | Error f ->
    Failed
      (Serve.Session.failure_class f ^ ": " ^ Serve.Session.failure_detail f)

(* Resident translated code of a finished session's VMM: on a warm
   cache every page was installed from disk, none translated. *)
let resident_code_bytes (vmm : Vmm.Monitor.t) =
  Hashtbl.fold
    (fun _ (p : Translator.Translate.xpage) n -> n + p.code_bytes)
    vmm.tr.pages 0

(** Start the pool and warm the shared cache with one session of every
    registry program.  Raises if a warm-up session fails. *)
let start_fleet ~dir ~first_id =
  let shared = Serve.Shared.create ~dir () in
  let pool = Serve.Pool.create ~domains:serve_clients () in
  let outs = Array.make (Array.length Seeded.names) None in
  Array.iteri
    (fun i name ->
      Serve.Pool.submit pool (fun () ->
          outs.(i) <-
            Some (Serve.Session.run ~shared ~id:(first_id + i) name)))
    Seeded.names;
  Serve.Pool.drain pool;
  Array.iter
    (function
      | Some o when Serve.Session.ok o -> ()
      | Some o ->
        failwith
          (match session_outcome o with
          | Failed m -> "warm-up session failed: " ^ m
          | Verified _ -> "warm-up session failed")
      | None -> failwith "warm-up session vanished")
    outs;
  { pool; shared }

let stop_fleet f = Serve.Pool.shutdown f.pool

(* One session, submitted to the pool; returns once it has replied. *)
let session fleet ~name ~id ~index ~spans =
  let lock = Mutex.create () and replied = Condition.create () in
  let slot = ref None in
  let vmm_run_id = Option.map Span.fresh_id spans in
  let submit = Span.now () in
  Serve.Pool.submit fleet.pool (fun () ->
      let start = Span.now () in
      let w0 = Gc.minor_words () in
      let ti = ref start and vmm = ref None and mon = ref None in
      let instrument v =
        ti := Span.now ();
        vmm := Some v;
        match (spans, vmm_run_id) with
        | Some rec_, Some vr ->
          mon :=
            Some (Stack.Monitor_spans.attach rec_ ~run:id ~parent:vr
                    ~start:!ti v)
        | _ -> ()
      in
      let o = Serve.Session.run ~instrument ~shared:fleet.shared ~id name in
      let stop = Span.now () in
      let words = Gc.minor_words () -. w0 in
      let code = Option.fold ~none:0 ~some:resident_code_bytes !vmm in
      Mutex.lock lock;
      slot := Some (o, start, !ti, stop, words, code, !mon);
      Condition.signal replied;
      Mutex.unlock lock);
  Mutex.lock lock;
  while !slot = None do Condition.wait replied lock done;
  Mutex.unlock lock;
  let reply = Span.now () in
  let o, start, ti, stop, words, code, mon = Option.get !slot in
  (match (spans, vmm_run_id) with
  | Some rec_, Some vr ->
    let root = Span.fresh_id rec_ in
    Span.add_with_id rec_ ~id:root ~name:"bench.run" ~run:id ~parent:(-1)
      submit reply;
    Span.add rec_ ~name:"serve.queue" ~run:id ~parent:root submit start;
    (* Session.run is opaque up to its VMM: this span holds the
       reference run, both workload images and Monitor.create ... *)
    Span.add rec_ ~name:"ppc.reference" ~run:id ~parent:root start ti;
    (* ... and this one Monitor.run, the final compare and the
       session's teardown (unpin, budget) *)
    Span.add_with_id rec_ ~id:vr ~name:"vmm.run" ~run:id ~parent:root ti stop
  | _ -> ());
  { prog = name; index; latency = Int64.sub reply submit;
    queue = Int64.sub start submit; outcome = session_outcome o;
    code_bytes = code; flight_events = 0; minor_words = words; mon }

(* Two closed-loop clients, each a system thread that submits its next
   session only once the previous one has replied — a synchronous
   `daisy client` caller.  Sessions run on the pool's two domains. *)
let serve_warm fleet ~seed ~more ~spans =
  let gc0 = Gc.quick_stat () in
  let before = Serve.Shared.stats fleet.shared in
  let t0 = Span.now () in
  let results = Array.make serve_clients None in
  let client c () =
    results.(c) <-
      Some
        (client_loop ~more:(more c) ~spans ~item:(fun k spans ->
             let traced = if Option.is_none spans then 0 else 1 in
             session fleet
               ~name:(Seeded.session_program ~seed ~client:c ~k)
               ~id:((c * 1_000_000) + (2 * k) + traced)
               ~index:k ~spans))
  in
  let threads = List.init serve_clients (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join threads;
  let wall = Int64.sub (Span.now ()) t0 in
  let after = Serve.Shared.stats fleet.shared in
  let sides = Array.to_list results |> List.map Option.get in
  { untraced = merge (List.map fst sides);
    traced = Option.map (fun _ -> merge (List.map snd sides)) spans;
    wall; gc0; gc1 = Gc.quick_stat ();
    gate_waits = after.gate_waits - before.gate_waits;
    leaked_pins = after.pinned_keys; inflight_keys = after.inflight_keys }
