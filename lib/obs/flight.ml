(* The flight recorder: always-on, bounded, and only interesting when
   something goes wrong.

   A small ring of recent VMM events runs alongside every instrumented
   execution; on a trigger — shadow divergence, watchdog strike,
   quarantine, fatal signal, verification mismatch — the recorder
   writes a crash-dump file with everything a post-mortem needs: the
   event tail, the metrics registry, the per-page health table, and the
   region graph.

   Overhead discipline: because the recorder is on by default, its
   record path must cost next to nothing.  The ring stores the
   {!Vmm.Monitor.event} values themselves — already allocated by the
   monitor's emit — so recording is two array/int stores and zero
   allocation.  Rendering an event to JSON ({!render}) happens only at
   dump time (and in Bridge's full tracer, which is opt-in).

   Dump policy is first-wins per reason: the first quarantine of a run
   captures the context that *led to* the failure (the trigger event is
   the newest entry in the tail); later repeats of the same reason are
   suppressed so a quarantine storm cannot turn the recorder into an
   I/O load.  Dumping is best-effort — a recorder must never take down
   the run it is recording, so I/O errors are swallowed and reported
   only through the return value. *)

module Monitor = Vmm.Monitor

type t = {
  buf : Monitor.event array;
  capacity : int;
  mutable len : int;      (* valid entries *)
  mutable head : int;     (* next write position *)
  mutable total : int;    (* events ever pushed *)
  dir : string;
  mutable metrics : Metrics.t option;
  mutable profile : Profile.t option;
  mutable health : (unit -> Json.t) option;
      (** reads the VMM's page-health table at dump time (set by
          Bridge.attach, which is when a VMM exists) *)
  mutable dumps : (string * string) list;
      (** (reason, path) already written, newest first *)
  io : Fsio.t;
  mutable io_degraded : int;
      (** storage faults absorbed while writing dumps *)
  mutable pending : (string * string) list;
      (** (file, contents) dumps a storage fault kept off the disk —
          a bounded lossy buffer so the post-mortem survives in memory
          and fsck/HEALTH can report the loss *)
}

let default_capacity = 8192

(* dumps parked in memory by storage faults: enough for every distinct
   trigger reason, small enough that a fault storm cannot grow the heap *)
let max_pending = 16

(* never surfaced: [len] bounds every read *)
let dummy_event = Monitor.External_interrupt { cycle = -1 }

let create ?(capacity = default_capacity) ?(dir = "daisy-crash")
    ?(io = Fsio.real) () =
  if capacity <= 0 then invalid_arg "Flight.create: capacity";
  { buf = Array.make capacity dummy_event; capacity; len = 0; head = 0;
    total = 0; dir; metrics = None; profile = None; health = None;
    dumps = []; io; io_degraded = 0; pending = [] }

let set_metrics t m = t.metrics <- Some m
let set_profile t p = t.profile <- Some p
let set_health t f = t.health <- Some f

(** The recorder's event feed (Bridge pushes every event): two stores,
    no allocation. *)
let push t ev =
  t.buf.(t.head) <- ev;
  t.head <- t.head + 1;
  if t.head = t.capacity then t.head <- 0;
  if t.len < t.capacity then t.len <- t.len + 1;
  t.total <- t.total + 1

let total t = t.total
let dropped t = t.total - t.len

(** Ring contents, oldest first. *)
let events t =
  List.init t.len (fun i ->
      t.buf.((t.head - t.len + i + t.capacity) mod t.capacity))

let dumps t = List.rev t.dumps

(** Storage faults absorbed while dumping (each parked the rendered
    dump in memory instead). *)
let io_degraded t = t.io_degraded

(** Dumps currently parked in memory by storage faults: [(file,
    contents)], oldest first. *)
let pending_dumps t = List.rev t.pending

(* --- event rendering ------------------------------------------------

   The single event -> (ts, name, phase, args) mapping, shared by the
   crash dump below and by Bridge's full-size tracer, so a dump's tail
   is exactly the trace a tracer would have kept. *)

let deadline_stage_string : Monitor.deadline_stage -> string = function
  | Dtranslate -> "translate"
  | Dcompile -> "compile"
  | Dprogress -> "progress"

let cross_kind_string : Monitor.cross_kind -> string = function
  | Xdirect -> "direct"
  | Xlr -> "lr"
  | Xctr -> "ctr"
  | Xgpr -> "gpr"
  | Xinvalid_entry -> "invalid_entry"

let rollback_kind_string : Monitor.rollback_kind -> string = function
  | RbAlias -> "alias"
  | RbSelfmod -> "selfmod"
  | RbFault -> "fault"
  | RbTag -> "tag"
  | RbTagged_target -> "tagged_target"

let edge_kind_string : Monitor.edge_kind -> string = function
  | Etaken -> "taken"
  | Efall -> "fall"
  | Elr -> "lr"
  | Ectr -> "ctr"
  | Egpr -> "gpr"
  | Einterp -> "interp"

let render (ev : Monitor.event) :
    int * string * Trace.phase * (string * Json.t) list =
  match ev with
  | Translate_begin { cycle; page; entry } ->
    ( cycle, "translate", Trace.B,
      [ ("page", Json.Int page); ("entry", Json.Int entry) ] )
  | Translate_end { cycle; page; entry; insns; vliws; bytes; groups } ->
    ( cycle, "translate", Trace.E,
      [ ("page", Json.Int page); ("entry", Json.Int entry);
        ("insns", Json.Int insns); ("vliws", Json.Int vliws);
        ("bytes", Json.Int bytes); ("groups", Json.Int groups) ] )
  | Interp_begin { cycle; pc } ->
    (cycle, "interp", Trace.B, [ ("pc", Json.Int pc) ])
  | Interp_end { cycle; pc; insns; next } ->
    ( cycle, "interp", Trace.E,
      [ ("pc", Json.Int pc); ("insns", Json.Int insns);
        ("next", Json.Int next) ] )
  | Rolled_back { cycle; pc; kind } ->
    ( cycle, "rollback", Trace.I,
      [ ("pc", Json.Int pc); ("kind", Json.Str (rollback_kind_string kind)) ]
    )
  | Cross_page { cycle; kind; target } ->
    ( cycle, "cross_page", Trace.I,
      [ ("kind", Json.Str (cross_kind_string kind));
        ("target", Json.Int target) ] )
  | Exit_edge { cycle; src; dst; kind } ->
    ( cycle, "exit_edge", Trace.I,
      [ ("src", Json.Int src); ("dst", Json.Int dst);
        ("kind", Json.Str (edge_kind_string kind)) ] )
  | Page_enter { cycle; page; vliws_so_far = _ } ->
    (cycle, "page_enter", Trace.I, [ ("page", Json.Int page) ])
  | Retranslate_adaptive { cycle; page } ->
    (cycle, "adaptive_retranslation", Trace.I, [ ("page", Json.Int page) ])
  | Castout { cycle; page } ->
    (cycle, "castout", Trace.I, [ ("page", Json.Int page) ])
  | Code_invalidated { cycle; page } ->
    (cycle, "code_invalidation", Trace.I, [ ("page", Json.Int page) ])
  | Syscall_trap { cycle; next } ->
    (cycle, "syscall", Trace.I, [ ("next", Json.Int next) ])
  | External_interrupt { cycle } -> (cycle, "external_interrupt", Trace.I, [])
  | Tcache_hit { cycle; page; vliws; bytes; seconds } ->
    ( cycle, "tcache_hit", Trace.I,
      [ ("page", Json.Int page); ("vliws", Json.Int vliws);
        ("bytes", Json.Int bytes); ("ms", Json.Float (seconds *. 1000.)) ] )
  | Tcache_miss { cycle; page } ->
    (cycle, "tcache_miss", Trace.I, [ ("page", Json.Int page) ])
  | Tcache_corrupt { cycle; page; reason } ->
    ( cycle, "tcache_corrupt", Trace.I,
      [ ("page", Json.Int page); ("reason", Json.Str reason) ] )
  | Tcache_quarantine { cycle; page; reason } ->
    ( cycle, "tcache_quarantine", Trace.I,
      [ ("page", Json.Int page); ("reason", Json.Str reason) ] )
  | Tcache_persist { cycle; page; bytes } ->
    ( cycle, "tcache_persist", Trace.I,
      [ ("page", Json.Int page); ("bytes", Json.Int bytes) ] )
  | Tcache_flush { cycle; pages } ->
    (cycle, "tcache_flush", Trace.I, [ ("pages", Json.Int pages) ])
  | Tcache_evict { cycle; page } ->
    (cycle, "tcache_evict", Trace.I, [ ("page", Json.Int page) ])
  | Tcache_skipped { cycle; page; reason } ->
    ( cycle, "tcache_skipped", Trace.I,
      [ ("page", Json.Int page); ("reason", Json.Str reason) ] )
  | Translator_fault { cycle; page; entry; reason } ->
    ( cycle, "translator_fault", Trace.I,
      [ ("page", Json.Int page); ("entry", Json.Int entry);
        ("reason", Json.Str reason) ] )
  | Exec_fault { cycle; page; pc; reason } ->
    ( cycle, "exec_fault", Trace.I,
      [ ("page", Json.Int page); ("pc", Json.Int pc);
        ("reason", Json.Str reason) ] )
  | Quarantine { cycle; page; failures; until } ->
    ( cycle, "quarantine", Trace.I,
      [ ("page", Json.Int page); ("failures", Json.Int failures);
        ("until", Json.Int until) ] )
  | Degrade_retry { cycle; page } ->
    (cycle, "degrade_retry", Trace.I, [ ("page", Json.Int page) ])
  | Interp_pinned { cycle; page } ->
    (cycle, "interp_pinned", Trace.I, [ ("page", Json.Int page) ])
  | Vliw_compiled { cycle; page; vliws; seconds } ->
    ( cycle, "vliw_compiled", Trace.I,
      [ ("page", Json.Int page); ("vliws", Json.Int vliws);
        ("ms", Json.Float (seconds *. 1000.)) ] )
  | Deadline { cycle; page; stage; seconds } ->
    ( cycle, "deadline", Trace.I,
      [ ("page", Json.Int page);
        ("stage", Json.Str (deadline_stage_string stage));
        ("ms", Json.Float (seconds *. 1000.)) ] )
  | Shadow_divergence { cycle; page; pc; reason } ->
    ( cycle, "shadow_divergence", Trace.I,
      [ ("page", Json.Int page); ("pc", Json.Int pc);
        ("reason", Json.Str reason) ] )
  | Checkpoint_written { cycle; seq; bytes; pages; seconds } ->
    ( cycle, "checkpoint", Trace.I,
      [ ("seq", Json.Int seq); ("bytes", Json.Int bytes);
        ("pages", Json.Int pages); ("ms", Json.Float (seconds *. 1000.)) ] )
  | Region_promoted { cycle; id; pages; insns; vliws; seconds; cached } ->
    ( cycle, "region_promoted", Trace.I,
      [ ("id", Json.Int id); ("pages", Json.Int pages);
        ("insns", Json.Int insns); ("vliws", Json.Int vliws);
        ("ms", Json.Float (seconds *. 1000.)); ("cached", Json.Bool cached) ] )
  | Region_deopt { cycle; id; page; reason } ->
    ( cycle, "region_deopt", Trace.I,
      [ ("id", Json.Int id); ("page", Json.Int page);
        ("reason", Json.Str reason) ] )
  | Tcache_degraded { cycle; page } ->
    (cycle, "tcache_degraded", Trace.I, [ ("page", Json.Int page) ])
  | Storage_fault { cycle; store; op; reason } ->
    ( cycle, "storage_fault", Trace.I,
      [ ("store", Json.Str store); ("op", Json.Str op);
        ("reason", Json.Str reason) ] )

let ev_json ev =
  let ts, name, ph, args = render ev in
  Json.Obj
    (("ts", Json.Int ts)
    :: ("ph", Json.Str (Trace.phase_string ph))
    :: ("name", Json.Str name)
    :: args)

(* --- crash dumps ----------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let opt f = function Some v -> f v | None -> Json.Null

let dump_json t ~reason =
  Json.Obj
    [ ("reason", Json.Str reason);
      ("events", Json.Arr (List.map ev_json (events t)));
      ("events_total", Json.Int t.total);
      ("events_dropped", Json.Int (dropped t));
      ("metrics", opt Metrics.to_json t.metrics);
      ("health", opt (fun f -> f ()) t.health);
      ("profile", opt (fun p -> Profile.to_json p) t.profile) ]

let write_atomic ?(io = Fsio.real) ~dir ~file contents =
  Fsio.commit io ~dir ~file contents

(* A dump a storage fault kept off the disk is parked in memory — the
   post-mortem is exactly what we must not lose to the failure it
   describes — bounded so a fault storm cannot grow the heap. *)
let park t file contents =
  t.io_degraded <- t.io_degraded + 1;
  if List.length t.pending < max_pending
     && not (List.mem_assoc file t.pending)
  then t.pending <- (file, contents) :: t.pending

(** Write a crash dump for [reason] unless one was already written this
    run.  Returns the path written, [None] when suppressed or when the
    write failed (the recorder never raises — an I/O error or storage
    fault parks the dump in memory instead; see {!pending_dumps}). *)
let dump t ~reason =
  if List.mem_assoc reason t.dumps then None
  else
    let file = "crash-" ^ reason ^ ".json" in
    let contents = Json.to_string (dump_json t ~reason) in
    match
      mkdir_p t.dir;
      write_atomic ~io:t.io ~dir:t.dir ~file contents;
      (match t.profile with
      | Some p -> (
        let ffile = "crash-" ^ reason ^ ".folded" in
        let folded = Profile.to_collapsed p in
        (* the .json landed; losing only the .folded is a degradation,
           not a failed dump *)
        try write_atomic ~io:t.io ~dir:t.dir ~file:ffile folded
        with Sys_error _ | Fsio.Fault _ -> park t ffile folded)
      | None -> ());
      Filename.concat t.dir file
    with
    | path ->
      t.dumps <- (reason, path) :: t.dumps;
      Some path
    | exception (Sys_error _ | Fsio.Fault _) ->
      park t file contents;
      None
