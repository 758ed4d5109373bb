(* The supervision front door: one call wires checkpointing, watchdog
   deadlines and shadow verification into a VMM, and one exception
   carries a graceful SIGTERM shutdown out of it.

   The checkpoint cadence and the termination poll both live on the
   VMM's [tick_hook], which fires at committed boundaries only — so a
   snapshot is always of a precise architected state, and a SIGTERM
   never tears a packet in half: the handler just sets a flag, and the
   next boundary writes a final snapshot and unwinds with
   {!Terminated}.  The driver maps that to exit 143 (128+SIGTERM), the
   code a plainly-killed process would have — except this one left a
   resumable checkpoint behind. *)

exception Terminated
(** raised at a commit boundary after the final snapshot is written *)

(* A flag, not a callback: OCaml signal handlers run at safe points,
   and the only async-signal-safe action is setting a word. *)
let terminate = ref false

let request_termination () = terminate := true

(* Whether anything can set [terminate] asynchronously.  Without a
   handler, nothing but an explicit [request_termination] can, so
   [attach] installs no per-boundary poll for it. *)
let sigterm_installed = ref false

(** Install a SIGTERM handler that requests a graceful stop at the next
    commit boundary.  No-op on platforms without signals. *)
let install_sigterm () =
  try
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> terminate := true));
    sigterm_installed := true
  with Invalid_argument _ | Sys_error _ -> ()

(** Attach the supervision stack to [vmm].  [checkpoint_dir] enables
    periodic snapshots every [checkpoint_every] VMM cycles (sequence
    numbering continues from [checkpoint_seq] on resume); [watchdog]
    sets the deadline budgets; [shadow] enables sampled verification;
    [flight] is dumped (reason ["sigterm"]) before the graceful-stop
    unwind, so even a killed run leaves its event tail behind.  Returns
    the checkpointer, if one was created, so callers can force a final
    snapshot.

    The tick that writes snapshots and polls for termination runs at
    every VLIW boundary, so it is installed only when it has work: a
    checkpointer, or a SIGTERM handler ({!install_sigterm}, called
    before [attach]) that can request the graceful stop.  A flight
    recorder alone adds no per-VLIW hook. *)
let attach ?checkpoint_dir ?(checkpoint_every = 50_000) ?(checkpoint_seq = 0)
    ?(watchdog = Watchdog.none) ?shadow ?flight ~workload
    (vmm : Vmm.Monitor.t) =
  Watchdog.attach watchdog vmm;
  (match shadow with
  | Some cfg -> ignore (Shadow.attach cfg vmm)
  | None -> ());
  let ck =
    match checkpoint_dir with
    | None -> None
    | Some dir ->
      Some
        (Checkpoint.attach ~dir ~every:checkpoint_every ~seq:checkpoint_seq
           ~workload vmm)
  in
  (match ck with
  | None when not !sigterm_installed -> ()
  | _ ->
    let prev = vmm.tick_hook in
    vmm.tick_hook <-
      Some
        (fun ~pc ->
          (match prev with Some f -> f ~pc | None -> ());
          if !terminate then begin
            (match ck with
            | Some ck -> ignore (Checkpoint.write ck ~pc)
            | None -> ());
            (match flight with
            | Some f -> ignore (Obs.Flight.dump f ~reason:"sigterm")
            | None -> ());
            raise Terminated
          end;
          match ck with Some ck -> Checkpoint.maybe ck ~pc | None -> ()));
  ck
