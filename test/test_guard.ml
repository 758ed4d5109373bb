(* Tests for the supervision subsystem (lib/guard): deterministic
   checkpoint/restore, graceful SIGTERM shutdown, watchdog deadlines,
   and sampled shadow verification. *)

module Run = Vmm.Run
module Monitor = Vmm.Monitor
module Checkpoint = Guard.Checkpoint
module Supervise = Guard.Supervise
module Watchdog = Guard.Watchdog
module Shadow = Guard.Shadow
module Wl = Workloads.Wl

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)

let rm_rf dir =
  let rec go path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun f -> go (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  go dir

let fresh_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy-guard-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Tcache.Store.mkdir_p dir;
  dir

(* ------------------------------------------------------------------ *)
(* Checkpoint/restore                                                  *)

(* Cut a run short with a small fuel budget — the in-process stand-in
   for kill -9 — then resume from the checkpoint directory and let
   [Run.run]'s differential verification prove the completed execution
   is bit-identical to an uninterrupted one: same exit code, same
   architected state, same memory, same console. *)
let test_resume_bit_identical () =
  let dir = fresh_dir "resume" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, entry = Wl.instantiate w in
  let vmm = Monitor.create mem in
  ignore
    (Supervise.attach ~checkpoint_dir:dir ~checkpoint_every:2_000
       ~workload:w.name vmm);
  let code = Monitor.run vmm ~entry ~fuel:20_000 in
  Alcotest.(check (option int)) "cut short mid-run" None code;
  Alcotest.(check bool) "snapshots written" true
    (vmm.stats.checkpoints_written > 0);
  let l = Option.get (Checkpoint.load ~dir ()) in
  Alcotest.(check int) "nothing dropped" 0 l.dropped;
  Alcotest.(check string) "workload recorded" "wc" l.last.s_workload;
  let r =
    Run.run w
      ~prepare:(fun vmm ->
        let pc, consumed = Checkpoint.restore_into l vmm in
        Some (pc, max 1 ((w.fuel * 2) - consumed)))
  in
  Alcotest.(check (option int)) "golden exit code" (Some 4691) r.exit_code;
  Alcotest.(check bool) "resumed run was clean" false (Run.degraded r.stats);
  rm_rf dir

(* The degradation ladder's verdict must survive a round-trip: a run
   that was degraded before the crash must still report exit 4 after
   resuming, even if nothing fails again. *)
let test_degraded_state_survives () =
  let dir = fresh_dir "degraded" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  vmm.stats.quarantines <- 3;
  vmm.stats.interp_pinned <- 1;
  vmm.stats.deadline_hits <- 2;
  vmm.stats.vliws <- 1000;
  vmm.stats.interp_insns <- 500;
  Hashtbl.replace vmm.page_health 0x1000
    { Monitor.failures = 5; backoff_until = 1234; pinned_interp = true };
  let ck = Checkpoint.attach ~dir ~every:1 ~workload:w.name vmm in
  Ppc.Mem.store32 vmm.mem (Wl.scratch_base + 0x40) 0xBEEF;
  ignore (Checkpoint.write ck ~pc:0x1058);
  let l = Option.get (Checkpoint.load ~dir ()) in
  let mem2, _ = Wl.instantiate w in
  let vmm2 = Monitor.create mem2 in
  let pc, consumed = Checkpoint.restore_into l vmm2 in
  Alcotest.(check int) "resume pc" 0x1058 pc;
  Alcotest.(check int) "consumed cycles" 1500 consumed;
  Alcotest.(check int) "quarantines" 3 vmm2.stats.quarantines;
  Alcotest.(check int) "pins" 1 vmm2.stats.interp_pinned;
  Alcotest.(check int) "deadline hits" 2 vmm2.stats.deadline_hits;
  Alcotest.(check bool) "still degraded" true (Run.degraded vmm2.stats);
  (match Hashtbl.find_opt vmm2.page_health 0x1000 with
  | Some h ->
    Alcotest.(check int) "failures" 5 h.Monitor.failures;
    Alcotest.(check int) "backoff" 1234 h.backoff_until;
    Alcotest.(check bool) "pin survives" true h.pinned_interp
  | None -> Alcotest.fail "page health lost");
  Alcotest.(check int) "dirty memory restored" 0xBEEF
    (Ppc.Mem.load32 vmm2.mem (Wl.scratch_base + 0x40));
  rm_rf dir

(* A corrupt snapshot invalidates itself and everything after it (later
   deltas assume the earlier image), so [load] restores the longest
   valid prefix. *)
let test_longest_valid_prefix () =
  let dir = fresh_dir "prefix" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  let ck = Checkpoint.attach ~dir ~every:1 ~workload:w.name vmm in
  let addr i = Wl.scratch_base + (i * 8) in
  List.iter
    (fun i ->
      Ppc.Mem.store32 vmm.mem (addr i) (0x100 + i);
      ignore (Checkpoint.write ck ~pc:0x1000))
    [ 0; 1; 2 ];
  let flip_byte path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let b = Bytes.of_string s in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  (* corrupt the middle snapshot: only ck-000000 survives *)
  flip_byte (Filename.concat dir "ck-000001.dgck");
  let l = Option.get (Checkpoint.load ~dir ()) in
  Alcotest.(check int) "valid prefix" 1 l.valid;
  Alcotest.(check int) "rest dropped" 2 l.dropped;
  let mem2, _ = Wl.instantiate w in
  let vmm2 = Monitor.create mem2 in
  ignore (Checkpoint.restore_into l vmm2);
  Alcotest.(check int) "first delta applied" 0x100
    (Ppc.Mem.load32 vmm2.mem (addr 0));
  Alcotest.(check int) "later deltas not applied" 0
    (Ppc.Mem.load32 vmm2.mem (addr 1));
  (* corrupt only the last: the first two restore *)
  flip_byte (Filename.concat dir "ck-000002.dgck");
  Sys.remove (Filename.concat dir "ck-000001.dgck");
  ignore (Checkpoint.write ck ~pc:0x1000);
  (* directory now: valid 000000, (rewritten valid 000003), corrupt 000002 —
     reload sees 000000 valid, then 000002 invalid, drops the rest *)
  let l = Option.get (Checkpoint.load ~dir ()) in
  Alcotest.(check int) "stops at first bad file" 1 l.valid;
  rm_rf dir;
  Alcotest.(check bool) "missing dir loads as empty" true
    (Checkpoint.load ~dir () = None)

(* SIGTERM discipline, without the signal: the flag is polled at commit
   boundaries only, a final snapshot is written, and {!Terminated}
   unwinds.  Resuming from that snapshot completes the run with the
   golden exit code. *)
let test_graceful_termination_and_resume () =
  let dir = fresh_dir "sigterm" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, entry = Wl.instantiate w in
  let vmm = Monitor.create mem in
  ignore
    (Supervise.attach ~checkpoint_dir:dir ~checkpoint_every:max_int
       ~workload:w.name vmm);
  Supervise.request_termination ();
  (match Monitor.run vmm ~entry ~fuel:(w.fuel * 2) with
  | exception Supervise.Terminated -> ()
  | _ -> Alcotest.fail "run was not terminated");
  Supervise.terminate := false;
  Alcotest.(check int) "final snapshot written" 1
    vmm.stats.checkpoints_written;
  let l = Option.get (Checkpoint.load ~dir ()) in
  let r =
    Run.run w
      ~prepare:(fun vmm ->
        let pc, consumed = Checkpoint.restore_into l vmm in
        Some (pc, max 1 ((w.fuel * 2) - consumed)))
  in
  Alcotest.(check (option int)) "completes after resume" (Some 4691)
    r.exit_code;
  rm_rf dir

(* Resuming under different translation parameters is refused: the run
   would no longer be comparable to the one that wrote the snapshot. *)
let test_incompatible_params_refused () =
  let dir = fresh_dir "incompat" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  let ck = Checkpoint.attach ~dir ~every:1 ~workload:w.name vmm in
  ignore (Checkpoint.write ck ~pc:0x1000);
  let l = Option.get (Checkpoint.load ~dir ()) in
  let mem2, _ = Wl.instantiate w in
  let vmm2 =
    Monitor.create
      ~params:{ Translator.Params.default with page_size = 512 }
      mem2
  in
  (match Checkpoint.restore_into l vmm2 with
  | exception Checkpoint.Incompatible _ -> ()
  | _ -> Alcotest.fail "fingerprint mismatch not refused");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Watchdog deadlines                                                  *)

(* A translation budget every page overruns: the ladder quarantines
   each page, the run completes fully interpreted, and [Run.run]'s
   differential verification still passes — a deadline is a performance
   event, never a correctness one. *)
let test_translate_deadline_degrades () =
  let w = Workloads.Registry.by_name "wc" in
  let captured = ref None in
  let r =
    Run.run w
      ~instrument:(fun vmm ->
        captured := Some vmm;
        (* a negative budget makes every translation overrun,
           deterministically — zero would race the clock's granularity *)
        Watchdog.attach { Watchdog.none with translate_s = Some (-1.) } vmm)
  in
  let vmm = Option.get !captured in
  Alcotest.(check (option int)) "still correct" (Some 4691) r.exit_code;
  Alcotest.(check bool) "deadlines fired" true (vmm.stats.deadline_hits > 0);
  Alcotest.(check bool) "run degraded" true (Run.degraded r.stats);
  Alcotest.(check bool) "fell back to interpretation" true
    (vmm.stats.interp_insns > 0)

(* The runaway-loop detector: a branch-to-self revisits the same commit
   boundary forever with no interpretation in between.  The progress
   limit quarantines the page; the (genuinely infinite) loop then burns
   its fuel in the interpreter. *)
let spin_workload =
  { Wl.name = "spin"; description = "infinite loop (watchdog test)";
    build =
      (fun a ->
        Ppc.Asm.label a "main";
        Ppc.Asm.b a "main");
    init = (fun _ _ -> ()); mem_size = Wl.default_mem_size; fuel = 5_000 }

let test_progress_detector () =
  let mem, entry = Wl.instantiate spin_workload in
  let vmm = Monitor.create mem in
  Watchdog.attach { Watchdog.none with progress = Some 16 } vmm;
  let code = Monitor.run vmm ~entry ~fuel:10_000 in
  Alcotest.(check (option int)) "loop never exits" None code;
  Alcotest.(check bool) "runaway detected" true (vmm.stats.deadline_hits > 0);
  Alcotest.(check bool) "page quarantined" true (vmm.stats.quarantines > 0);
  Alcotest.(check bool) "loop continued by interpretation" true
    (vmm.stats.interp_insns > 0)

(* ------------------------------------------------------------------ *)
(* Sampled shadow verification                                         *)

(* A silently corrupted branch sense commits plausible state down the
   wrong path — no digest or datapath check can see it.  With shadow
   verification at 100% sampling the run must detect every divergence,
   write a reproducer, repair, and complete with the correct result
   via the ladder. *)
let test_shadow_catches_silent_faults () =
  let dir = fresh_dir "shadow" in
  let w = Workloads.Registry.by_name "wc" in
  let inject =
    Fault.Inject.create { Fault.Inject.quiet with seed = 7; silent_rate = 1.0 }
  in
  let captured = ref None in
  let r =
    Run.run w
      ~instrument:(fun vmm ->
        captured := Some vmm;
        Fault.Inject.attach inject vmm;
        ignore
          (Shadow.attach
             { Shadow.default with sample = 1.0; out_dir = Some dir }
             vmm))
  in
  let vmm = Option.get !captured in
  Alcotest.(check (option int)) "correct result despite corruption"
    (Some 4691) r.exit_code;
  Alcotest.(check bool) "faults were injected" true (inject.n_silent > 0);
  Alcotest.(check bool) "every live corruption caught" true
    (vmm.stats.shadow_divergences > 0);
  Alcotest.(check bool) "run degraded" true (Run.degraded r.stats);
  Alcotest.(check bool) "reproducer written" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".txt")
       (Sys.readdir dir));
  rm_rf dir

(* Without injected faults the shadow must stay silent: sampled replays
   verify and the run is not degraded. *)
let test_shadow_clean_run () =
  let w = Workloads.Registry.by_name "wc" in
  let captured = ref None in
  let r =
    Run.run w
      ~instrument:(fun vmm ->
        captured := Some vmm;
        ignore (Shadow.attach { Shadow.default with sample = 0.2 } vmm))
  in
  let vmm = Option.get !captured in
  Alcotest.(check (option int)) "clean result" (Some 4691) r.exit_code;
  Alcotest.(check bool) "packets were checked" true
    (vmm.stats.shadow_checked > 0);
  Alcotest.(check int) "no divergences" 0 vmm.stats.shadow_divergences;
  Alcotest.(check bool) "not degraded" false (Run.degraded r.stats)

(* Checkpointing and shadow verification compose: a degraded-by-shadow
   run cut short and resumed still reports its divergences. *)
let test_shadow_divergence_survives_checkpoint () =
  let dir = fresh_dir "shadow-ck" in
  let w = Workloads.Registry.by_name "wc" in
  let inject =
    Fault.Inject.create { Fault.Inject.quiet with seed = 7; silent_rate = 1.0 }
  in
  let mem, entry = Wl.instantiate w in
  let vmm = Monitor.create mem in
  Fault.Inject.attach inject vmm;
  ignore
    (Supervise.attach ~checkpoint_dir:dir ~checkpoint_every:2_000
       ~shadow:{ Shadow.default with sample = 1.0 } ~workload:w.name vmm);
  ignore (Monitor.run vmm ~entry ~fuel:50_000);
  Alcotest.(check bool) "divergences before the cut" true
    (vmm.stats.shadow_divergences > 0);
  let l = Option.get (Checkpoint.load ~dir ()) in
  let mem2, _ = Wl.instantiate w in
  let vmm2 = Monitor.create mem2 in
  ignore (Checkpoint.restore_into l vmm2);
  Alcotest.(check int) "divergence count survives"
    vmm.stats.shadow_divergences vmm2.stats.shadow_divergences;
  Alcotest.(check bool) "degraded verdict survives" true
    (Run.degraded vmm2.stats);
  rm_rf dir

(* The termination poll costs a hook call per VLIW, so a flight
   recorder alone installs none: with no checkpointer and no SIGTERM
   handler nothing can request the stop.  Once the handler is
   installed, a requested stop still dumps the recorder and unwinds
   with {!Terminated} at a boundary. *)
let test_flight_only_tick () =
  let dir = fresh_dir "flight-tick" in
  let w = Workloads.Registry.by_name "wc" in
  let attach () =
    let mem, entry = Wl.instantiate w in
    let vmm = Monitor.create mem in
    let flight = Obs.Flight.create ~dir () in
    ignore (Supervise.attach ~flight ~workload:w.name vmm);
    (vmm, entry, flight)
  in
  let vmm, _, _ = attach () in
  Alcotest.(check bool) "no tick without a checkpointer or handler" true
    (vmm.tick_hook = None);
  Fun.protect
    ~finally:(fun () ->
      Supervise.terminate := false;
      Supervise.sigterm_installed := false;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      rm_rf dir)
    (fun () ->
      Supervise.install_sigterm ();
      let vmm, entry, flight = attach () in
      Alcotest.(check bool) "tick installed with a handler" true
        (vmm.tick_hook <> None);
      Supervise.request_termination ();
      (match Monitor.run vmm ~entry ~fuel:(w.fuel * 2) with
      | exception Supervise.Terminated -> ()
      | _ -> Alcotest.fail "run was not terminated");
      Alcotest.(check bool) "stopped at the first boundary" true
        (vmm.stats.vliws <= 1);
      Alcotest.(check bool) "flight recorder dumped" true
        (List.mem_assoc "sigterm" (Obs.Flight.dumps flight)
        && Sys.file_exists (Filename.concat dir "crash-sigterm.json")))

let () =
  Alcotest.run "guard"
    [ ( "checkpoint",
        [ Alcotest.test_case "resume is bit-identical" `Quick
            test_resume_bit_identical;
          Alcotest.test_case "degraded state survives" `Quick
            test_degraded_state_survives;
          Alcotest.test_case "longest valid prefix" `Quick
            test_longest_valid_prefix;
          Alcotest.test_case "graceful termination" `Quick
            test_graceful_termination_and_resume;
          Alcotest.test_case "flight-only attach: no tick" `Quick
            test_flight_only_tick;
          Alcotest.test_case "incompatible params refused" `Quick
            test_incompatible_params_refused ] );
      ( "watchdog",
        [ Alcotest.test_case "translate deadline degrades" `Quick
            test_translate_deadline_degrades;
          Alcotest.test_case "progress detector" `Quick test_progress_detector ]
      );
      ( "shadow",
        [ Alcotest.test_case "catches silent faults" `Quick
            test_shadow_catches_silent_faults;
          Alcotest.test_case "clean run stays silent" `Quick
            test_shadow_clean_run;
          Alcotest.test_case "divergences survive checkpoint" `Quick
            test_shadow_divergence_survives_checkpoint ] ) ]
