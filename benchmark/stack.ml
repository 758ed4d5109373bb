(* What a run attaches to its VMM.

   [daisy_run] is the stack `daisy run` installs by default: the flight
   recorder plus the region profile, fanned out through [Obs.Bridge],
   and [Guard.Supervise] with the flight recorder (no checkpoints, no
   watchdog budgets, no shadow sampling, no tier-2).  The registry and
   coldcode workloads run with it; serve sessions run with what the
   daemon attaches, which [Serve.Session.run] does itself.

   [Monitor_spans] is the traced run's view inside [Monitor.run]:
   translation, staging, interpretation episodes and the tcache probe
   and persist are reachable only there.  It chains onto whatever
   [event_hook] is already installed and stamps the clock at the
   Monitor's public events.  A span ends at its layer's end event and
   starts at the event the Monitor emitted just before it:
     translator.translate  Translate_begin -> Translate_end
     tcache.persist        Translate_end   -> Tcache_persist
     tcache.probe          (previous)      -> Tcache_hit | Tcache_miss
     vliw.stage            Page_enter      -> Vliw_compiled
     vmm.interp            Interp_begin    -> Interp_end
   The Monitor calls the probe right after a cross-page exit, an
   interpretation episode or a trap has emitted its event, and stages a
   page right after [Page_enter]; the only work between those events
   and the call is a TLB touch and a few table lookups. *)

module Monitor = Vmm.Monitor

let daisy_run ~crash_dir ~workload (vmm : Monitor.t) =
  let flight = Obs.Flight.create ~dir:crash_dir () in
  let profile = Obs.Profile.create ~page_size:vmm.tr.params.page_size () in
  Obs.Bridge.attach (Obs.Bridge.create ~profile ~flight ()) vmm;
  ignore (Guard.Supervise.attach ~flight ~workload vmm);
  flight

module Monitor_spans = struct
  type t = {
    mutable last : int64;  (** clock after the previous event's hooks *)
    mutable words0 : float;
    mutable translate_words : float;  (** minor words allocated translating *)
    mutable units : int;
    mutable hit_vliws : int;  (** VLIWs installed from the tcache *)
    mutable staged_vliws : int;  (** VLIWs staged into closures *)
  }

  let attach rec_ ~run ~parent ~start (vmm : Monitor.t) =
    let m =
      { last = start; words0 = 0.; translate_words = 0.; units = 0;
        hit_vliws = 0; staged_vliws = 0 }
    in
    let span name t = Span.add rec_ ~name ~run ~parent m.last t in
    let prev = vmm.event_hook in
    vmm.event_hook <-
      Some
        (fun (ev : Monitor.event) ->
          let t = Span.now () in
          (match ev with
          | Translate_begin _ -> m.words0 <- Gc.minor_words ()
          | Translate_end _ ->
            m.translate_words <-
              m.translate_words +. (Gc.minor_words () -. m.words0);
            m.units <- m.units + 1;
            span "translator.translate" t
          | Tcache_persist _ -> span "tcache.persist" t
          | Tcache_hit { vliws; _ } ->
            m.hit_vliws <- m.hit_vliws + vliws;
            span "tcache.probe" t
          | Tcache_miss _ -> span "tcache.probe" t
          | Vliw_compiled { vliws; _ } ->
            m.staged_vliws <- m.staged_vliws + vliws;
            span "vliw.stage" t
          | Interp_end _ -> span "vmm.interp" t
          | _ -> ());
          (match prev with Some f -> f ev | None -> ());
          m.last <- Span.now ());
    m
end
