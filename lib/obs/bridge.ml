(* The bridge between the VMM's instrumentation interface and the
   observability sinks.  The VMM publishes {!Vmm.Monitor.event}s through
   its [event_hook]; this module subscribes and fans each event out to
   whichever sinks were requested — the trace ring, the metrics
   histograms, the per-page hotness profile.  The dependency points
   obs -> vmm only: the VMM never links against this library. *)

module Monitor = Vmm.Monitor

type t = {
  tracer : Trace.t option;
  metrics : Metrics.t option;
  hotness : Hotness.t option;
  profile : Profile.t option;
  flight : Flight.t option;
  h_episode : Metrics.Histogram.t option;
      (** instructions per interpretation episode *)
  h_tr_insns : Metrics.Histogram.t option;
      (** base instructions per translation unit *)
  h_tr_vliws : Metrics.Histogram.t option;
      (** VLIWs created per translation unit *)
  h_tc_load : Metrics.Histogram.t option;
      (** milliseconds to load + decode one persistent-cache entry *)
  h_compile : Metrics.Histogram.t option;
      (** milliseconds to stage one page into closures *)
  h_checkpoint : Metrics.Histogram.t option;
      (** milliseconds to write one supervision checkpoint *)
}

let create ?tracer ?metrics ?hotness ?profile ?flight () =
  let h name buckets =
    Option.map
      (fun m -> Metrics.histogram m ~buckets name)
      metrics
  in
  (match (flight, metrics, profile) with
  | Some f, m, p ->
    Option.iter (Flight.set_metrics f) m;
    Option.iter (Flight.set_profile f) p
  | None, _, _ -> ());
  { tracer; metrics; hotness; profile; flight;
    h_episode =
      h "interp_episode_insns" [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. ];
    h_tr_insns =
      h "translate_unit_insns"
        [ 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096. ];
    h_tr_vliws =
      h "translate_unit_vliws"
        [ 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. ];
    h_tc_load =
      h "tcache_load_ms" [ 0.01; 0.05; 0.1; 0.25; 0.5; 1.; 2.; 5.; 10. ];
    h_compile =
      h "vliw_compile_ms" [ 0.01; 0.05; 0.1; 0.25; 0.5; 1.; 2.; 5.; 10. ];
    h_checkpoint =
      h "checkpoint_ms" [ 0.05; 0.1; 0.25; 0.5; 1.; 2.; 5.; 10.; 25. ] }

let profile_edge_kind : Monitor.edge_kind -> Profile.edge_kind = function
  | Etaken -> Profile.Taken
  | Efall -> Profile.Fall
  | Elr -> Profile.Lr
  | Ectr -> Profile.Ctr
  | Egpr -> Profile.Gpr
  | Einterp -> Profile.Interp

(* A trigger event just went into the ring; snapshot everything.  The
   dump is first-wins per reason and best-effort, so this stays cheap
   under failure storms. *)
let crash b reason =
  match b.flight with Some f -> ignore (Flight.dump f ~reason) | None -> ()

let observe h v =
  match h with Some h -> Metrics.Histogram.observe_int h v | None -> ()

(* The hot path.  The flight recorder takes the raw event (two stores,
   no allocation — the event value already exists); the sink updates
   below are counter bumps; JSON rendering happens only for the opt-in
   full-size tracer, via {!Flight.render}, so an always-on recorder
   stays cheap while a dump's tail remains exactly the trace a tracer
   would have kept. *)
let on_event b (ev : Monitor.event) =
  (match b.flight with Some f -> Flight.push f ev | None -> ());
  (match ev with
  | Translate_end { page; insns; vliws; bytes; _ } ->
    observe b.h_tr_insns insns;
    observe b.h_tr_vliws vliws;
    (match b.hotness with
    | Some h -> Hotness.translated h ~page ~insns ~bytes
    | None -> ());
    (match b.profile with
    | Some p -> Profile.translated p ~page ~insns ~bytes
    | None -> ())
  | Interp_end { pc; insns; _ } ->
    observe b.h_episode insns;
    (match b.profile with
    | Some p -> Profile.interp p ~pc ~insns
    | None -> ())
  | Exit_edge { src; dst; kind; _ } ->
    (match b.profile with
    | Some p -> Profile.edge p ~src ~dst ~kind:(profile_edge_kind kind)
    | None -> ())
  | Page_enter { page; vliws_so_far; _ } ->
    (match b.hotness with
    | Some h -> Hotness.enter h ~page ~vliws_so_far
    | None -> ());
    (match b.profile with
    | Some p -> Profile.enter p ~page ~vliws_so_far
    | None -> ())
  | Castout { page; _ } ->
    (match b.hotness with Some h -> Hotness.castout h ~page | None -> ())
  | Code_invalidated { page; _ } ->
    (match b.hotness with Some h -> Hotness.invalidated h ~page | None -> ())
  | Tcache_hit { seconds; _ } ->
    (match b.h_tc_load with
    | Some h -> Metrics.Histogram.observe h (seconds *. 1000.)
    | None -> ())
  | Vliw_compiled { seconds; _ } ->
    (match b.h_compile with
    | Some h -> Metrics.Histogram.observe h (seconds *. 1000.)
    | None -> ())
  | Checkpoint_written { seconds; _ } ->
    (match b.h_checkpoint with
    | Some h -> Metrics.Histogram.observe h (seconds *. 1000.)
    | None -> ())
  | Region_promoted { seconds; _ } ->
    (* tier-2 region compiles land in the same histogram as tier-1 page
       staging — one latency view of "time spent making code" *)
    (match b.h_compile with
    | Some h when seconds > 0. ->
      Metrics.Histogram.observe h (seconds *. 1000.)
    | _ -> ())
  | Quarantine _ -> crash b "quarantine"
  | Deadline _ -> crash b "deadline"
  | Shadow_divergence _ -> crash b "divergence"
  | Tcache_quarantine _ -> crash b "tcache-quarantine"
  | _ -> ());
  match b.tracer with
  | None -> ()
  | Some t -> (
    match ev with
    | Page_enter _ ->
      (* page entries are far too frequent for the main ring — but the
         flight recorder's whole job is the recent tail, so it kept
         this one above *)
      ()
    | _ ->
      let ts, name, ph, args = Flight.render ev in
      Trace.emit t ~ts ~name ~ph args)

(* A dump-time view of the VMM's degradation-ladder state: which pages
   have strikes, how long their backoff runs, which are pinned. *)
let health_json (vmm : Monitor.t) () =
  let rows =
    Hashtbl.fold
      (fun page (h : Monitor.health) acc -> (page, h) :: acc)
      vmm.page_health []
    |> List.sort compare
  in
  Json.Arr
    (List.map
       (fun (page, (h : Monitor.health)) ->
         Json.Obj
           [ ("page", Json.Int page); ("failures", Json.Int h.failures);
             ("backoff_until", Json.Int h.backoff_until);
             ("pinned_interp", Json.Bool h.pinned_interp) ])
       rows)

(** Subscribe this bridge to a VMM's event stream.  When a flight
    recorder is attached this is also the moment its health view gains
    a VMM to read. *)
let attach b (vmm : Monitor.t) =
  (match b.flight with
  | Some f -> Flight.set_health f (health_json vmm)
  | None -> ());
  vmm.event_hook <- Some (on_event b)

(** Copy a finished run's measurements into [m] as counters and gauges,
    named after the {!Vmm.Run.result} / {!Vmm.Monitor.stats} fields so
    exports agree exactly with the numbers the CLI prints. *)
let record_result m (r : Vmm.Run.result) =
  let c name v = Metrics.Counter.set (Metrics.counter m name) v in
  let g name v = Metrics.Gauge.set (Metrics.gauge m name) v in
  let s = r.stats in
  c "base_insns" r.base_insns;
  c "static_insns" r.static_insns;
  c "vliws" s.vliws;
  c "interp_insns" s.interp_insns;
  c "interp_episodes" s.interp_episodes;
  c "rollbacks" s.rollbacks;
  c "aliases" s.aliases;
  c "cross_direct" s.cross_direct;
  c "cross_lr" s.cross_lr;
  c "cross_ctr" s.cross_ctr;
  c "cross_gpr" s.cross_gpr;
  c "onpage_jumps" s.onpage_jumps;
  c "loads" s.loads;
  c "stores" s.stores;
  c "syscalls" s.syscalls;
  c "external_interrupts" s.external_interrupts;
  c "adaptive_retranslations" s.adaptive_retranslations;
  c "code_invalidations" s.code_invalidations;
  c "stall_cycles" s.stall_cycles;
  c "itlb_misses" s.itlb_misses;
  c "vliws_with_load_miss" s.vliws_with_load_miss;
  c "tcache_hits" s.tcache_hits;
  c "tcache_misses" s.tcache_misses;
  c "tcache_corrupt" s.tcache_corrupt;
  c "tcache_quarantined" s.tcache_quarantined;
  c "tcache_persists" s.tcache_persists;
  c "tcache_deferred" s.tcache_deferred;
  c "tcache_evicts" s.tcache_evicts;
  c "tcache_skipped" s.tcache_skipped;
  c "tcache_degraded" s.tcache_degraded;
  c "storage_faults" s.storage_faults;
  c "translator_faults" s.translator_faults;
  c "exec_faults" s.exec_faults;
  c "quarantines" s.quarantines;
  c "degrade_retries" s.degrade_retries;
  c "interp_pinned" s.interp_pinned;
  c "compiled_pages" s.compiled_pages;
  c "direct_link_hits" s.direct_link_hits;
  c "spec_log_hwm" s.spec_log_hwm;
  c "deadline_hits" s.deadline_hits;
  c "shadow_checked" s.shadow_checked;
  c "shadow_divergences" s.shadow_divergences;
  c "checkpoints_written" s.checkpoints_written;
  c "tier2_promotions" s.tier2_promotions;
  c "tier2_deopts" s.tier2_deopts;
  c "tier2_entries" s.tier2_entries;
  c "tier2_vliws" s.tier2_vliws;
  c "tier2_offregion_exits" s.tier2_offregion_exits;
  g "tier2_compile_seconds" s.tier2_compile_seconds;
  c "cycles_infinite" r.cycles_infinite;
  c "cycles_finite" r.cycles_finite;
  c "pages_translated" r.pages_translated;
  c "insns_translated" r.insns_translated;
  c "code_bytes" r.code_bytes;
  c "entry_points" r.totals.entry_points;
  c "vliws_made" r.totals.vliws_made;
  c "translation_groups" r.totals.groups;
  c "translation_invalidations" r.totals.invalidations;
  c "load_misses" r.load_misses;
  c "store_misses" r.store_misses;
  c "imiss" r.imiss;
  g "ilp_inf" r.ilp_inf;
  g "ilp_fin" r.ilp_fin;
  g "miss_l0d" r.miss_l0d;
  g "miss_l0i" r.miss_l0i;
  g "miss_joint" r.miss_joint
