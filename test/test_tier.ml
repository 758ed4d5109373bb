(* Tests for the tier-2 promotion driver: an attached driver must
   promote hot regions without perturbing a single architected bit
   (Run.run diffs registers, memory and console against the reference
   interpreter), a store into a promoted member page must deopt back to
   tier-1 and still verify, a persisted region image must re-promote on
   warm start without recompiling, and a hot single page later absorbed
   into a cross-page SCC must be superseded by the wider image. *)

module Params = Translator.Params
module Run = Vmm.Run
module Monitor = Vmm.Monitor
module Tier = Obs.Tier

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "daisy_test_tier.%d.%d" (Unix.getpid ()) !n)
    in
    Tcache.Store.mkdir_p d;
    d

(* Synchronous, eager promotion: compiles run inline on the execution
   thread, so every test is deterministic. *)
let sync_cfg =
  { Tier.default with min_heat = 2_000; edge_threshold = 50; submit = None }

let run_with_tier ?cfg ?tcache_dir w =
  let captured = ref None in
  let r =
    Run.run ?tcache_dir
      ~instrument:(fun vmm -> captured := Some (vmm, Tier.attach ?cfg vmm))
      w
  in
  match !captured with
  | Some (vmm, t) ->
    Tier.finish t;
    (r, vmm, t)
  | None -> Alcotest.fail "instrument was never called"

(* --- promotion is architecturally invisible ------------------------- *)

let test_promotion_differential () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let r, vmm, t = run_with_tier ~cfg:sync_cfg w in
  Alcotest.(check (option int)) "exit code" (Some 1899) r.Run.exit_code;
  Alcotest.(check bool) "promoted" true (vmm.stats.tier2_promotions >= 1);
  Alcotest.(check bool) "region actually executed" true
    (vmm.stats.tier2_vliws > 0);
  Alcotest.(check bool) "driver installed it" true (t.Tier.installed >= 1);
  Alcotest.(check bool) "no deopt on a clean run" true
    (vmm.stats.tier2_deopts = 0)

(* The same property across every workload: promotion at aggressive
   thresholds must never change an observable result (Run.run raises
   Mismatch on any divergence). *)
let test_promotion_differential_all () =
  List.iter
    (fun w -> ignore (run_with_tier ~cfg:sync_cfg w))
    Workloads.Registry.all

(* --- self-modifying store in a member page deopts ------------------- *)

let test_selfmod_deopts () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let poked = ref false in
  let r =
    Run.run
      ~instrument:(fun vmm ->
        ignore (Tier.attach ~cfg:sync_cfg vmm);
        (* after the tier driver: fires at committed boundaries only,
           exactly like the fault injector's selfmod class *)
        let prev = vmm.Monitor.tick_hook in
        vmm.Monitor.tick_hook <-
          Some
            (fun ~pc ->
              (match prev with Some h -> h ~pc | None -> ());
              if not !poked then
                match Monitor.live_regions vmm with
                | r :: _ ->
                  let base = r.Monitor.r_members.(0) in
                  (* same-value store: pure code-invalidation signal *)
                  Ppc.Mem.store8 vmm.Monitor.mem base
                    (Ppc.Mem.load8 vmm.Monitor.mem base);
                  poked := true
                | [] -> ()))
      w
  in
  Alcotest.(check bool) "store landed" true !poked;
  Alcotest.(check (option int)) "still bit-exact" (Some 1899) r.Run.exit_code

let test_selfmod_deopt_counted () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let captured = ref None in
  let poked = ref false in
  let _ =
    Run.run
      ~instrument:(fun vmm ->
        captured := Some vmm;
        ignore (Tier.attach ~cfg:sync_cfg vmm);
        let prev = vmm.Monitor.tick_hook in
        vmm.Monitor.tick_hook <-
          Some
            (fun ~pc ->
              (match prev with Some h -> h ~pc | None -> ());
              if not !poked then
                match Monitor.live_regions vmm with
                | r :: _ ->
                  Ppc.Mem.store8 vmm.Monitor.mem r.Monitor.r_members.(0)
                    (Ppc.Mem.load8 vmm.Monitor.mem r.Monitor.r_members.(0));
                  poked := true
                | [] -> ()))
      w
  in
  match !captured with
  | None -> Alcotest.fail "no vmm"
  | Some vmm ->
    Alcotest.(check bool) "deopt recorded" true (vmm.stats.tier2_deopts >= 1)

(* --- warm start ------------------------------------------------------ *)

let test_warm_start_repromotes () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let dir = fresh_dir () in
  let _, vmm1, _ = run_with_tier ~cfg:sync_cfg ~tcache_dir:dir w in
  Alcotest.(check bool) "cold run promoted" true
    (vmm1.stats.tier2_promotions >= 1);
  (* the image must come from disk: installed (and counted as a cached
     promotion) at attach time, before a single VLIW has run *)
  let at_attach = ref (-1) in
  let r2 =
    Run.run ~tcache_dir:dir
      ~instrument:(fun vmm ->
        let t = Tier.attach ~cfg:sync_cfg vmm in
        at_attach := t.Tier.installed)
      w
  in
  Alcotest.(check (option int)) "warm exit code" (Some 1899) r2.Run.exit_code;
  Alcotest.(check bool) "installed at attach time" true (!at_attach >= 1)

(* A stale image must NOT re-promote: the region key is computed over
   the *current* member bytes, so flipping one byte before the warm
   start makes the lookup miss.  No execution needed — warm_start runs
   at attach time. *)
let test_warm_start_rejects_stale () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let dir = fresh_dir () in
  let _, vmm1, _ = run_with_tier ~cfg:sync_cfg ~tcache_dir:dir w in
  let base =
    match Monitor.live_regions vmm1 with
    | r :: _ -> r.Monitor.r_members.(0)
    | [] -> Alcotest.fail "cold run left no live region"
  in
  Alcotest.(check bool) "region persisted" true
    (List.exists
       (fun (i : Tcache.Store.info) -> i.kind = `Region)
       (Tcache.Store.list_dir dir));
  (* pristine bytes: attach re-promotes without running anything *)
  let mem, _ = Workloads.Wl.instantiate w in
  let vmm = Monitor.create ~tcache_dir:dir mem in
  let t = Tier.attach ~cfg:sync_cfg vmm in
  Alcotest.(check bool) "pristine bytes re-promote" true (t.Tier.installed >= 1);
  (* one flipped byte in a member page: key misses, nothing installs *)
  let mem, _ = Workloads.Wl.instantiate w in
  Ppc.Mem.store8 mem base (Ppc.Mem.load8 mem base lxor 0xFF);
  let vmm = Monitor.create ~tcache_dir:dir mem in
  let t = Tier.attach ~cfg:sync_cfg vmm in
  Alcotest.(check int) "stale bytes do not re-promote" 0 t.Tier.installed

(* --- a region image extended in place is staged incrementally -------

   Tier-1 pages and region images share one staging path: after the
   region translator extends its image with a new entry point, only
   the new trees are staged, and the old staged trees are reused
   physically. *)

let test_region_incremental_staging () =
  let restaged = ref 0 and wrong = ref [] in
  let check what ok = if not ok then wrong := what :: !wrong in
  List.iter
    (fun w ->
      let last = Hashtbl.create 4 in
      ignore
        (Run.run
           ~instrument:(fun vmm ->
             ignore (Tier.attach ~cfg:sync_cfg vmm);
             let prev = vmm.Monitor.event_hook in
             vmm.Monitor.event_hook <-
               Some
                 (fun ev ->
                   (match (ev, vmm.Monitor.active_region) with
                   | Vliw_compiled { vliws; _ }, Some r -> (
                     match r.Monitor.r_staged with
                     | Some (xp, cp) ->
                       let n = Vliw.Compile.n_staged cp in
                       (match Hashtbl.find_opt last r.r_id with
                       | Some (xp0, cp0) when xp0 == xp ->
                         incr restaged;
                         let n0 = Vliw.Compile.n_staged cp0 in
                         check "only new trees staged" (vliws = n - n0);
                         for i = 0 to n0 - 1 do
                           check "old trees reused"
                             (Vliw.Compile.get cp i == Vliw.Compile.get cp0 i)
                         done
                       | _ -> check "first staging stages all" (vliws = n));
                       Hashtbl.replace last r.r_id (xp, cp)
                     | None -> check "region staged but not saved" false)
                   | _ -> ());
                   match prev with Some f -> f ev | None -> ()))
           w))
    Workloads.Registry.all;
  (* checked after the runs: the monitor contains anything raised while
     staging a region image by falling back to the tree walker *)
  Alcotest.(check (list string)) "region stagings" [] !wrong;
  Alcotest.(check bool) "some region image was extended and restaged" true
    (!restaged > 0)

(* --- upgrade: a wider SCC supersedes a hot single page --------------- *)

let test_upgrade_absorbs_single () =
  let w = Workloads.Registry.by_name "compress" in
  (* huge edge threshold first would block the SCC; aggressive single
     promotion plus a reachable edge threshold reproduces the observed
     single-then-SCC sequence *)
  let cfg =
    { Tier.default with min_heat = 2_000; edge_threshold = 250;
      submit = None }
  in
  let captured = ref None in
  let r =
    Run.run
      ~instrument:(fun vmm -> captured := Some (vmm, Tier.attach ~cfg vmm))
      w
  in
  Alcotest.(check (option int)) "exit code" (Some 11415) r.Run.exit_code;
  match !captured with
  | None -> Alcotest.fail "no vmm"
  | Some (vmm, _) ->
    Alcotest.(check bool) "promoted more than once" true
      (vmm.stats.tier2_promotions >= 2);
    Alcotest.(check bool) "the narrow image was superseded" true
      (vmm.stats.tier2_deopts >= 1);
    let widest =
      List.fold_left
        (fun n (r : Monitor.region) -> max n (Array.length r.r_members))
        0
        (Monitor.live_regions vmm)
    in
    Alcotest.(check bool) "a multi-page region survives" true (widest >= 2)

let () =
  Alcotest.run "tier"
    [ ( "promotion",
        [ Alcotest.test_case "differential (c_sieve)" `Quick
            test_promotion_differential;
          Alcotest.test_case "differential (all workloads)" `Slow
            test_promotion_differential_all ] );
      ( "deopt",
        [ Alcotest.test_case "selfmod stays bit-exact" `Quick
            test_selfmod_deopts;
          Alcotest.test_case "selfmod counted" `Quick
            test_selfmod_deopt_counted ] );
      ( "warm",
        [ Alcotest.test_case "repromotes from cache" `Quick
            test_warm_start_repromotes;
          Alcotest.test_case "content-keyed" `Quick
            test_warm_start_rejects_stale ] );
      ( "upgrade",
        [ Alcotest.test_case "SCC absorbs single" `Quick
            test_upgrade_absorbs_single ] );
      ( "staging",
        [ Alcotest.test_case "region extension stages only new trees" `Slow
            test_region_incremental_staging ] ) ]
