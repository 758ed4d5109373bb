(* The DAISY benchmark's main program.

     main.exe --workload registry|coldcode|serve_warm --seed N
              --seconds S --trace 0|1 [--runs N] --out-dir DIR

   It sets the workload up five times (the median is setup_s), then
   runs the workload's closed loop for S seconds.  With [--trace 0] the
   loop is untraced and the end-to-end metrics are printed.  With
   [--trace 1] every item runs twice in a row, untraced then traced, and
   the per-layer metrics of the traced runs are printed, with the
   tracing overhead against their untraced twins.  [--runs N] replaces
   the time budget with a fixed item count (the self-test's tiny size).

   The last line of standard output is one JSON object:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   Human-readable detail goes to standard error.  See README.md for why
   each workload and metric exists. *)

module D = Drive

type workload = Registry | Coldcode | Serve_warm

let workload_of_string = function
  | "registry" -> Registry
  | "coldcode" -> Coldcode
  | "serve_warm" -> Serve_warm
  | s -> failwith ("unknown workload " ^ s)

let workload_name = function
  | Registry -> "registry"
  | Coldcode -> "coldcode"
  | Serve_warm -> "serve_warm"

(* items a timed run completes at least, per client: one pass over the
   registry, two over the coldcode population, one deck of sessions *)
let min_items = function
  | Registry -> D.registry_block
  | Coldcode -> 2 * Seeded.cold_programs
  | Serve_warm -> D.registry_block

(* timed loops stop only at the end of a pass (on serve, of a deck per
   client), so every item has the same number of runs and quantiles
   over runs never straddle two items by chance *)
let block = function
  | Registry | Serve_warm -> D.registry_block
  | Coldcode -> Seeded.cold_programs

let setups = 5

(* --- statistics ------------------------------------------------------- *)

let fsum = List.fold_left ( +. ) 0.
let isum f l = List.fold_left (fun n x -> n + f x) 0 l
let ns_s ns = Int64.to_float ns /. 1e9

let geomean = function
  | [] -> 0.
  | l -> exp (fsum (List.map log l) /. float_of_int (List.length l))

(* nearest rank, as Serve.Fleet reports its quantiles *)
let quantile q l =
  match List.sort compare l with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l = quantile 0.5 l

let ratio a b = if b = 0. then 0. else a /. b

let heap_mb (g : Gc.stat) =
  float_of_int (g.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let verified (p : D.phase) =
  List.filter_map
    (fun (s : D.sample) ->
      match s.outcome with D.Verified r -> Some (s, r) | D.Failed _ -> None)
    p.samples

(* The reference set: the first verified run of each item (registry
   program, coldcode program).  It depends on the seed alone, so code
   size and ILP over it repeat exactly for a given seed and code. *)
let reference_set p =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun ((s : D.sample), _) ->
      if Hashtbl.mem seen s.prog then false
      else (
        Hashtbl.add seen s.prog ();
        true))
    (verified p)

(* --- metrics ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* Every timing is a figure the loop really saw: runs per second over
   the loop's wall time, quantiles over every verified run's latency,
   and per program the median of its runs' latencies. *)
let median_by_item ok =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ((s : D.sample), (r : Vmm.Run.result)) ->
      let lats, _ =
        Option.value ~default:([], 0) (Hashtbl.find_opt tbl s.prog)
      in
      Hashtbl.replace tbl s.prog (Int64.to_float s.latency :: lats, r.base_insns))
    ok;
  Hashtbl.fold (fun _ (lats, insns) acc -> (median lats, insns) :: acc) tbl []

let end_to_end ~setup_s (l : D.loop) =
  let ok = verified l.untraced in
  let runs_ms =
    List.map (fun ((s : D.sample), _) -> Int64.to_float s.latency /. 1e6) ok
  in
  let refs = reference_set l.untraced in
  [ m "setup_s" "s" setup_s;
    m "runs_per_s" "1/s"
      (ratio (float_of_int (List.length ok)) (ns_s l.wall));
    m "ns_per_insn_geomean" "ns/insn"
      (geomean
         (List.map
            (fun (lat, insns) -> lat /. float_of_int (max 1 insns))
            (median_by_item ok)));
    m "latency_ms_p50" "ms" (quantile 0.5 runs_ms);
    m "latency_ms_p90" "ms" (quantile 0.9 runs_ms);
    m "ilp_inf_geomean" "insn/vliw"
      (geomean (List.map (fun (_, (r : Vmm.Run.result)) -> r.ilp_inf) refs));
    m "code_bytes" "bytes/run"
      (geomean
         (List.map (fun ((s : D.sample), _) -> float_of_int s.code_bytes) refs));
    (* the process's peak, set-up included: the Gc keeps no other *)
    m "peak_heap_mb" "MB" (heap_mb l.gc1) ]

let per_layer (l : D.loop) ~spans ~attempted ~failed ~pages_translated =
  let untraced = l.untraced and traced = Option.get l.traced in
  let self = Span.self_by_name spans in
  let self name =
    Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt self name))
  in
  (* shares are of the traced wall: the summed windows of the traced
     items, each from its input generation to its recorded sample *)
  let wall = Int64.to_float traced.window in
  let share name = ratio (self name) wall in
  (* what the named layers account for: every span's self time except
     the roots' own, which no layer covers *)
  let named =
    fsum
      (List.filter_map
         (fun ((s : Span.span), ns) ->
           if s.parent < 0 then None else Some (Int64.to_float ns))
         (Span.self_times spans))
  in
  let ok = verified traced in
  let runs = float_of_int (max 1 (List.length traced.samples)) in
  let rsum f = float_of_int (isum (fun (_, r) -> f r) ok) in
  let ssum f = fsum (List.map (fun (s, _) -> f s) ok) in
  let mons = List.filter_map (fun (s : D.sample) -> s.mon) traced.samples in
  let msum f = float_of_int (isum f mons) in
  let per_run x = x /. runs in
  let base = rsum (fun r -> r.base_insns) in
  let scheduled = rsum (fun r -> r.insns_translated) in
  let vliws = rsum (fun r -> r.vliws) in
  let st f = rsum (fun r -> f r.Vmm.Run.stats) in
  let hits = st (fun s -> s.tcache_hits) and misses = st (fun s -> s.tcache_misses) in
  let made =
    rsum (fun r -> r.totals.vliws_made) +. msum (fun m -> m.hit_vliws)
  in
  let staged = msum (fun m -> m.staged_vliws) in
  (* collections cannot be split between the interleaved sides *)
  let gc f = float_of_int (f l.gc1 - f l.gc0) /. float_of_int (max 1 attempted) in
  [ m "trace.overhead" "frac"
      (ratio (Int64.to_float traced.window) (Int64.to_float untraced.window)
       -. 1.);
    m "trace.coverage" "frac" (ratio named wall);
    m "bench.unattributed_share" "frac" (share "bench.run");
    m "workloads.instantiate_ms" "ms/run"
      (per_run (self "workloads.instantiate") /. 1e6);
    m "workloads.instantiate_share" "frac" (share "workloads.instantiate");
    m "ppc.interp_ns_per_insn" "ns/insn" (ratio (self "ppc.reference") base);
    m "ppc.verify_share" "frac" (share "ppc.reference");
    m "translator.units" "count/run" (per_run (msum (fun m -> m.units)));
    m "translator.insns_scheduled" "count/run" (per_run scheduled);
    m "translator.ns_per_insn" "ns/insn"
      (ratio (self "translator.translate") scheduled);
    m "translator.minor_words_per_insn" "words/insn"
      (ratio
         (fsum (List.map (fun (m : Stack.Monitor_spans.t) -> m.translate_words) mons))
         scheduled);
    m "translator.reuse" "insn/insn" (ratio base scheduled);
    m "translator.share" "frac" (share "translator.translate");
    m "vliw.stagings" "count/run" (per_run (st (fun s -> s.compiled_pages)));
    m "vliw.vliws_staged" "count/run" (per_run staged);
    m "vliw.restage_ratio" "vliw/vliw" (ratio staged made);
    m "vliw.stage_share" "frac" (share "vliw.stage");
    m "vmm.exec_ns_per_vliw" "ns/vliw" (ratio (self "vmm.run") vliws);
    m "vmm.exec_share" "frac" (share "vmm.run");
    m "vmm.create_share" "frac" (share "vmm.create");
    m "vmm.interp_share" "frac" (share "vmm.interp");
    m "vmm.vliws" "count/run" (per_run vliws);
    m "vmm.interp_episodes" "count/run" (per_run (st (fun s -> s.interp_episodes)));
    m "vmm.interp_insns" "count/run" (per_run (st (fun s -> s.interp_insns)));
    m "vmm.rollbacks" "count/run" (per_run (st (fun s -> s.rollbacks)));
    m "vmm.cross_page_exits" "count/run"
      (per_run
         (st (fun s -> s.cross_direct + s.cross_lr + s.cross_ctr + s.cross_gpr)));
    m "tcache.hits" "count/run" (per_run hits);
    m "tcache.misses" "count/run" (per_run misses);
    m "tcache.hit_rate" "frac" (ratio hits (hits +. misses));
    m "tcache.probe_share" "frac" (share "tcache.probe");
    m "tcache.persists" "count/run" (per_run (st (fun s -> s.tcache_persists)));
    m "tcache.persist_share" "frac" (share "tcache.persist");
    m "serve.queue_wait_ms" "ms"
      (per_run (ssum (fun s -> Int64.to_float s.D.queue)) /. 1e6);
    m "serve.queue_share" "frac" (share "serve.queue");
    m "serve.gate_waits" "count" (float_of_int l.gate_waits);
    m "serve.pages_translated" "count" (float_of_int pages_translated);
    m "serve.leaked_pins" "count" (float_of_int l.leaked_pins);
    m "obs.attach_share" "frac" (share "obs.attach");
    m "obs.flight_events" "count/run"
      (per_run (float_of_int (isum (fun (s : D.sample) -> s.flight_events) traced.samples)));
    m "gc.minor_words_per_insn" "words/insn"
      (ratio (ssum (fun s -> s.D.minor_words)) base);
    m "gc.minor_collections" "count/run" (gc (fun g -> g.Gc.minor_collections));
    m "gc.major_collections" "count/run" (gc (fun g -> g.Gc.major_collections));
    m "failed_frac" "frac" (ratio (float_of_int failed) (float_of_int attempted)) ]

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value
          x.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* --- set-up ----------------------------------------------------------- *)

let rm_rf = Serve.Session.rm_rf

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

type env =
  | Env_registry of Workloads.Wl.t list
  | Env_cold of string  (** prefix of the fresh cache directories *)
  | Env_serve of D.fleet

let must_verify (s : D.sample) =
  match s.outcome with
  | D.Verified _ -> ()
  | D.Failed msg -> failwith (Printf.sprintf "set-up run %s failed: %s" s.prog msg)

(* Set-up [n]: what a user pays before the first timed item.  registry:
   derive the seeded inputs and run every program once (first-run lazy
   set-up: heap growth, code paging).  coldcode: run eight generated
   programs against a throwaway cache.  serve_warm: start the
   pool and warm its shared cache with every registry program. *)
let setup w ~seed ~work ~crash_dir n =
  match w with
  | Registry ->
    let programs = Seeded.registry ~seed in
    List.iteri
      (fun i p -> must_verify (D.verified_run ~crash_dir ~index:i p))
      programs;
    Env_registry programs
  | Coldcode ->
    (* the same eight warm-up programs on every seed, from beyond the
       population *)
    let scratch = Filename.concat work (Printf.sprintf "warm-%d" n) in
    for i = 0 to 7 do
      let k = Seeded.cold_programs + i in
      must_verify
        (D.verified_run ~crash_dir ~tcache_dir:scratch ~index:k
           (Seeded.cold_program ~seed:0 ~k))
    done;
    rm_rf scratch;
    Env_cold (Filename.concat work (Printf.sprintf "tcache-%d" n))
  | Serve_warm ->
    Env_serve
      (D.start_fleet
         ~dir:(Filename.concat work (Printf.sprintf "fleet-%d" n))
         ~first_id:(10_000_000 * (n + 1)))

let teardown = function
  | Env_serve f -> D.stop_fleet f
  | Env_registry _ | Env_cold _ -> ()

(* --- main ------------------------------------------------------------- *)

type budget = Seconds of float | Runs of int

let run_loop w env ~seed ~crash_dir ~budget ~spans =
  let deadline =
    match budget with
    | Seconds s -> Int64.add (Span.now ()) (Int64.of_float (s *. 1e9))
    | Runs _ -> 0L
  in
  (* a timed loop completes the reference set and, on registry, whole
     passes over the eight programs; [Runs n] splits n over the clients *)
  let more ~clients c k =
    match budget with
    | Seconds _ ->
      k < min_items w || k mod block w <> 0
      || Int64.compare (Span.now ()) deadline < 0
    | Runs n -> k < (n + clients - 1 - c) / clients
  in
  match env with
  | Env_registry programs ->
    D.registry ~crash_dir ~programs
      ~more:(more ~clients:1 0) ~spans
  | Env_cold tcache_dir ->
    D.coldcode ~crash_dir ~tcache_dir ~seed
      ~more:(more ~clients:1 0) ~spans
  | Env_serve fleet ->
    D.serve_warm fleet ~seed
      ~more:(more ~clients:D.serve_clients) ~spans

let pages_translated (p : D.phase) =
  isum (fun (_, (r : Vmm.Run.result)) -> r.pages_translated) (verified p)

(* The self-test's seed-0 check: the seeded registry at seed 0 must
   build the same memory images as [Workloads.Registry.all], and the
   ILP geomean the benchmark reports must be that of the runs Table 5.1
   prints ([Stats.Experiments.inf]). *)
let table_5_1 () =
  let same (a : Workloads.Wl.t) (b : Workloads.Wl.t) =
    let ma, ea = Workloads.Wl.instantiate a
    and mb, eb = Workloads.Wl.instantiate b in
    ea = eb && Bytes.equal ma.bytes mb.bytes
  in
  let plain = Workloads.Registry.all in
  let images_equal = List.for_all2 same plain (Seeded.registry ~seed:0) in
  let ilp =
    geomean (List.map (fun w -> (Stats.Experiments.inf w).ilp_inf) plain)
  in
  Printf.printf "{\"images_equal\": %b, \"ilp_inf_geomean\": %.17g}\n"
    images_equal ilp

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and runs = ref 0 and out_dir = ref "" in
  let t51 = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "registry|coldcode|serve_warm");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ("--runs", Arg.Set_int runs, "fixed item count instead of --seconds");
      ("--out-dir", Arg.Set_string out_dir, "scratch and span output dir");
      ("--table-5-1", Arg.Set t51, "seed-0 check for the self-test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --out-dir DIR";
  if !t51 then (table_5_1 (); exit 0);
  let w = workload_of_string !workload in
  if !out_dir = "" then failwith "--out-dir is required";
  if !trace <> 0 && !trace <> 1 then failwith "--trace must be 0 or 1";
  let seed = !seed and traced = !trace = 1 in
  let work =
    Filename.concat !out_dir (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  let crash_dir = Filename.concat work "crash" in
  mkdir_p work;
  Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
  (* set up [setups] times; the last environment is the one measured *)
  let times = ref [] and env = ref None in
  for n = 0 to setups - 1 do
    Option.iter teardown !env;
    let t0 = Span.now () in
    let e = setup w ~seed ~work ~crash_dir n in
    times := ns_s (Int64.sub (Span.now ()) t0) :: !times;
    env := Some e
  done;
  let env = Option.get !env in
  Fun.protect ~finally:(fun () -> teardown env) @@ fun () ->
  let budget = if !runs > 0 then Runs !runs else Seconds !seconds in
  let spans = if traced then Some (Span.create ()) else None in
  let l = run_loop w env ~seed ~crash_dir ~budget ~spans in
  let phases = l.untraced :: Option.to_list l.traced in
  let attempted = isum (fun (p : D.phase) -> List.length p.samples) phases in
  let failures =
    List.concat_map
      (fun (p : D.phase) -> List.filter_map D.failure_message p.samples)
      phases
  in
  let failed = List.length failures in
  let pages = if w = Serve_warm then isum pages_translated phases else 0 in
  let metrics =
    match spans with
    | None -> end_to_end ~setup_s:(median !times) l
    | Some rec_ ->
      let all = Span.spans rec_ in
      let path =
        Filename.concat !out_dir
          (Printf.sprintf "spans-%s-seed%d.jsonl" (workload_name w) seed)
      in
      let origin =
        List.fold_left (fun a (s : Span.span) -> min a s.t0) Int64.max_int all
      in
      Span.write_jsonl path ~origin all;
      Printf.eprintf "spans: %d written to %s\n" (List.length all) path;
      per_layer l ~spans:all ~attempted ~failed ~pages_translated:pages
  in
  List.iteri
    (fun i msg -> if i < 5 then Printf.eprintf "FAILED: %s\n" msg)
    failures;
  let fleet_ok =
    w <> Serve_warm || (pages = 0 && l.leaked_pins = 0 && l.inflight_keys = 0)
  in
  if not fleet_ok then
    Printf.eprintf
      "serve_warm: %d pages translated, %d pins leaked, %d gates held\n"
      pages l.leaked_pins l.inflight_keys;
  Printf.eprintf
    "%s seed %d: %d runs attempted, %d failed, setups %s s, loop %.3f s, \
     heap peak %.1f MB before the loop\n"
    (workload_name w) seed attempted failed
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !times))
    (ns_s l.wall) (heap_mb l.gc0);
  List.iter
    (fun x -> Printf.eprintf "  %-34s %14.6g %s\n" x.name x.value x.unit)
    metrics;
  print_result ~correct:(failed = 0 && fleet_ok) ~attempted ~failed metrics
