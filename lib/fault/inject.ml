(* Seeded, scriptable fault injection against the VMM.

   Every injector class attaches through one of the {!Vmm.Monitor}
   fault hooks; the VMM itself contains no injection logic, only the
   degradation ladder that must absorb whatever is thrown at it:

   - translator faults: the translate hook raises {!Injected} mid
     translation, simulating a crash or timeout in the dynamic
     compiler.  The ladder must quarantine the page and fall back to
     interpretation.
   - bit-flips: after a page is translated (or loaded from the
     persistent cache), a node of one of its tree VLIWs is corrupted
     in a way that is *guaranteed detectable* — either the node kind
     becomes an open tip (reaching it raises {!Vliw.Exec.Error}) or a
     branch test gets an out-of-range condition-register bit (the
     datapath raises [Invalid_argument], which {!Vliw.Exec} converts
     to [Error] before any write commits).  Detection happens either
     eagerly (the page-integrity check notices the digest changed) or
     lazily at runtime; a coin decides, so both ladder paths are
     exercised.
   - tcache poisoning: a random byte of the just-persisted cache entry
     is flipped on disk, exercising the codec's corruption handling on
     the next warm start.
   - external interrupts: delivered at VLIW-tree boundaries whenever
     the rate fires and MSR[EE] is set.
   - page-fault storms: bursts of forced faults at VLIW entry, each
     one a full rollback-to-precise-state + interpretation episode.

   All randomness flows from one [Random.State] seeded by the config,
   so a run is exactly reproducible from its seed. *)

module Monitor = Vmm.Monitor
module Translate = Translator.Translate
module Vec = Translator.Vec
module T = Vliw.Tree

type config = {
  seed : int;
  translator_fault_rate : float;  (** per translation-group request *)
  bitflip_rate : float;           (** per page install *)
  tcache_poison_rate : float;     (** per persisted entry *)
  interrupt_rate : float;         (** per VLIW-tree boundary with EE set *)
  storm_rate : float;             (** chance a storm starts, per VLIW *)
  storm_length : int;             (** forced faults per storm *)
  silent_rate : float;
      (** per page install: *undetectable* corruption — a branch test's
          sense is inverted, so the translation commits down the wrong
          path with plausible state and no digest or datapath trip.
          Only shadow verification (lib/guard) can catch this class;
          it is deliberately not part of {!cocktail}, which asserts
          that every injected fault is caught without a shadow. *)
  selfmod_rate : float;
      (** per VLIW entry: a *same-value* byte store into code — a
          promoted tier-2 member page when one exists, else the page
          executing now.  Semantically a no-op (the byte does not
          change), but the store-into-code machinery cannot know that,
          so it must invalidate the tier-1 page or deopt the tier-2
          region exactly as a real self-modifying store would.  Kept
          out of {!cocktail}: zero-rate classes draw nothing from the
          RNG, so adding a draw would shift every seeded reproducer
          stream recorded before this class existed. *)
}

(** All rates zero: attaching this config is a no-op. *)
let quiet =
  { seed = 0xDA15; translator_fault_rate = 0.; bitflip_rate = 0.;
    tcache_poison_rate = 0.; interrupt_rate = 0.; storm_rate = 0.;
    storm_length = 16; silent_rate = 0.; selfmod_rate = 0. }

(** Every injector class at a nonzero rate — the acceptance cocktail. *)
let cocktail =
  { quiet with translator_fault_rate = 0.05; bitflip_rate = 0.05;
    tcache_poison_rate = 0.25; interrupt_rate = 0.01; storm_rate = 0.002 }

(** Raised by the translate hook to simulate a translator crash. *)
exception Injected of string

type t = {
  cfg : config;
  rng : Random.State.t;
  mutable storm_left : int;
  digests : (int, string) Hashtbl.t;  (** page base -> clean tree digest *)
  corrupted : (int, [ `Eager | `Runtime ]) Hashtbl.t;
      (** bit-flipped pages not yet re-translated, and how the flip is
          meant to be caught: [`Eager] by the page-integrity digest
          check at the next page entry, [`Runtime] by the datapath
          raising {!Vliw.Exec.Error} mid-execution *)
  (* how many of each class actually fired, for tests and reports *)
  mutable n_translator : int;
  mutable n_bitflips : int;
  mutable n_poisoned : int;
  mutable n_interrupts : int;
  mutable n_storms : int;
  mutable n_silent : int;
  mutable n_selfmod : int;
}

let create cfg =
  { cfg; rng = Random.State.make [| cfg.seed; 0x4641554C |]; storm_left = 0;
    digests = Hashtbl.create 16; corrupted = Hashtbl.create 8;
    n_translator = 0; n_bitflips = 0; n_poisoned = 0; n_interrupts = 0;
    n_storms = 0; n_silent = 0; n_selfmod = 0 }

let chance t p = p > 0. && Random.State.float t.rng 1. < p

(* ------------------------------------------------------------------ *)
(* Bit-flips in decoded tree-VLIW pages                                *)

let nodes_of (v : T.t) =
  let acc = ref [] in
  let rec go (n : T.node) =
    acc := n :: !acc;
    match n.kind with
    | T.Branch { taken; fall; _ } -> go taken; go fall
    | T.Exit _ | T.Open -> ()
  in
  go v.root;
  !acc

let digest_of (page : Translate.xpage) =
  Digest.string (Tcache.Codec.encode_xpage page)

(* Corrupt a node in place.  Both mutations are detectable by
   construction: an [Open] kind raises [Exec.Error "open tip reached at
   runtime"] if selected, and condition bit 97 is outside the 16
   architected-plus-renamed CR fields, so evaluating the test raises
   [Invalid_argument] — which [Exec.run] turns into [Error] before any
   write of the VLIW is applied.  Undetectable silent corruption (e.g.
   swapping an add for a subtract) is out of scope: no integrity
   mechanism in the design claims to catch it without a digest. *)
let corrupt_node t (n : T.node) =
  match n.kind with
  | T.Branch { test; taken; fall } when Random.State.bool t.rng ->
    n.kind <- T.Branch { test = { test with bit = 97 }; taken; fall }
  | _ -> n.kind <- T.Open

(* A coin picks how this flip is to be caught.  [`Eager]: corrupt one
   random node anywhere (the digest changes whether or not the node is
   reachable) and let the page-integrity check catch it at the next
   page entry.  [`Runtime]: corrupt the root node of every valid-entry
   VLIW, so whichever entry point execution next comes through trips
   the datapath immediately — exercising the rollback-to-interpreter
   path rather than the digest path. *)
let corrupt_tree t (page : Translate.xpage) =
  let nv = Vec.length page.vliws in
  if nv > 0 then begin
    let mode = if Random.State.bool t.rng then `Eager else `Runtime in
    (match mode with
    | `Eager ->
      let v = Vec.get page.vliws (Random.State.int t.rng nv) in
      let nodes = nodes_of v in
      corrupt_node t (List.nth nodes (Random.State.int t.rng (List.length nodes)))
    | `Runtime ->
      Hashtbl.iter
        (fun _off id ->
          if id >= 0 && id < nv then corrupt_node t (Vec.get page.vliws id).root)
        page.entries);
    t.n_bitflips <- t.n_bitflips + 1;
    Hashtbl.replace t.corrupted page.base mode
  end

(* Invert the sense of the first branch test in the page: the
   translation still executes cleanly, writes plausible values and
   passes every digest and datapath check — it just commits the wrong
   path.  This is the fault class nothing below shadow verification
   (lib/guard) can see.  Page 0 is exempt: the mini OS's vectors and
   halt path live there, and the point is to corrupt *workload* code,
   not the machinery that reports the exit code. *)
let corrupt_silently t (page : Translate.xpage) =
  if page.base >= 0x1000 then begin
    let nv = Vec.length page.vliws in
    let flipped = ref false in
    let i = ref 0 in
    while (not !flipped) && !i < nv do
      let root = (Vec.get page.vliws !i).T.root in
      (match root.kind with
      | T.Branch { test; taken; fall } ->
        root.kind <-
          T.Branch { test = { test with sense = not test.sense }; taken; fall };
        flipped := true
      | T.Exit _ | T.Open -> ());
      incr i
    done;
    if !flipped then begin
      t.n_silent <- t.n_silent + 1;
      (* re-record the digest over the corrupted tree so even the eager
         integrity check agrees with it: the flip must be invisible to
         everything except a shadow replay *)
      Hashtbl.replace t.digests page.base (digest_of page)
    end
  end

(* ------------------------------------------------------------------ *)
(* Persistent-cache poisoning                                          *)

let poison_file t path =
  match In_channel.with_open_bin path In_channel.input_all with
  | "" -> ()
  | s ->
    let b = Bytes.of_string s in
    let i = Random.State.int t.rng (Bytes.length b) in
    let bit = 1 lsl Random.State.int t.rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
    t.n_poisoned <- t.n_poisoned + 1
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)

(** Wire the configured injector classes into [vmm]'s fault hooks.
    Classes with a zero rate leave their hook untouched. *)
let attach t (vmm : Monitor.t) =
  let cfg = t.cfg in
  if cfg.translator_fault_rate > 0. then
    vmm.translate_hook <-
      Some
        (fun ~page:_ ~entry:_ ->
          if chance t cfg.translator_fault_rate then begin
            t.n_translator <- t.n_translator + 1;
            raise (Injected "translator crashed")
          end);
  if cfg.bitflip_rate > 0. || cfg.silent_rate > 0. then begin
    vmm.install_hook <-
      Some
        (fun page ->
          Hashtbl.replace t.digests page.base (digest_of page);
          Hashtbl.remove t.corrupted page.base;
          let flips = t.n_bitflips + t.n_silent in
          if chance t cfg.bitflip_rate then corrupt_tree t page;
          if chance t cfg.silent_rate then corrupt_silently t page;
          (* a flip mutates trees in place, possibly trees staged before
             this extension, which restaging would otherwise reuse *)
          if t.n_bitflips + t.n_silent <> flips then
            Monitor.drop_compiled vmm page.base);
    (* the integrity check re-digests [`Eager] pages and catches the
       flip before execution; [`Runtime] pages are left for the
       datapath to trip over *)
    vmm.page_check <-
      Some
        (fun page ->
          match Hashtbl.find_opt t.corrupted page.base with
          | Some `Eager ->
            Hashtbl.remove t.corrupted page.base;
            (match Hashtbl.find_opt t.digests page.base with
            | Some d when digest_of page <> d -> Some "tree digest mismatch"
            | _ -> None)
          | Some `Runtime | None -> None)
  end;
  if cfg.tcache_poison_rate > 0. then
    vmm.tcache_persist_hook <-
      Some (fun path -> if chance t cfg.tcache_poison_rate then poison_file t path);
  if cfg.interrupt_rate > 0. then
    vmm.boundary_hook <-
      Some
        (fun () ->
          if chance t cfg.interrupt_rate then begin
            t.n_interrupts <- t.n_interrupts + 1;
            true
          end
          else false);
  (* The prefault hook is shared: storms force a fault, self-modifying
     stores write and decline to.  Storm draws come first so a
     storm-only config's RNG stream is unchanged from before the
     selfmod class existed ([chance] skips the draw at rate zero). *)
  let storm () =
    if t.storm_left > 0 then begin
      t.storm_left <- t.storm_left - 1;
      true
    end
    else if chance t cfg.storm_rate then begin
      t.n_storms <- t.n_storms + 1;
      t.storm_left <- max 0 (cfg.storm_length - 1);
      true
    end
    else false
  in
  (* Store a byte of code back over itself: bit-identical memory, but
     the watch machinery must treat it as self-modification — deopting
     a promoted region when the byte lands in a member page, else
     invalidating the executing tier-1 page.  Target preference:
     the first live region's first member, so runs that promote
     exercise the deopt path deterministically. *)
  let selfmod () =
    if chance t cfg.selfmod_rate then begin
      let target =
        match
          Hashtbl.fold (fun b _ acc ->
              match acc with Some b' when b' <= b -> acc | _ -> Some b)
            vmm.regions None
        with
        | Some b -> Some b
        | None -> if vmm.current_page >= 0 then Some vmm.current_page else None
      in
      match target with
      | Some base when base >= 0 && base < Ppc.Mem.size vmm.mem ->
        Ppc.Mem.store8 vmm.mem base (Ppc.Mem.load8 vmm.mem base);
        t.n_selfmod <- t.n_selfmod + 1
      | _ -> ()
    end;
    false
  in
  if cfg.storm_rate > 0. || cfg.selfmod_rate > 0. then
    vmm.prefault_hook <-
      Some (fun () -> let forced = storm () in ignore (selfmod ()); forced)

(** One line per class: how often each injector actually fired. *)
let report t =
  Printf.sprintf
    "injected: translator=%d bitflips=%d poisoned=%d interrupts=%d storms=%d \
     silent=%d selfmod=%d"
    t.n_translator t.n_bitflips t.n_poisoned t.n_interrupts t.n_storms
    t.n_silent t.n_selfmod

let total t =
  t.n_translator + t.n_bitflips + t.n_poisoned + t.n_interrupts + t.n_storms
  + t.n_silent + t.n_selfmod
