(* Tests for the persistent translation cache: codec round-trips
   (hand-built, property-based, and over real translator output), store
   semantics (miss/persist/hit/evict, atomicity hygiene), corruption and
   version-mismatch detection, warm-start behaviour across the whole
   workload registry, and the self-modifying-code interaction — after a
   [Code_invalidated] the warm run must not find the evicted entry. *)

module T = Vliw.Tree
module Op = Vliw.Op
module Codec = Tcache.Codec
module Store = Tcache.Store
module Translate = Translator.Translate
module Vec = Translator.Vec

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "daisy_test_tcache.%d.%d" (Unix.getpid ()) !n)
    in
    Store.mkdir_p d;
    d

(* --- structural equality ------------------------------------------

   [Vec.t] carries spare array capacity, so polymorphic equality on
   xpages is wrong; compare through [Vec.to_list] and sort the entry
   table. *)

let entries_alist h =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let xpage_equal (a : Translate.xpage) (b : Translate.xpage) =
  a.base = b.base && a.psize = b.psize && a.code_bytes = b.code_bytes
  && a.next_addr = b.next_addr && a.insns_scheduled = b.insns_scheduled
  && Vec.to_list a.vliws = Vec.to_list b.vliws
  && Vec.to_list a.addrs = Vec.to_list b.addrs
  && Vec.to_list a.sizes = Vec.to_list b.sizes
  && entries_alist a.entries = entries_alist b.entries

let roundtrip_tree t =
  let b = Buffer.create 256 in
  Codec.put_tree b t;
  Codec.get_tree (Codec.reader (Buffer.contents b))

(* --- codec: every constructor once -------------------------------- *)

let all_ops : Op.t list =
  let dec what = function Some v -> v | None -> failwith ("bad " ^ what) in
  let xo i = dec "xo" (Ppc.Insn.xo_of_code i) in
  let x i = dec "x" (Ppc.Insn.x_of_code i) in
  let x1 i = dec "x1" (Ppc.Insn.x1_of_code i) in
  let w i = dec "width" (Ppc.Insn.width_of_code i) in
  let cr i = dec "cr_op" (Ppc.Insn.cr_op_of_code i) in
  let ib i = dec "ibin" (Op.ibin_of_code i) in
  let spr i = dec "spr" (Op.spr_of_code i) in
  [ Bin { op = xo 0; rt = 1; ra = 2; rb = 3; ca = Op.ca_loc; spec = false };
    Bin { op = xo 10; rt = 70; ra = Op.zero; rb = 4; ca = -1; spec = true };
    BinI { op = ib 0; rt = 5; ra = 6; imm = -32768; spec = true };
    BinI { op = ib 5; rt = 5; ra = 6; imm = 0x7FFF_FFFF; spec = false };
    Logic { op = x 9; rt = 7; ra = 8; rb = 9; spec = false };
    Un { op = x1 2; rt = 10; ra = 11; spec = true };
    SrawiOp { rt = 1; ra = 2; sh = 31; spec = false };
    RlwinmOp { rt = 1; ra = 2; sh = 3; mb = 0; me = 31; spec = true };
    CmpOp { signed = true; crt = 0; ra = 1; rb = 2; spec = false };
    CmpIOp { signed = false; crt = 7; ra = 1; imm = -1; spec = true };
    LoadOp
      { w = w 0; alg = false; rt = 3; base = 4; off = Op.OImm (-4);
        spec = true; passed = true };
    LoadOp
      { w = w 2; alg = true; rt = 3; base = 4; off = Op.OReg 9; spec = false;
        passed = false };
    StoreOp { w = w 1; rs = 5; base = 6; off = Op.OImm 8 };
    CropOp { op = cr 7; bt = 1; ba = 2; bb = 3; old = 4; spec = false };
    McrfOp { dst = 0; src = 7; spec = true };
    MfcrOp { rt = 12; srcs = Array.init 8 (fun i -> i * 4) };
    CrSetOp { crt = 3; rs = 4; pos = 2 };
    GetXer { rt = 13 };
    SetXer { rs = 14 };
    GetSpr { rt = 15; spr = spr 0 };
    SetSpr { spr = spr 7; rs = 16 };
    GetMsr { rt = 17 };
    SetMsr { rs = 18 };
    CommitG { arch = 31; src = 90 };
    CommitCr { arch = 7; src = 91 };
    CommitLr { src = Op.lr_loc };
    CommitCtr { src = Op.ctr_loc };
    CommitCa { src = Op.ca_loc } ]

let all_exits : T.exit list =
  [ Next 3; OnPage 0xFFC; OffPage 0x123456; Indirect (Op.lr_loc, `Lr);
    Indirect (Op.ctr_loc, `Ctr); Indirect (7, `Gpr); Trap (Tsc 0x2004);
    Trap Trfi; Trap (Tillegal 0x3000) ]

let test_codec_kitchen_sink () =
  (* one tree whose nodes collectively carry every op constructor and
     every exit kind *)
  let leaf ops exit : T.node = { ops; kind = Exit exit } in
  let rec chain seq exits =
    match exits with
    | [] -> failwith "empty"
    | [ e ] -> leaf (List.mapi (fun i op -> (seq + i, op)) all_ops) e
    | e :: rest ->
      { T.ops = [ (seq, List.nth all_ops (seq mod List.length all_ops)) ];
        kind =
          Branch
            { test = { bit = seq mod 32; sense = seq mod 2 = 0 };
              taken = leaf [] e;
              fall = chain (seq + 1) rest } }
  in
  let tree =
    { T.id = 42; root = chain 0 all_exits; precise_entry = 0x1234;
      is_entry = true; alu = 5; mem = 2; br = 3; free_gprs = 10;
      free_crs = 4 }
  in
  Alcotest.(check bool) "round-trips" true (roundtrip_tree tree = tree)

let test_codec_rejects_garbage () =
  let bad s =
    match Codec.decode_xpage s with
    | _ -> Alcotest.failf "decoded %S" s
    | exception Codec.Corrupt _ -> ()
  in
  bad "";
  bad "\x00";
  bad (String.make 64 '\xFF');
  (* a valid page truncated at every prefix must never decode *)
  let mem, entry = Workloads.Wl.instantiate (Workloads.Registry.by_name "wc") in
  let tr = Translate.create Translator.Params.default mem in
  let page, _ = Translate.entry tr entry in
  let s = Codec.encode_xpage page in
  for len = 0 to String.length s - 1 do
    bad (String.sub s 0 len)
  done

(* --- codec: property-based ---------------------------------------- *)

let gen_tree : T.t QCheck.Gen.t =
  let open QCheck.Gen in
  let loc = int_range (-1) 80 in
  let imm = int_range (-0x8000_0000) 0x7FFF_FFFF in
  let op : Op.t t =
    oneof
      [ map (fun ((rt, ra, rb), spec) ->
            Op.Bin
              { op = Option.get (Ppc.Insn.xo_of_code 0); rt; ra; rb;
                ca = Op.ca_loc; spec })
          (pair (triple loc loc loc) bool);
        map (fun ((code, rt, ra), imm) ->
            Op.BinI
              { op = Option.get (Op.ibin_of_code code); rt; ra; imm;
                spec = false })
          (pair (triple (int_range 0 5) loc loc) imm);
        map (fun ((code, rt, ra), rb) ->
            Op.Logic
              { op = Option.get (Ppc.Insn.x_of_code code); rt; ra; rb;
                spec = true })
          (pair (triple (int_range 0 9) loc loc) loc);
        map (fun ((rt, base, off), (spec, passed)) ->
            Op.LoadOp
              { w = Option.get (Ppc.Insn.width_of_code 2); alg = false; rt;
                base; off = Op.OImm off; spec; passed })
          (pair (triple loc loc imm) (pair bool bool));
        map (fun (rs, base, off) ->
            Op.StoreOp
              { w = Option.get (Ppc.Insn.width_of_code 0); rs; base;
                off = Op.OReg off })
          (triple loc loc loc);
        map (fun (arch, src) -> Op.CommitG { arch; src }) (pair loc loc);
        map (fun rt -> Op.MfcrOp { rt; srcs = Array.make 8 (-1) }) loc ]
  in
  let ops = list_size (int_range 0 6) (pair small_nat op) in
  let exit : T.exit t =
    oneof
      [ map (fun i -> T.Next i) small_nat;
        map (fun i -> T.OnPage i) (int_range 0 4092);
        map (fun i -> T.OffPage i) (int_range 0 0x3FFFF);
        map (fun l -> T.Indirect (l, `Lr)) loc;
        map (fun a -> T.Trap (Tsc a)) small_nat;
        return (T.Trap Trfi) ]
  in
  let rec node depth =
    if depth = 0 then map2 (fun ops e -> { T.ops; kind = Exit e }) ops exit
    else
      frequency
        [ (2, map2 (fun ops e -> { T.ops; kind = Exit e }) ops exit);
          ( 1,
            map2
              (fun (ops, (bit, sense)) (taken, fall) ->
                { T.ops; kind = Branch { test = { bit; sense }; taken; fall } })
              (pair ops (pair (int_range 0 31) bool))
              (pair (node (depth - 1)) (node (depth - 1))) ) ]
  in
  map2
    (fun root (id, (precise_entry, (is_entry, (alu, (mem, br))))) ->
      { T.id; root; precise_entry; is_entry; alu; mem; br;
        free_gprs = alu + 1; free_crs = br + 1 })
    (node 4)
    (pair small_nat
       (pair small_nat (pair bool (pair small_nat (pair small_nat small_nat)))))

let prop_tree_roundtrip =
  QCheck.Test.make ~name:"decode (encode tree) = tree" ~count:500
    (QCheck.make gen_tree)
    (fun t -> roundtrip_tree t = t)

(* --- codec + store over real translator output -------------------- *)

let translated_page name =
  let mem, entry = Workloads.Wl.instantiate (Workloads.Registry.by_name name) in
  let tr = Translate.create Translator.Params.default mem in
  let page, _ = Translate.entry tr entry in
  (mem, page)

let test_codec_real_page () =
  List.iter
    (fun name ->
      let _, page = translated_page name in
      let page' = Codec.decode_xpage (Codec.encode_xpage page) in
      Alcotest.(check bool) (name ^ " page round-trips") true
        (xpage_equal page page'))
    [ "wc"; "compress"; "sort" ]

let test_store_lifecycle () =
  let dir = fresh_dir () in
  let store =
    Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"test-fp-v1" ()
  in
  let mem, page = translated_page "wc" in
  let bytes = Ppc.Mem.read_string mem page.base page.psize in
  let key = Store.key store ~base:page.base bytes in
  (match Store.probe store ~key with
  | `Miss -> ()
  | _ -> Alcotest.fail "expected initial miss");
  ignore (Store.persist store ~key page ~spec_inhibited:true);
  (match Store.probe store ~key with
  | `Hit (page', spec_inhibited) ->
    Alcotest.(check bool) "hit page equals persisted page" true
      (xpage_equal page page');
    Alcotest.(check bool) "spec_inhibited round-trips" true spec_inhibited
  | _ -> Alcotest.fail "expected hit");
  (* a different fingerprint never sees the entry *)
  let other =
    Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"test-fp-v2" ()
  in
  (match Store.probe other ~key:(Store.key other ~base:page.base bytes) with
  | `Miss -> ()
  | _ -> Alcotest.fail "fingerprint must fork the namespace");
  Alcotest.(check bool) "evict removes" true (Store.evict store ~key);
  Alcotest.(check bool) "evict is idempotent" false (Store.evict store ~key);
  (match Store.probe store ~key with
  | `Miss -> ()
  | _ -> Alcotest.fail "expected miss after evict");
  ignore (Store.clear_dir dir)

let test_store_detects_corruption () =
  let dir = fresh_dir () in
  let store = Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  let mem, page = translated_page "wc" in
  let bytes = Ppc.Mem.read_string mem page.base page.psize in
  let key = Store.key store ~base:page.base bytes in
  ignore (Store.persist store ~key page ~spec_inhibited:false);
  let path = Filename.concat dir (key ^ ".dtc") in
  let original = In_channel.with_open_bin path In_channel.input_all in
  let write s = Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc s)
  in
  let expect_corrupt what =
    match Store.probe store ~key with
    | `Corrupt _ -> ()
    | `Hit _ -> Alcotest.failf "%s went undetected" what
    | `Miss -> Alcotest.failf "%s reported as miss" what
    | `Skipped m -> Alcotest.failf "%s skipped instead of corrupt: %s" what m
  in
  (* truncation, at several depths *)
  write (String.sub original 0 (String.length original / 2));
  expect_corrupt "truncation to half";
  write (String.sub original 0 3);
  expect_corrupt "truncation into magic";
  (* bit flip in the payload: caught by the checksum *)
  let flipped = Bytes.of_string original in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 1));
  write (Bytes.to_string flipped);
  expect_corrupt "payload bit flip";
  (* version mismatch *)
  let vers = Bytes.of_string original in
  Bytes.set vers 4 (Char.chr (Codec.version + 1));
  write (Bytes.to_string vers);
  expect_corrupt "version mismatch";
  (* and an intact entry still reads back *)
  write original;
  (match Store.probe store ~key with
  | `Hit _ -> ()
  | _ -> Alcotest.fail "restored entry should hit");
  (* list_dir sees through the same validation *)
  write (String.sub original 0 (String.length original - 2));
  (match Store.list_dir dir with
  | [ info ] -> (
    match info.status with
    | `Corrupt _ -> ()
    | `Skipped m -> Alcotest.failf "list_dir skipped the corruption: %s" m
    | `Ok -> Alcotest.fail "list_dir missed the corruption")
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
  ignore (Store.clear_dir dir)

(* --- warm start across the registry ------------------------------- *)

let test_warm_start_registry () =
  let dir = fresh_dir () in
  List.iter
    (fun (w : Workloads.Wl.t) ->
      let cold = Vmm.Run.run ~tcache_dir:dir w in
      let warm = Vmm.Run.run ~tcache_dir:dir w in
      (* Run.run itself verified both runs against the reference
         interpreter (registers, memory, console); here we check the
         warm start did zero translation work yet behaved identically *)
      Alcotest.(check int) (w.name ^ ": warm pages translated") 0
        warm.pages_translated;
      Alcotest.(check int) (w.name ^ ": warm insns scheduled") 0
        warm.insns_translated;
      Alcotest.(check bool) (w.name ^ ": warm hit the cache") true
        (warm.stats.tcache_hits > 0);
      Alcotest.(check bool) (w.name ^ ": cold persisted") true
        (cold.stats.tcache_persists > 0);
      Alcotest.(check bool) (w.name ^ ": same exit") true
        (cold.exit_code = warm.exit_code);
      Alcotest.(check int) (w.name ^ ": same VLIWs executed") cold.vliws
        warm.vliws;
      Alcotest.(check int) (w.name ^ ": same cycles") cold.cycles_infinite
        warm.cycles_infinite;
      Alcotest.(check bool) (w.name ^ ": same ILP") true
        (cold.ilp_inf = warm.ilp_inf))
    Workloads.Registry.all;
  ignore (Store.clear_dir dir)

let test_warm_survives_corrupt_entry () =
  let dir = fresh_dir () in
  let w = Workloads.Registry.by_name "wc" in
  let cold = Vmm.Run.run ~tcache_dir:dir w in
  (* truncate one entry on disk *)
  (match Store.list_dir dir with
  | info :: _ ->
    let path = Filename.concat dir (info.key ^ ".dtc") in
    let s = In_channel.with_open_bin path In_channel.input_all in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub s 0 (String.length s / 3)))
  | [] -> Alcotest.fail "cold run persisted nothing");
  let warm = Vmm.Run.run ~tcache_dir:dir w in
  Alcotest.(check bool) "corrupt entry counted" true
    (warm.stats.tcache_corrupt >= 1);
  Alcotest.(check bool) "run still completed correctly" true
    (warm.exit_code = cold.exit_code);
  (* the retranslation was re-persisted, so a third run is all-hit *)
  let third = Vmm.Run.run ~tcache_dir:dir w in
  Alcotest.(check int) "third run all from cache" 0 third.pages_translated;
  ignore (Store.clear_dir dir)

(* --- self-modifying code × cache ----------------------------------

   The JIT program from examples/self_modifying.ml: it writes a
   two-instruction function (mullw; blr) into an empty page, runs it,
   patches the mullw into an add, and runs it again.  The store into
   the translated page must evict the persisted entry keyed on the
   pre-store bytes, so no later run can install the invalidated
   translation generation. *)

let jit_page = 0x4000

let build_selfmod a =
  let open Ppc in
  Asm.org a 0x1000;
  Asm.label a "main";
  Asm.li32 a 10 jit_page;
  Asm.li32 a 11 (Encode.encode (Xo (Mullw, 3, 3, 3, false)));
  Asm.stw a 11 10 0;
  Asm.li32 a 11 (Encode.encode (Bclr (Insn.Bo.always, 0, false)));
  Asm.stw a 11 10 4;
  Asm.ins a Isync;
  Asm.li a 3 7;
  Asm.mtctr a 10;
  Asm.bctrl a;
  Asm.mr a 20 3;
  Asm.li32 a 11 (Encode.encode (Xo (Add, 3, 3, 3, false)));
  Asm.stw a 11 10 0;
  Asm.ins a Isync;
  Asm.li a 3 7;
  Asm.mtctr a 10;
  Asm.bctrl a;
  Asm.ins a (Mulli (20, 20, 100));
  Asm.add a 3 3 20;
  Asm.halt a ~scratch:31 3

let run_selfmod ~tcache_dir =
  let mem = Ppc.Mem.create 0x40000 in
  let a = Ppc.Asm.create () in
  build_selfmod a;
  let labels = Ppc.Asm.assemble a mem in
  let vmm = Vmm.Monitor.create ~tcache_dir mem in
  let code =
    Vmm.Monitor.run vmm ~entry:(Hashtbl.find labels "main") ~fuel:100_000
  in
  (code, vmm)

(* the jit page's bytes at first-translation time: mullw + blr at its
   base, zeroes elsewhere *)
let jit_page_bytes ~psize =
  let open Ppc in
  let b = Bytes.make psize '\000' in
  Bytes.set_int32_be b 0 (Int32.of_int (Encode.encode (Xo (Mullw, 3, 3, 3, false))));
  Bytes.set_int32_be b 4
    (Int32.of_int (Encode.encode (Bclr (Insn.Bo.always, 0, false))));
  Bytes.to_string b

let test_selfmod_evicts () =
  let dir = fresh_dir () in
  let code, vmm = run_selfmod ~tcache_dir:dir in
  Alcotest.(check (option int)) "cold exit" (Some 4914) code;
  Alcotest.(check bool) "store tripped the read-only bit" true
    (vmm.stats.code_invalidations > 0);
  Alcotest.(check bool) "invalidation evicted the entry" true
    (vmm.stats.tcache_evicts >= 1);
  (* the entry for the pre-patch generation is gone: probing under the
     mullw-bytes key must miss, so no run can reuse the invalidated
     translation *)
  let store =
    Store.open_store ~dir ~frontend:"ppc"
      ~fingerprint:(Translator.Params.fingerprint Translator.Params.default) ()
  in
  let psize = Translator.Params.default.page_size in
  let stale_key = Store.key store ~base:jit_page (jit_page_bytes ~psize) in
  (match Store.probe store ~key:stale_key with
  | `Miss -> ()
  | `Hit _ -> Alcotest.fail "stale pre-patch entry survived eviction"
  | `Corrupt m -> Alcotest.failf "stale entry corrupt instead of gone: %s" m
  | `Skipped m -> Alcotest.failf "stale entry skipped instead of gone: %s" m);
  (* warm run: correct result, hits for the stable pages, and the same
     eviction dance for the JIT page's two generations *)
  let code', vmm' = run_selfmod ~tcache_dir:dir in
  Alcotest.(check (option int)) "warm exit" (Some 4914) code';
  Alcotest.(check bool) "warm run hit the cache" true
    (vmm'.stats.tcache_hits >= 1);
  ignore (Store.clear_dir dir)

(* --- write-behind for in-place extensions --------------------------

   A page's first translation is written at once; extending a page
   that is already translated only marks it dirty, and the dirty page
   is written once, when the run exits or before a cast-out drops it.
   gcc extends its pages in place 19 times over 5 pages. *)

let test_extensions_written_once () =
  let dir = fresh_dir () in
  let w = Workloads.Registry.by_name "gcc" in
  let cold = Vmm.Run.run ~tcache_dir:dir w in
  Alcotest.(check bool) "cold run extends pages in place" true
    (cold.totals.groups > cold.pages_translated
    && cold.stats.tcache_deferred > 0);
  Alcotest.(check bool) "at most two writes per page" true
    (cold.stats.tcache_persists <= 2 * cold.pages_translated);
  (* the flushed superset entries hold every extension: the warm run
     translates nothing, not even one group *)
  let warm = Vmm.Run.run ~tcache_dir:dir w in
  Alcotest.(check int) "warm translation groups" 0 warm.totals.groups;
  Alcotest.(check int) "warm persists" 0 warm.stats.tcache_persists;
  Alcotest.(check int) "same VLIWs executed" cold.vliws warm.vliws;
  ignore (Store.clear_dir dir)

let test_castout_flushes_victim () =
  let dir = fresh_dir () in
  let w = Workloads.Registry.by_name "gcc" in
  (* pages extended since their last write, tracked from the event
     stream; a cast-out victim must never be one of them *)
  let pending = Hashtbl.create 8 in
  let extending = ref false and last_persist = ref (-1) in
  let flushed_victims = ref 0 and castouts = ref 0 and unwritten = ref [] in
  let instrument (vmm : Vmm.Monitor.t) =
    vmm.code_budget <- Some 1200;
    vmm.event_hook <-
      Some
        (fun ev ->
          (match ev with
          | Translate_begin { page; _ } ->
            extending := Hashtbl.mem vmm.tr.pages page
          | Translate_end { page; _ } ->
            if !extending then Hashtbl.replace pending page ()
          | Tcache_persist { page; _ } -> Hashtbl.remove pending page
          | Castout { page; _ } ->
            incr castouts;
            if Hashtbl.mem pending page then unwritten := page :: !unwritten;
            if !last_persist = page then incr flushed_victims
          | _ -> ());
          last_persist :=
            match ev with Tcache_persist { page; _ } -> page | _ -> -1)
  in
  let r = Vmm.Run.run ~tcache_dir:dir ~instrument w in
  Alcotest.(check (list int)) "victims cast out with extensions unwritten" []
    !unwritten;
  Alcotest.(check bool) "the budget forced cast-outs" true (!castouts > 0);
  Alcotest.(check bool) "a victim's extension was written just before" true
    (!flushed_victims > 0);
  Alcotest.(check bool) "extensions were deferred" true
    (r.stats.tcache_deferred > 0);
  ignore (Store.clear_dir dir)

let test_selfmod_after_extension_not_written () =
  let w = Workloads.Registry.by_name "wc" in
  (* translate a page, extend it with a second entry point, then either
     leave it alone or store into it before the flush *)
  let run ~selfmod =
    let dir = fresh_dir () in
    let mem, entry = Workloads.Wl.instantiate w in
    let vmm = Vmm.Monitor.create ~tcache_dir:dir mem in
    let page, _ = Translate.entry vmm.tr entry in
    Vmm.Monitor.tcache_persist vmm page;
    let n0 = Vec.length page.vliws in
    let off =
      let rec free o = if Hashtbl.mem page.entries o then free (o + 4) else o in
      free 0
    in
    let page', _ = Translate.entry vmm.tr (page.base + off) in
    Alcotest.(check bool) "extended in place" true
      (page' == page && Vec.length page.vliws > n0);
    Vmm.Monitor.tcache_defer vmm page;
    if selfmod then
      (* same-value store: the bytes, and so the content key, stay put,
         but the read-only bit still invalidates the translation *)
      Ppc.Mem.store32 mem entry (Ppc.Mem.load32 mem entry);
    Vmm.Monitor.flush_dirty vmm;
    let store =
      Store.open_store ~dir ~frontend:"ppc"
        ~fingerprint:(Translator.Params.fingerprint Translator.Params.default)
        ()
    in
    let key =
      Store.key store ~base:page.base (Ppc.Mem.read_string mem page.base page.psize)
    in
    let probe = Store.probe store ~key in
    ignore (Store.clear_dir dir);
    (vmm.stats.tcache_persists, probe, Vec.length page.vliws)
  in
  (match run ~selfmod:false with
  | 2, `Hit (p, _), n ->
    Alcotest.(check int) "flush wrote the extended page" n (Vec.length p.vliws)
  | n, _, _ -> Alcotest.failf "control: %d persists, no extended entry" n);
  match run ~selfmod:true with
  | 1, `Miss, _ -> ()
  | n, `Hit _, _ -> Alcotest.failf "invalidated extension written (%d persists)" n
  | n, _, _ -> Alcotest.failf "unexpected store state after %d persists" n

(* --- adaptive retranslation × cache -------------------------------

   Spec-inhibition is run-time state the content address cannot see:
   the bytes never change, only the VMM's opinion of them.  The evict
   on [Retranslate_adaptive] plus the [spec_inhibited] flag persisted
   with the retranslation keep warm starts faithful. *)

let test_spec_inhibited_flag_roundtrip () =
  let dir = fresh_dir () in
  let store = Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  let mem, page = translated_page "wc" in
  let bytes = Ppc.Mem.read_string mem page.base page.psize in
  let key = Store.key store ~base:page.base bytes in
  ignore (Store.persist store ~key page ~spec_inhibited:false);
  (match Store.probe store ~key with
  | `Hit (_, si) -> Alcotest.(check bool) "flag off" false si
  | _ -> Alcotest.fail "expected hit");
  (* overwrite in place with the flag set, as a retranslation would *)
  ignore (Store.persist store ~key page ~spec_inhibited:true);
  (match Store.probe store ~key with
  | `Hit (_, si) -> Alcotest.(check bool) "flag on" true si
  | _ -> Alcotest.fail "expected hit");
  ignore (Store.clear_dir dir)

(* --- skip semantics: the store is not the only tenant --------------

   Anything in the cache directory that is not a readable entry file —
   a directory wearing the [.dtc] suffix, a stray README — is skipped
   and reported, never deleted, and never an exception. *)

let test_store_skips_junk () =
  let dir = fresh_dir () in
  let store = Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  let mem, page = translated_page "wc" in
  let bytes = Ppc.Mem.read_string mem page.base page.psize in
  let key = Store.key store ~base:page.base bytes in
  ignore (Store.persist store ~key page ~spec_inhibited:false);
  Store.mkdir_p (Filename.concat dir "imposter.dtc");
  Out_channel.with_open_bin (Filename.concat dir "README") (fun oc ->
      Out_channel.output_string oc "not a cache entry\n");
  (* probing the directory skips with a reason instead of raising *)
  (match Store.probe store ~key:"imposter" with
  | `Skipped _ -> ()
  | _ -> Alcotest.fail "expected skip for a directory entry");
  (* the real entry is still served *)
  (match Store.probe store ~key with
  | `Hit _ -> ()
  | _ -> Alcotest.fail "expected hit despite junk in the directory");
  (* listing marks the directory skipped; strays are reported apart *)
  let skipped =
    List.filter
      (fun (i : Store.info) ->
        match i.status with `Skipped _ -> true | _ -> false)
      (Store.list_dir dir)
  in
  Alcotest.(check int) "one skipped entry" 1 (List.length skipped);
  Alcotest.(check (list string)) "strays reported" [ "README" ]
    (Store.stray_files dir);
  (* clear removes only what is the store's and removable *)
  let removed, skipped_n = Store.clear_dir dir in
  Alcotest.(check int) "removed the real entry" 1 removed;
  Alcotest.(check int) "skipped directory + stray" 2 skipped_n;
  Alcotest.(check bool) "stray untouched" true
    (Sys.file_exists (Filename.concat dir "README"));
  Sys.remove (Filename.concat dir "README");
  Unix.rmdir (Filename.concat dir "imposter.dtc")

let test_warm_counts_skipped () =
  let dir = fresh_dir () in
  let w = Workloads.Registry.by_name "wc" in
  let cold = Vmm.Run.run ~tcache_dir:dir w in
  (* replace one entry with a same-named directory: the warm start must
     skip it, count it, retranslate and still verify (the failed
     re-persist over the directory is silently best-effort) *)
  (match Store.list_dir dir with
  | info :: _ ->
    let path = Filename.concat dir (info.key ^ ".dtc") in
    Sys.remove path;
    Store.mkdir_p path
  | [] -> Alcotest.fail "cold run persisted nothing");
  let warm = Vmm.Run.run ~tcache_dir:dir w in
  Alcotest.(check bool) "skip counted" true (warm.stats.tcache_skipped >= 1);
  Alcotest.(check bool) "run still completed correctly" true
    (warm.exit_code = cold.exit_code);
  Alcotest.(check bool) "skipped page retranslated" true
    (warm.pages_translated >= 1);
  ignore (Store.clear_dir dir)

(* A missing or never-populated cache directory is an empty cache, not
   an error: every directory tool reports empty, and the CLI (which
   builds on them) exits 0.  Regression test for `daisy tcache stats`
   on a directory that does not exist. *)
let test_missing_dir_is_empty () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy_test_tcache_missing.%d" (Unix.getpid ()))
  in
  (* the directory must NOT exist *)
  Alcotest.(check bool) "precondition" false (Sys.file_exists dir);
  Alcotest.(check (list string)) "ls: no entries" []
    (List.map (fun (i : Store.info) -> i.key) (Store.list_dir dir));
  Alcotest.(check (list string)) "no strays" [] (Store.stray_files dir);
  Alcotest.(check (pair int int)) "clear: nothing to do" (0, 0)
    (Store.clear_dir dir);
  Alcotest.(check bool) "tools did not create it" false (Sys.file_exists dir);
  (* the CLI itself: every subcommand exits 0 on the missing dir (the
     binary is a declared test dependency, built next to this suite) *)
  let daisy =
    Filename.concat
      (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
      "daisy.exe"
  in
  Alcotest.(check bool) "daisy binary present" true (Sys.file_exists daisy);
  List.iter
    (fun sub ->
      Alcotest.(check int)
        ("daisy tcache " ^ sub ^ " exits 0")
        0
        (Sys.command
           (Filename.quote_command daisy ~stdout:Filename.null
              [ "tcache"; sub; dir ])))
    [ "stats"; "ls"; "clear" ]

(* A writer killed between temp-file creation and rename leaves an
   orphaned *.tmp; opening the store sweeps them, leaving real entries
   and foreign files alone. *)
let test_open_sweeps_orphan_tmp () =
  let dir = fresh_dir () in
  let store = Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  let _, page = translated_page "wc" in
  let k = Store.key store ~base:page.base "bytes" in
  ignore (Store.persist store ~key:k page ~spec_inhibited:false);
  let touch name =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc "torn")
  in
  touch ".tcache-orphan-a.tmp";
  touch ".tcache-orphan-b.tmp";
  touch "README";
  let store2 = Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  Alcotest.(check int) "orphans swept" 2 store2.swept_tmp;
  Alcotest.(check bool) "no temp files left" false
    (Array.exists
       (fun f -> Filename.check_suffix f ".tmp")
       (Sys.readdir dir));
  (match Store.probe store2 ~key:k with
  | `Hit _ -> ()
  | _ -> Alcotest.fail "real entry lost in the sweep");
  Alcotest.(check (list string)) "foreign file untouched" [ "README" ]
    (Store.stray_files dir);
  Sys.remove (Filename.concat dir "README");
  ignore (Store.clear_dir dir)

let () =
  Alcotest.run "tcache"
    [ ( "codec",
        [ Alcotest.test_case "kitchen sink" `Quick test_codec_kitchen_sink;
          Alcotest.test_case "rejects garbage" `Quick
            test_codec_rejects_garbage;
          Alcotest.test_case "real pages" `Quick test_codec_real_page;
          QCheck_alcotest.to_alcotest prop_tree_roundtrip ] );
      ( "store",
        [ Alcotest.test_case "lifecycle" `Quick test_store_lifecycle;
          Alcotest.test_case "corruption" `Quick
            test_store_detects_corruption;
          Alcotest.test_case "spec flag" `Quick
            test_spec_inhibited_flag_roundtrip;
          Alcotest.test_case "skips junk" `Quick test_store_skips_junk;
          Alcotest.test_case "missing dir is empty" `Quick
            test_missing_dir_is_empty;
          Alcotest.test_case "open sweeps orphan tmp" `Quick
            test_open_sweeps_orphan_tmp ] );
      ( "warm start",
        [ Alcotest.test_case "registry" `Slow test_warm_start_registry;
          Alcotest.test_case "corrupt entry" `Quick
            test_warm_survives_corrupt_entry;
          Alcotest.test_case "skipped entry" `Quick test_warm_counts_skipped;
          Alcotest.test_case "self-modifying" `Quick test_selfmod_evicts ] );
      ( "write-behind",
        [ Alcotest.test_case "extensions written once" `Quick
            test_extensions_written_once;
          Alcotest.test_case "castout flushes victim" `Quick
            test_castout_flushes_victim;
          Alcotest.test_case "selfmod after extension" `Quick
            test_selfmod_after_extension_not_written ] ) ]
