(* The staged (closure-compiled) VLIW execution engine against the
   interpretive tree walker.

   Three layers of evidence that the two engines are the same machine:
   hand-built trees run through [Exec.run] and [Compile.exec_vliw] on
   identical states (outcome, rollback reason, accesses and final state
   compared field by field), a qcheck differential over random
   straight-line VLIWs, and whole-workload runs through [Vmm.Run.run] —
   which already verifies each engine bit-for-bit against the reference
   interpreter — compared engine against engine, plus seeded fuzz
   corpora (clean and full fault cocktail) where every page now runs
   under both engines. *)

open Vliw
module T = Tree
module C = Compile

let seq = ref 0

(* reset the op-sequence counter: equivalence checks build the same
   tree twice (once per engine) and must number ops identically *)
let mk () =
  seq := 0;
  T.create ~id:0 ~precise_entry:0x1000

let add tip op =
  incr seq;
  T.add_op tip !seq op

(* ------------------------------------------------------------------ *)
(* Outcome comparison                                                  *)

(* Both engines' results folded into one comparable shape.  The staged
   engine reports its exit as a [C.cexit]; map it back to the tree form
   it was compiled from. *)
let exit_of_cexit : C.cexit -> T.exit = function
  | C.Cnext cv -> T.Next cv.c_id
  | C.Cnext_id id -> T.Next id
  | C.Conpage l -> T.OnPage l.l_off
  | C.Coffpage a -> T.OffPage a
  | C.Cindirect (l, k) -> T.Indirect (l, k)
  | C.Ctrap tr -> T.Trap tr

type outcome =
  | ODone of T.exit * int * Exec.access list  (** exit, nops, accesses *)
  | ORoll of Exec.reason
  | OError of string

(* Accesses are compared as sets keyed by [seq]: the staged engine
   reports them in program order, the interpretive one in the order its
   write list happened to accumulate. *)
let by_seq l =
  List.sort (fun (a : Exec.access) (b : Exec.access) -> compare a.seq b.seq) l

let run_interp ?(alias = true) st mem v =
  match Exec.run st mem ~alias_check:(fun _ -> alias) v with
  | Exec.Done { exit; accesses; nops } -> ODone (exit, nops, by_seq accesses)
  | Exec.Rollback r -> ORoll r
  | exception Exec.Error m -> OError m

let run_compiled ?(alias = true) cp cv =
  match C.exec_vliw cp cv ~alias_check:(fun _ -> alias) with
  | leaf ->
    ODone
      (exit_of_cexit leaf.C.exit, leaf.C.nops, by_seq (C.accesses cp.C.scratch))
  | exception Exec.Roll r -> ORoll r
  | exception Exec.Error m -> OError m

let outcome_str = function
  | ODone (_, nops, accs) ->
    Printf.sprintf "Done (nops %d, %d accesses)" nops (List.length accs)
  | ORoll Exec.Ralias -> "Rollback alias"
  | ORoll (Exec.Rfault { addr; write }) ->
    Printf.sprintf "Rollback fault %x write:%b" addr write
  | ORoll (Exec.Rtag _) -> "Rollback tag"
  | OError m -> "Error " ^ m

let outcome_t = Alcotest.testable (fun fmt o -> Fmt.string fmt (outcome_str o)) ( = )

(* Run one tree under both engines from identical initial states and
   require the same outcome and the same final machine, pool, memory,
   device and console state. *)
let check_equiv ?(setup = fun (_ : Vstate.t) (_ : Ppc.Mem.t) -> ()) ?(alias = true)
    name (build : unit -> T.t) =
  let fresh () =
    let st = Vstate.create (Ppc.Machine.create ()) in
    let mem = Ppc.Mem.create 0x2000 in
    setup st mem;
    (st, mem)
  in
  let ist, imem = fresh () in
  let oi = run_interp ~alias ist imem (build ()) in
  let cst, cmem = fresh () in
  let cp = C.stage ~st:cst ~mem:cmem ~scratch:(C.create_scratch ()) [| build () |] in
  let oc = run_compiled ~alias cp (C.get cp 0) in
  Alcotest.check outcome_t (name ^ ": outcome") oi oc;
  Alcotest.(check bool)
    (name ^ ": architected state")
    true
    (Ppc.Machine.equal ist.m cst.m);
  Alcotest.(check bool) (name ^ ": pool") true (ist.hi = cst.hi && ist.ext = cst.ext);
  Alcotest.(check bool)
    (name ^ ": cr pool")
    true
    (ist.crhi = cst.crhi && ist.tags = cst.tags && ist.crtags = cst.crtags);
  Alcotest.(check bool) (name ^ ": memory") true (Bytes.equal imem.bytes cmem.bytes);
  Alcotest.(check int) (name ^ ": device seq") imem.seq cmem.seq;
  Alcotest.(check string)
    (name ^ ": console")
    (Ppc.Mem.output imem) (Ppc.Mem.output cmem)

(* ------------------------------------------------------------------ *)
(* Hand-built trees                                                    *)

let test_parallel_swap () =
  check_equiv "swap" (fun () ->
      let v = mk () in
      add v.root (Op.BinI { op = IAdd; rt = 1; ra = 2; imm = 0; spec = false });
      add v.root (Op.BinI { op = IAdd; rt = 2; ra = 1; imm = 0; spec = false });
      T.close v.root (T.OffPage 0);
      v)
    ~setup:(fun st _ ->
      st.m.gpr.(1) <- 111;
      st.m.gpr.(2) <- 222)

let test_branch_path () =
  (* both senses of a compiled branch select the same leaf as the walker *)
  List.iter
    (fun cr0 ->
      check_equiv (Printf.sprintf "branch cr0=%x" cr0) (fun () ->
          let v = mk () in
          add v.root (Op.BinI { op = IAdd; rt = 3; ra = Op.zero; imm = 7; spec = false });
          let t, f = T.split v.root { bit = 2; sense = true } in
          add t (Op.BinI { op = IAdd; rt = 4; ra = Op.zero; imm = 1; spec = false });
          T.close t (T.OffPage 0x2000);
          add f (Op.BinI { op = IAdd; rt = 4; ra = Op.zero; imm = 2; spec = false });
          T.close f (T.OnPage 0x40);
          v)
        ~setup:(fun st _ -> Ppc.Machine.set_crf st.m 0 cr0))
    [ 0x0; 0x2; 0xF ]

let test_fault_rollback () =
  check_equiv "nonspec faulting load" (fun () ->
      let v = mk () in
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                     off = OImm 0x10_0000; spec = false; passed = false });
      T.close v.root (T.Next 1);
      v)

let test_store_fault_rollback () =
  check_equiv "out-of-bounds store" (fun () ->
      let v = mk () in
      add v.root (Op.StoreOp { w = Word; rs = 1; base = Op.zero; off = OImm 0x10_0000 });
      T.close v.root (T.Next 1);
      v)

let test_spec_load_tags () =
  (* speculative faulting load tags instead of rolling back; consuming
     the tag non-speculatively rolls back in both engines *)
  check_equiv "speculative faulting load" (fun () ->
      let v = mk () in
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 40; base = Op.zero;
                     off = OImm 0x10_0000; spec = true; passed = false });
      add v.root (Op.BinI { op = IAdd; rt = 1; ra = 40; imm = 0; spec = false });
      T.close v.root (T.Next 1);
      v)

let test_tagged_branch () =
  check_equiv "branch on tagged condition" (fun () ->
      let v = mk () in
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 40; base = Op.zero;
                     off = OImm 0x10_0000; spec = true; passed = false });
      add v.root (Op.CmpIOp { signed = true; crt = 9; ra = 40; imm = 0; spec = true });
      T.close v.root (T.Next 1);
      v);
  (* consuming VLIW: test the pool CR written above *)
  let build () =
    let v = mk () in
    let t, f = T.split v.root { bit = (9 * 4) + 2; sense = true } in
    T.close t (T.OffPage 0);
    T.close f (T.OffPage 4);
    v
  in
  let setup (st : Vstate.t) _ = Vstate.set_cr_tag st 9 (Vstate.Tfault 0x10_0000) in
  check_equiv "consume tagged CR" build ~setup

let test_mmio_deferred () =
  (* a non-speculative MMIO load defers the device read to apply: the
     sequence register ticks exactly once, in both engines *)
  check_equiv "mmio seq load" (fun () ->
      let v = mk () in
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                     off = OImm Ppc.Mem.mmio_seq; spec = false; passed = false });
      T.close v.root (T.Next 1);
      v)

let test_mmio_rolled_back () =
  (* ... and when a later op faults, the device is never touched *)
  check_equiv "mmio load + fault" (fun () ->
      let v = mk () in
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                     off = OImm Ppc.Mem.mmio_seq; spec = false; passed = false });
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 2; base = Op.zero;
                     off = OImm 0x10_0000; spec = false; passed = false });
      T.close v.root (T.Next 1);
      v)

let test_alias_veto () =
  check_equiv "alias veto" ~alias:false (fun () ->
      let v = mk () in
      add v.root (Op.StoreOp { w = Word; rs = 1; base = Op.zero; off = OImm 0x100 });
      T.close v.root (T.Next 1);
      v)

let test_open_tip () =
  check_equiv "open tip" (fun () ->
      let v = mk () in
      add v.root (Op.BinI { op = IAdd; rt = 1; ra = Op.zero; imm = 5; spec = false });
      v)

let test_corrupt_loc () =
  (* a corrupted operand location surfaces as the same typed Error *)
  check_equiv "corrupt source loc" (fun () ->
      let v = mk () in
      add v.root (Op.BinI { op = IAdd; rt = 1; ra = 77; imm = 0; spec = false });
      T.close v.root (T.Next 1);
      v)

let test_carry_chain () =
  check_equiv "carry chain" (fun () ->
      let v = mk () in
      add v.root
        (Op.Bin { op = Addc; rt = 3; ra = 1; rb = 2; ca = Op.ca_loc; spec = false });
      add v.root
        (Op.Bin { op = Adde; rt = 4; ra = 1; rb = 2; ca = Op.ca_loc; spec = false });
      T.close v.root (T.Next 1);
      v)
    ~setup:(fun st _ ->
      st.m.gpr.(1) <- 0xFFFF_FFFF;
      st.m.gpr.(2) <- 2;
      st.m.xer_ca <- true)

(* ------------------------------------------------------------------ *)
(* qcheck differential: random straight-line VLIWs                     *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 10)
      (frequency
         [ (4,
            map3
              (fun rt ra imm -> Op.BinI { op = IAdd; rt; ra; imm; spec = false })
              (int_range 0 31) (int_range 0 31) (int_range (-100) 100));
           (2,
            map3
              (fun rt ra rb ->
                Op.Bin { op = Add; rt; ra; rb; ca = Op.ca_loc; spec = false })
              (int_range 0 31) (int_range 0 31) (int_range 0 31));
           (2,
            map2
              (fun rt off ->
                Op.LoadOp { w = Word; alg = false; rt; base = Op.zero;
                            off = OImm (off * 4); spec = false; passed = false })
              (int_range 0 31) (int_range 0 100));
           (1,
            map2
              (fun rt off ->
                Op.LoadOp { w = Word; alg = false; rt = 32 + rt; base = Op.zero;
                            off = OImm (0x10_0000 + (off * 4)); spec = true;
                            passed = false })
              (int_range 0 8) (int_range 0 100));
           (2,
            map2
              (fun rs off ->
                Op.StoreOp { w = Word; rs; base = Op.zero; off = OImm (off * 4) })
              (int_range 0 31) (int_range 0 100));
           (1,
            map2
              (fun crt ra -> Op.CmpIOp { signed = true; crt; ra; imm = 0; spec = false })
              (int_range 0 7) (int_range 0 31)) ]))

let prop_differential =
  QCheck.Test.make ~name:"random VLIW: staged = interpretive" ~count:500
    (QCheck.make gen_ops
       ~print:(fun ops -> String.concat "; " (List.map Op.to_string ops)))
    (fun ops ->
      let build () =
        let v = mk () in
        List.iter (add v.root) ops;
        T.close v.root (T.Next 1);
        v
      in
      let fresh () =
        let st = Vstate.create (Ppc.Machine.create ()) in
        let mem = Ppc.Mem.create 0x2000 in
        for r = 0 to 31 do
          st.m.gpr.(r) <- r * 12345
        done;
        (st, mem)
      in
      let ist, imem = fresh () in
      let oi = run_interp ist imem (build ()) in
      let cst, cmem = fresh () in
      let cp =
        C.stage ~st:cst ~mem:cmem ~scratch:(C.create_scratch ()) [| build () |]
      in
      let oc = run_compiled cp (C.get cp 0) in
      let ok =
        oi = oc
        && Ppc.Machine.equal ist.m cst.m
        && ist.hi = cst.hi && ist.tags = cst.tags
        && Bytes.equal imem.bytes cmem.bytes
      in
      if not ok then begin
        (* counterexample detail beyond the shrunk op list *)
        Printf.eprintf "diverged: %s vs %s\n" (outcome_str oi) (outcome_str oc);
        Printf.eprintf "machine_eq %b hi %b tags %b mem %b\n"
          (Ppc.Machine.equal ist.m cst.m) (ist.hi = cst.hi) (ist.tags = cst.tags)
          (Bytes.equal imem.bytes cmem.bytes);
        (match (oi, oc) with
        | ODone (e1, n1, a1), ODone (e2, n2, a2) ->
          Printf.eprintf "exits_eq %b nops %d/%d accs %d/%d\n" (e1 = e2) n1
            n2 (List.length a1) (List.length a2);
          List.iter2
            (fun (x : Exec.access) (y : Exec.access) ->
              Printf.eprintf
                "  acc seq %d/%d addr %x/%x bytes %d/%d passed %b/%b store %b/%b\n"
                x.seq y.seq x.addr y.addr x.bytes y.bytes x.passed_store
                y.passed_store x.store y.store)
            a1 a2
        | _ -> ())
      end;
      ok)

(* ------------------------------------------------------------------ *)
(* Direct linking                                                      *)

let test_direct_link_patched () =
  (* in-range Next exits become direct closure references at staging *)
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x1000 in
  let v0 = mk () in
  T.close v0.root (T.Next 1);
  let v1 = T.create ~id:1 ~precise_entry:0x1004 in
  T.close v1.root (T.Next 99);
  let cp = C.stage ~st ~mem ~scratch:(C.create_scratch ()) [| v0; v1 |] in
  let leaf0 = C.exec_vliw cp (C.get cp 0) ~alias_check:(fun _ -> true) in
  (match leaf0.C.exit with
  | C.Cnext cv -> Alcotest.(check int) "linked to tree 1" 1 cv.C.c_id
  | _ -> Alcotest.fail "expected a direct-linked Next");
  let leaf1 = C.exec_vliw cp (C.get cp 1) ~alias_check:(fun _ -> true) in
  match leaf1.C.exit with
  | C.Cnext_id 99 -> ()
  | _ -> Alcotest.fail "out-of-range Next must stay unlinked"

let test_onpage_memo () =
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x1000 in
  let v = mk () in
  T.close v.root (T.OnPage 0x40);
  let cp = C.stage ~st ~mem ~scratch:(C.create_scratch ()) [| v |] in
  let leaf = C.exec_vliw cp (C.get cp 0) ~alias_check:(fun _ -> true) in
  match leaf.C.exit with
  | C.Conpage l ->
    Alcotest.(check int) "offset kept" 0x40 l.C.l_off;
    Alcotest.(check int) "starts unresolved" (-1) l.C.l_entry;
    (* the monitor memoizes the resolved id here *)
    l.C.l_entry <- 3;
    let leaf' = C.exec_vliw cp (C.get cp 0) ~alias_check:(fun _ -> true) in
    (match leaf'.C.exit with
    | C.Conpage l' -> Alcotest.(check int) "memo survives" 3 l'.C.l_entry
    | _ -> Alcotest.fail "exit changed shape")
  | _ -> Alcotest.fail "expected OnPage"

(* ------------------------------------------------------------------ *)
(* Incremental staging                                                 *)

(* A random translated page as the translator builds one: groups of
   trees appended in turn, each group's [Next] exits pointing only at
   its own trees, and every other transfer an [OnPage]/[OffPage] exit. *)
type gtree = {
  g_ops : Op.t list;
  g_split : (int * Op.t list) option;  (** CR bit of a split, taken-side ops *)
  g_next : int list;  (** group-relative [Next] targets per leaf (-1 = off page) *)
}

let gen_group =
  QCheck.Gen.(
    let tree size =
      map3
        (fun ops split nexts -> { g_ops = ops; g_split = split; g_next = nexts })
        gen_ops
        (opt (pair (int_range 0 31) gen_ops))
        (list_repeat 2 (int_range (-1) (size - 1)))
    in
    int_range 1 4 >>= fun size -> list_repeat size (tree size))

let build_page groups =
  let trees = ref [] and n = ref 0 and seq = ref 0 in
  List.iter
    (fun group ->
      let base = !n in
      List.iter
        (fun g ->
          let id = !n in
          incr n;
          let v = T.create ~id ~precise_entry:(0x1000 + (4 * id)) in
          let add tip op =
            incr seq;
            T.add_op tip !seq op
          in
          let exit k =
            match List.nth g.g_next k with
            | -1 -> if k = 0 then T.OffPage 0x4000 else T.OnPage (4 * id)
            | r -> T.Next (base + r)
          in
          List.iter (add v.root) g.g_ops;
          (match g.g_split with
          | None -> T.close v.root (exit 0)
          | Some (bit, ops) ->
            let taken, fall = T.split v.root { bit; sense = true } in
            List.iter (add taken) ops;
            T.close taken (exit 0);
            T.close fall (exit 1));
          trees := v :: !trees)
        group)
    groups;
  Array.of_list (List.rev !trees)

(* Run a chain of staged VLIWs from [id], following [Next] exits, from
   a fresh state; returns every step's outcome and the final state. *)
let run_chain cp id =
  let rec go cv steps acc =
    let o = run_compiled cp cv in
    let acc = o :: acc in
    match o with
    | ODone (T.Next id', _, _) when steps > 0 && id' < C.n_staged cp ->
      go (C.get cp id') (steps - 1) acc
    | _ -> List.rev acc
  in
  go (C.get cp id) 12 []

let fresh_state () =
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x2000 in
  for r = 0 to 31 do
    st.m.gpr.(r) <- r * 12345
  done;
  st.m.cr <- 0x2468_ACE1;
  (st, mem)

let prop_incremental =
  QCheck.Test.make ~name:"extended page: staged with ~prev = staged in full"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) gen_group))
    (fun groups ->
      let trees = build_page groups in
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (n, acc) g ->
                  let n = n + List.length g in
                  (n, n :: acc))
                (0, []) groups))
      in
      (* incremental: one staging per group, each reusing the last *)
      let ist, imem = fresh_state () in
      let scratch = C.create_scratch () in
      let reused = ref true in
      let icp =
        List.fold_left
          (fun prev n ->
            let cp =
              C.stage ?prev ~st:ist ~mem:imem ~scratch (Array.sub trees 0 n)
            in
            (match prev with
            | Some p ->
              for i = 0 to C.n_staged p - 1 do
                if C.get cp i != C.get p i then reused := false
              done;
              if cp.C.fresh <> n - C.n_staged p then reused := false
            | None -> ());
            Some cp)
          None ends
        |> Option.get
      in
      let fst_, fmem = fresh_state () in
      let fcp = C.stage ~st:fst_ ~mem:fmem ~scratch:(C.create_scratch ()) trees in
      let same = ref true in
      for id = 0 to Array.length trees - 1 do
        (* each chain starts from the same state on both sides *)
        let a = run_chain icp id and b = run_chain fcp id in
        if a <> b then same := false
      done;
      !reused && !same
      && Ppc.Machine.equal ist.m fst_.m
      && ist.hi = fst_.hi && ist.tags = fst_.tags
      && Bytes.equal imem.bytes fmem.bytes)

let test_stage_prev_reuses () =
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x1000 in
  let scratch = C.create_scratch () in
  let v0 = T.create ~id:0 ~precise_entry:0x1000 in
  T.close v0.root (T.Next 1);
  let v1 = T.create ~id:1 ~precise_entry:0x1004 in
  T.close v1.root (T.OnPage 0x40);
  let v2 = T.create ~id:2 ~precise_entry:0x1040 in
  T.close v2.root (T.Next 3);
  let v3 = T.create ~id:3 ~precise_entry:0x1044 in
  T.close v3.root (T.OffPage 0x2000);
  let cp1 = C.stage ~st ~mem ~scratch [| v0; v1 |] in
  let cp2 = C.stage ~prev:cp1 ~st ~mem ~scratch [| v0; v1; v2; v3 |] in
  Alcotest.(check int) "all four staged" 4 (C.n_staged cp2);
  Alcotest.(check int) "only the new trees compiled" 2 cp2.C.fresh;
  Alcotest.(check bool) "tree 0 reused physically" true (C.get cp2 0 == C.get cp1 0);
  Alcotest.(check bool) "tree 1 reused physically" true (C.get cp2 1 == C.get cp1 1);
  let leaf2 = C.exec_vliw cp2 (C.get cp2 2) ~alias_check:(fun _ -> true) in
  (match leaf2.C.exit with
  | C.Cnext cv -> Alcotest.(check bool) "new Next linked" true (cv == C.get cp2 3)
  | _ -> Alcotest.fail "expected a direct-linked Next");
  (* a prev staged against other state is not reused *)
  let st' = Vstate.create (Ppc.Machine.create ()) in
  let cp3 = C.stage ~prev:cp1 ~st:st' ~mem ~scratch [| v0; v1; v2; v3 |] in
  Alcotest.(check int) "foreign prev ignored" 4 cp3.C.fresh;
  Alcotest.(check bool) "foreign prev not shared" true (C.get cp3 0 != C.get cp1 0);
  (* so is a prev whose trees are not the page's first trees *)
  let v0' = T.create ~id:0 ~precise_entry:0x1000 in
  T.close v0'.root (T.Next 1);
  let cp4 = C.stage ~prev:cp1 ~st ~mem ~scratch [| v0'; v1; v2; v3 |] in
  Alcotest.(check int) "replaced tree: prev ignored" 4 cp4.C.fresh

(* Incremental staging rests on one translator invariant: a translation
   group never mutates the trees an earlier group built.  Every
   translation unit of every registry workload and of a clean fuzz
   corpus is checked: the old trees of an extended page encode to the
   same bytes after the extension as before it. *)
let check_extensions_immutable (w : Workloads.Wl.t) =
  let extended = ref 0 and changed = ref [] in
  let encode tr =
    let b = Buffer.create 256 in
    Tcache.Codec.put_tree b tr;
    Buffer.contents b
  in
  let instrument (vmm : Vmm.Monitor.t) =
    let before = ref None in
    vmm.event_hook <-
      Some
        (function
        | Translate_begin { page; _ } ->
          before :=
            Option.map
              (fun (xp : Translator.Translate.xpage) ->
                (xp, Array.init (Translator.Vec.length xp.vliws) (fun i ->
                         encode (Translator.Vec.get xp.vliws i))))
              (Hashtbl.find_opt vmm.tr.pages page)
        | Translate_end _ -> (
          match !before with
          | Some (xp, old) when Array.length old > 0 ->
            incr extended;
            Array.iteri
              (fun i e ->
                if encode (Translator.Vec.get xp.vliws i) <> e then
                  changed := (xp.base, i) :: !changed)
              old
          | _ -> ())
        | _ -> ())
  in
  (match Vmm.Run.run ~instrument w with
  | _ -> ()
  | exception Vmm.Run.Mismatch m -> Alcotest.fail m);
  (* checked after the run: the monitor contains anything raised around
     a translation as a translator fault *)
  (match !changed with
  | (page, i) :: _ ->
    Alcotest.failf "%s: page 0x%x tree %d changed by an extension" w.name page i
  | [] -> ());
  !extended

let test_extensions_immutable () =
  let registry =
    List.fold_left
      (fun n w -> n + check_extensions_immutable w)
      0 Workloads.Registry.all
  in
  let fuzz = ref 0 in
  for index = 0 to 39 do
    let rng = Random.State.make [| 7; index; 0 |] in
    let slots = Fault.Fuzz.gen_slots rng ~insns:96 ~allow_raw:true in
    let w = Fault.Fuzz.wl_of ~seed:7 ~index ~fuel:100_000 slots in
    fuzz := !fuzz + check_extensions_immutable w
  done;
  Alcotest.(check bool) "registry extends pages" true (registry > 0);
  Alcotest.(check bool) "fuzz corpus extends pages" true (!fuzz > 0)

(* ------------------------------------------------------------------ *)
(* Fused shapes against the generic closure chain                      *)

(* Operand locations of every class a fused shape must tell apart: the
   constant zero, architected registers, a few pool registers (so tags
   and aliases collide), and locations only the generic path handles —
   LR/CTR and out-of-range ones. *)
let gen_loc =
  QCheck.Gen.(
    frequency
      [ (2, return Op.zero); (4, int_range 0 31); (5, int_range 32 37);
        (1, oneofl [ Op.lr_loc; Op.ctr_loc; 70; -5 ]) ])

let gen_crloc =
  QCheck.Gen.(
    frequency
      [ (4, int_range 0 7); (4, int_range 8 11); (1, oneofl [ 16; -2 ]) ])

(* Entry tags, with fault addresses up to the top of the address space. *)
let gen_tag =
  QCheck.Gen.(
    let fault_addr =
      oneof
        [ oneofl [ 0; 0x1234; 0xFFFF_FFFC ];
          map (fun a -> a land lnot 3) (int_bound 0x3FFF_FFFF) ]
    in
    frequency
      [ (4, return Vstate.Clean); (1, return Vstate.Tmmio);
        (2, map (fun a -> Vstate.Tfault a) fault_addr) ])

(* Register values: in-bounds addresses, I/O-space addresses (console,
   device sequence — never the halt port), out-of-bounds and extreme
   words. *)
let gen_value =
  QCheck.Gen.(
    oneof
      [ map (fun a -> a land lnot 3) (int_bound 0x1FF0);
        oneofl
          [ Ppc.Mem.mmio_putchar; Ppc.Mem.mmio_seq; 0x10_0000; 0xFFFF_FFFF;
            0x8000_0000; 0; 1 ];
        int_bound 0xFFFF ])

(* Every op kind [Compile.c_fused] handles, plus neighbours of each
   (other ALU ops, carrying forms) that must fall back. *)
let gen_fusable =
  QCheck.Gen.(
    let spec = bool and imm = int_range (-0x8000) 0x7FFF in
    let width = oneofl [ Ppc.Insn.Byte; Half; Word ] in
    let off =
      frequency
        [ (3, map (fun d -> Op.OImm d) (int_range (-16) 64));
          (1, map (fun r -> Op.OReg r) gen_loc) ]
    in
    let rrr = triple gen_loc gen_loc gen_loc in
    let arch = frequency [ (6, int_range 0 31); (1, oneofl [ 33; 64 ]) ] in
    let ibin =
      frequency [ (4, return Op.IAdd); (1, oneofl [ Op.IAnd; IOr; IAddc ]) ]
    in
    frequency
      [ (2, map2 (fun arch src -> Op.CommitG { arch; src }) arch gen_loc);
        (1, map2 (fun arch src -> Op.CommitCr { arch; src }) gen_crloc gen_crloc);
        (1, map (fun src -> Op.CommitLr { src }) gen_loc);
        (1, map (fun src -> Op.CommitCtr { src }) gen_loc);
        (3,
         map3
           (fun (op, rt, ra) imm spec -> Op.BinI { op; rt; ra; imm; spec })
           (triple ibin gen_loc gen_loc) imm spec);
        (1,
         map3
           (fun (rt, ra) (sh, mb, me) spec ->
             Op.RlwinmOp { rt; ra; sh; mb; me; spec })
           (pair gen_loc gen_loc)
           (triple (int_bound 31) (int_bound 31) (int_bound 31))
           spec);
        (2,
         map3
           (fun op (rt, ra, rb) spec ->
             Op.Bin { op; rt; ra; rb; ca = Op.ca_loc; spec })
           (oneofl [ Ppc.Insn.Add; Subf; Addc; Mullw ]) rrr spec);
        (2,
         map3
           (fun op (rt, ra, rb) spec -> Op.Logic { op; rt; ra; rb; spec })
           (oneofl [ Ppc.Insn.Or_; And_; Xor_; Nor ]) rrr spec);
        (2,
         map3
           (fun signed (crt, ra, rb) spec ->
             Op.CmpOp { signed; crt; ra; rb; spec })
           bool (triple gen_crloc gen_loc gen_loc) spec);
        (2,
         map3
           (fun signed (crt, ra) (imm, spec) ->
             Op.CmpIOp { signed; crt; ra; imm; spec })
           bool (pair gen_crloc gen_loc) (pair imm spec));
        (3,
         map3
           (fun (w, alg) (rt, base, off) (spec, passed) ->
             Op.LoadOp { w; alg; rt; base; off; spec; passed })
           (pair width bool) (triple gen_loc gen_loc off) (pair spec bool));
        (2,
         map3
           (fun w (rs, base) off -> Op.StoreOp { w; rs; base; off })
           width (pair gen_loc gen_loc) off) ])

(* One machine state, applied identically to both sides. *)
type fuse_case = {
  f_op : Op.t;
  f_gpr : int array;
  f_hi : int array;
  f_tags : Vstate.tag array;
  f_cr : int;
  f_crhi : int array;
  f_crtags : Vstate.tag array;
  f_so : bool;
}

let gen_fuse_case =
  QCheck.Gen.(
    map3
      (fun f_op (f_gpr, f_hi, f_tags) (f_cr, f_crhi, f_crtags, f_so) ->
        { f_op; f_gpr; f_hi; f_tags; f_cr; f_crhi; f_crtags; f_so })
      gen_fusable
      (triple (array_repeat 32 gen_value) (array_repeat 32 gen_value)
         (array_repeat 32 gen_tag))
      (quad (int_bound 0xFFFF_FFFF) (array_repeat 8 (int_bound 15))
         (array_repeat 8 gen_tag) bool))

let fuse_state c =
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x2000 in
  for i = 0 to Bytes.length mem.bytes - 1 do
    Bytes.set mem.bytes i (Char.chr ((i * 37) land 0xFF))
  done;
  Array.blit c.f_gpr 0 st.m.gpr 0 32;
  Array.blit c.f_hi 0 st.hi 0 32;
  Array.iteri (fun i t -> Vstate.set_tag st (32 + i) t) c.f_tags;
  st.m.cr <- c.f_cr;
  st.m.xer_so <- c.f_so;
  Array.iteri (fun i v -> st.crhi.(i) <- v) c.f_crhi;
  Array.iteri (fun i t -> Vstate.set_cr_tag st (8 + i) t) c.f_crtags;
  (st, mem)

type op_outcome = Applied | Rolled of Exec.reason | Raised of string

(* What [exec_vliw] does around one op: reset the scratch, evaluate,
   then apply the pending writes. *)
let run_op f (st : Vstate.t) mem (s : C.scratch) =
  s.w_n <- 0;
  s.a_n <- 0;
  match f () with
  | () -> (
    match C.apply st mem s with
    | () -> Applied
    | exception e -> Raised ("apply: " ^ Printexc.to_string e))
  | exception Exec.Roll r -> Rolled r
  | exception e -> Raised (Printexc.to_string e)

let fused_cases = ref 0

let prop_fused_generic =
  QCheck.Test.make ~name:"fused shape = generic closure chain" ~count:3000
    (QCheck.make gen_fuse_case ~print:(fun c -> Op.to_string c.f_op))
    (fun c ->
      let gst, gmem = fuse_state c and fst_, fmem = fuse_state c in
      let gs = C.create_scratch () and fs = C.create_scratch () in
      let generic = C.c_generic gst gmem gs 1 c.f_op in
      let fused =
        match C.c_fused fst_ fmem fs 1 c.f_op with
        | Some f ->
          incr fused_cases;
          f
        | None -> C.c_generic fst_ fmem fs 1 c.f_op
      in
      let og = run_op generic gst gmem gs and of_ = run_op fused fst_ fmem fs in
      og = of_
      && C.accesses gs = C.accesses fs
      && Ppc.Machine.equal gst.m fst_.m
      && gst.hi = fst_.hi && gst.ext = fst_.ext && gst.tags = fst_.tags
      && gst.crhi = fst_.crhi && gst.crtags = fst_.crtags
      && Bytes.equal gmem.bytes fmem.bytes
      && gmem.seq = fmem.seq
      && Ppc.Mem.output gmem = Ppc.Mem.output fmem)

let test_fused_generic () =
  fused_cases := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 2026 |]) prop_fused_generic;
  (* the generator must reach the fused closures, not only the
     fallback *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of 3000 cases fused" !fused_cases)
    true (!fused_cases >= 1000)

(* The staged engine's steady state allocates nothing: a VLIW without
   stores (fused and generic ops, a pool-field branch) runs 1000 times
   with no minor-heap words. *)
let test_exec_no_alloc () =
  let v = mk () in
  add v.root (Op.BinI { op = IAdd; rt = 33; ra = 33; imm = 1; spec = true });
  add v.root (Op.CmpIOp { signed = true; crt = 9; ra = 2; imm = 5; spec = true });
  add v.root
    (Op.LoadOp { w = Word; alg = false; rt = 34; base = 1; off = OImm 8;
                 spec = true; passed = true });
  add v.root
    (Op.Bin { op = Add; rt = 35; ra = 33; rb = 34; ca = Op.ca_loc; spec = true });
  add v.root (Op.SrawiOp { rt = 36; ra = 35; sh = 3; spec = true });
  add v.root (Op.CommitG { arch = 3; src = 35 });
  let t, f = T.split v.root { bit = 4 * 9; sense = true } in
  add t (Op.CommitCr { arch = 0; src = 9 });
  T.close t (T.Next 0);
  T.close f (T.Next 0);
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x2000 in
  st.m.gpr.(1) <- 0x100;
  let cp = C.stage ~st ~mem ~scratch:(C.create_scratch ()) [| v |] in
  let cv = C.get cp 0 in
  let alias_check _ = true in
  ignore (C.exec_vliw cp cv ~alias_check);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (C.exec_vliw cp cv ~alias_check))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 1000 VLIWs" 0. words

(* ------------------------------------------------------------------ *)
(* Whole workloads: engine vs engine through the verified harness      *)

let test_registry_differential () =
  List.iter
    (fun (w : Workloads.Wl.t) ->
      (* each run is itself verified bit-for-bit against the reference
         interpreter by Run.run; comparing the two engines' dynamic
         statistics on top pins them to the same execution path *)
      let rt = Vmm.Run.run ~engine:Vmm.Monitor.Tree w in
      let rc = Vmm.Run.run ~engine:Vmm.Monitor.Compiled w in
      let ci name f = Alcotest.(check int) (w.name ^ ": " ^ name) (f rt) (f rc) in
      Alcotest.(check bool)
        (w.name ^ ": exit code") true (rt.exit_code = rc.exit_code);
      ci "vliws" (fun r -> r.Vmm.Run.vliws);
      ci "interp insns" (fun r -> r.Vmm.Run.interp_insns);
      ci "loads" (fun r -> r.Vmm.Run.loads);
      ci "stores" (fun r -> r.Vmm.Run.stores);
      ci "rollbacks" (fun r -> r.Vmm.Run.stats.rollbacks);
      ci "onpage jumps" (fun r -> r.Vmm.Run.stats.onpage_jumps);
      Alcotest.(check bool)
        (w.name ^ ": tree engine stages nothing") true
        (rt.stats.compiled_pages = 0);
      Alcotest.(check bool)
        (w.name ^ ": compiled engine staged pages") true
        (rc.stats.compiled_pages > 0))
    Workloads.Registry.all

let test_fuzz_clean () =
  (* run_slots executes every page under both engines *)
  let s = Fault.Fuzz.fuzz ~seed:7 ~pages:40 () in
  Alcotest.(check int) "clean corpus mismatches" 0 s.mismatched

let test_fuzz_cocktail () =
  let s = Fault.Fuzz.fuzz ~faults:Fault.Inject.cocktail ~seed:9 ~pages:30 () in
  Alcotest.(check int) "cocktail corpus mismatches" 0 s.mismatched

let () =
  Alcotest.run "compile"
    [ ( "equivalence",
        [ Alcotest.test_case "parallel swap" `Quick test_parallel_swap;
          Alcotest.test_case "branch paths" `Quick test_branch_path;
          Alcotest.test_case "fault rollback" `Quick test_fault_rollback;
          Alcotest.test_case "store fault rollback" `Quick
            test_store_fault_rollback;
          Alcotest.test_case "speculative load tags" `Quick test_spec_load_tags;
          Alcotest.test_case "tagged branch" `Quick test_tagged_branch;
          Alcotest.test_case "mmio deferred" `Quick test_mmio_deferred;
          Alcotest.test_case "mmio rolled back" `Quick test_mmio_rolled_back;
          Alcotest.test_case "alias veto" `Quick test_alias_veto;
          Alcotest.test_case "open tip" `Quick test_open_tip;
          Alcotest.test_case "corrupt loc" `Quick test_corrupt_loc;
          Alcotest.test_case "carry chain" `Quick test_carry_chain;
          QCheck_alcotest.to_alcotest prop_differential ] );
      ( "fused",
        [ Alcotest.test_case "fused shapes = generic chain" `Quick
            test_fused_generic;
          Alcotest.test_case "exec_vliw allocates nothing" `Quick
            test_exec_no_alloc ] );
      ( "linking",
        [ Alcotest.test_case "Next direct-linked" `Quick test_direct_link_patched;
          Alcotest.test_case "OnPage memoized" `Quick test_onpage_memo ] );
      ( "incremental",
        [ Alcotest.test_case "stage ~prev reuses old trees" `Quick
            test_stage_prev_reuses;
          QCheck_alcotest.to_alcotest prop_incremental;
          Alcotest.test_case "extensions leave old trees intact" `Slow
            test_extensions_immutable ] );
      ( "engines",
        [ Alcotest.test_case "registry differential" `Slow
            test_registry_differential;
          Alcotest.test_case "fuzz corpus, clean" `Slow test_fuzz_clean;
          Alcotest.test_case "fuzz corpus, cocktail" `Slow test_fuzz_cocktail ] )
    ]
