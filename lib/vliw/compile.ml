(* Staged execution of tree VLIW instructions.

   [Exec.run] re-walks the [Tree.t] on every execution: it re-decodes
   every operand location, allocates a fresh [ref] tag cell per op,
   builds the pending-write set with list appends, and reverses it to
   recover program order.  This module performs all of that work once,
   at page-install time, and turns each tree into OCaml closures:

   - path selection is compiled per tree node — an architected test
     becomes a direct read of [Machine.cr] with precomputed shifts, a
     pool test becomes a direct [crtags]/[crhi] array access;
   - every operand location is resolved once into a closure that reads
     the right [Vstate] array slot (or raises exactly what [Vstate]
     would for a corrupt location, so the monitor's degradation ladder
     sees the same [Exec.Error]s), and the hot operand shapes are fused
     into one closure per op (see "Fused shapes");
   - exception tags move as immediate int codes ([Vstate]), so no tag
     store goes through the write barrier, and a VLIW allocates
     nothing;
   - pending writes and memory accesses accumulate into preallocated
     scratch buffers (parallel int arrays keyed by a small write-kind
     code) that are reset by bumping a fill pointer, not reallocated;
   - each root-to-leaf path is flattened into one closure array, so the
     interpretive engine's two-phase semantics (all tests read entry
     state and pick the path, then the path's ops evaluate against
     entry state, then writes apply in program order) is preserved
     exactly;
   - tree exits are direct-linked: [Tree.Next id] is patched to a
     direct closure reference and [Tree.OnPage off] carries a memoized
     entry-id slot the monitor fills on first use, so steady-state
     intra-page execution never touches a [Hashtbl].

   Rollback and precise-exception semantics are bit-identical to
   [Exec.run]: the same [Exec.Roll] reasons, the same conversion of
   [Invalid_argument]/[Failure] escapes into [Exec.Error], the same
   deferral of I/O-space loads to the apply phase. *)

open Ppc

let u32 = Interp.u32
let s32 = Interp.s32

(* ------------------------------------------------------------------ *)
(* Scratch buffers: pending writes and accesses in program order.
   One instance is shared by every staged page of a monitor — VLIWs
   execute one at a time, so the buffers are reset at VLIW entry and
   never outlive one [exec_vliw] call. *)

type scratch = {
  (* pending writes: kind code + two int operands (+ tag for the
     speculative kinds); meaning of [w_a]/[w_b] depends on the kind *)
  mutable w_n : int;
  mutable w_kind : int array;
  mutable w_a : int array;
  mutable w_b : int array;
  mutable w_tag : int array; (* tag codes, see [Vstate] *)
  (* memory accesses (mirrors [Exec.access], struct-of-arrays) *)
  mutable a_n : int;
  mutable a_addr : int array;
  mutable a_bytes : int array;
  mutable a_seq : int array;
  mutable a_passed : bool array;
  mutable a_store : bool array;
  (* per-op speculative tag accumulator (the compiled counterpart of
     [Exec.eval_op]'s [tag] ref cell; first non-clean tag wins) *)
  mutable tag : int;
}

let create_scratch () =
  {
    w_n = 0;
    w_kind = Array.make 64 0;
    w_a = Array.make 64 0;
    w_b = Array.make 64 0;
    w_tag = Array.make 64 Vstate.tag_clean;
    a_n = 0;
    a_addr = Array.make 32 0;
    a_bytes = Array.make 32 0;
    a_seq = Array.make 32 0;
    a_passed = Array.make 32 false;
    a_store = Array.make 32 false;
    tag = Vstate.tag_clean;
  }

(* Write-kind codes.  The apply loop switches on these; the operand
   class of every destination was resolved at compile time. *)
let k_gpr_arch = 0 (* gpr.(a) <- b *)
let k_gpr_pool = 1 (* hi.(a) <- b, tag cleared *)
let k_lr = 2
let k_ctr = 3
let k_tagged = 4 (* pool: hi.(a) <- b, tag from w_tag *)
let k_tagged_any = 5 (* raw loc via Vstate setters (corrupt-loc path) *)
let k_ext = 6 (* ext.(a) <- b<>0 *)
let k_ca = 7
let k_cr_arch = 8 (* Machine.set_crf a b *)
let k_cr_pool = 9 (* crhi.(a) <- b land 0xF, tag cleared *)
let k_crtagged = 10
let k_set_gpr = 11 (* raw loc via Vstate.set_gpr (corrupt-loc path) *)
let k_set_cr = 12 (* raw loc via Vstate.set_cr (corrupt-loc path) *)
let k_xer = 13
let k_msr = 14
let k_spr = 15 (* a = Op.spr_code *)
let k_store8 = 16 (* a = addr, b = value *)
let k_store16 = 17
let k_store32 = 18
let k_mmio8 = 19 (* a = dest loc, b = addr: deferred I/O-space load *)
let k_mmio16 = 20
let k_mmio32 = 21

let grow_writes s =
  let n = Array.length s.w_kind in
  let gi a =
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b
  in
  s.w_kind <- gi s.w_kind;
  s.w_a <- gi s.w_a;
  s.w_b <- gi s.w_b;
  s.w_tag <- gi s.w_tag

let push_w s kind a b =
  let n = s.w_n in
  if n = Array.length s.w_kind then grow_writes s;
  s.w_kind.(n) <- kind;
  s.w_a.(n) <- a;
  s.w_b.(n) <- b;
  s.w_n <- n + 1

let push_wt s kind a b tag =
  let n = s.w_n in
  if n = Array.length s.w_kind then grow_writes s;
  s.w_kind.(n) <- kind;
  s.w_a.(n) <- a;
  s.w_b.(n) <- b;
  s.w_tag.(n) <- tag;
  s.w_n <- n + 1

let grow_accesses s =
  let n = Array.length s.a_addr in
  let gi a =
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b
  in
  s.a_addr <- gi s.a_addr;
  s.a_bytes <- gi s.a_bytes;
  s.a_seq <- gi s.a_seq;
  let gb a =
    let b = Array.make (2 * n) false in
    Array.blit a 0 b 0 n;
    b
  in
  s.a_passed <- gb s.a_passed;
  s.a_store <- gb s.a_store

let push_access s addr bytes seq passed store =
  let n = s.a_n in
  if n = Array.length s.a_addr then grow_accesses s;
  s.a_addr.(n) <- addr;
  s.a_bytes.(n) <- bytes;
  s.a_seq.(n) <- seq;
  s.a_passed.(n) <- passed;
  s.a_store.(n) <- store;
  s.a_n <- n + 1

(** The accesses of the last executed VLIW as an [Exec.access] list, in
    program order (the interpretive engine accumulates them reversed). *)
let accesses (s : scratch) : Exec.access list =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        ({
           Exec.addr = s.a_addr.(i);
           bytes = s.a_bytes.(i);
           seq = s.a_seq.(i);
           passed_store = s.a_passed.(i);
           store = s.a_store.(i);
         }
        :: acc)
  in
  go (s.a_n - 1) []

(* ------------------------------------------------------------------ *)
(* Compiled operand readers.  Each mirrors its [Vstate] accessor: the
   location class is decided here, once, and corrupt locations become
   closures that raise exactly what the interpretive read would (the
   [Invalid_argument] is converted to [Exec.Error] by [exec_vliw], as
   [Exec.run] does). *)

(* Consuming a tagged register non-speculatively rolls the VLIW back;
   the tag code is decoded into its [Vstate.tag] only here. *)
let roll_tag t = raise (Exec.Roll (Exec.Rtag (Vstate.tag_of_code t)))

(* [Exec.rd]: GPR-space operand; spec ops accumulate tags, non-spec
   ops roll back on them. *)
let c_rd (st : Vstate.t) (s : scratch) ~spec (l : Op.loc) : unit -> int =
  if l = Op.zero then fun () -> 0
  else if 0 <= l && l < 32 then
    let gpr = st.m.gpr in
    fun () -> Array.unsafe_get gpr l
  else if l < 32 then fun () -> st.m.gpr.(l) (* negative: faults like Vstate.get *)
  else if l < 64 then begin
    let i = l - 32 in
    let hi = st.hi and tags = st.tags in
    if spec then fun () ->
      let t = Array.unsafe_get tags i in
      if t <> Vstate.tag_clean && s.tag = Vstate.tag_clean then s.tag <- t;
      Array.unsafe_get hi i
    else fun () ->
      let t = Array.unsafe_get tags i in
      if t <> Vstate.tag_clean then roll_tag t;
      Array.unsafe_get hi i
  end
  else if l = Op.lr_loc then
    let m = st.m in
    fun () -> m.lr
  else if l = Op.ctr_loc then
    let m = st.m in
    fun () -> m.ctr
  else fun () -> invalid_arg "Vstate.get"

(* [Exec.rd_cr]: condition-field operand. *)
let c_rd_cr (st : Vstate.t) (s : scratch) ~spec (l : Op.loc) : unit -> int =
  if l < 8 then
    let m = st.m and sh = 4 * (7 - l) in
    fun () -> (m.cr lsr sh) land 0xF
  else if l < 16 then begin
    let i = l - 8 in
    let crhi = st.crhi and crtags = st.crtags in
    if spec then fun () ->
      let t = Array.unsafe_get crtags i in
      if t <> Vstate.tag_clean && s.tag = Vstate.tag_clean then s.tag <- t;
      Array.unsafe_get crhi i
    else fun () ->
      let t = Array.unsafe_get crtags i in
      if t <> Vstate.tag_clean then roll_tag t;
      Array.unsafe_get crhi i
  end
  else fun () -> st.crhi.(l - 8) (* out of range: faults like get_cr_tagged *)

let c_get_ca (st : Vstate.t) (l : Op.loc) : unit -> bool =
  if l = Op.ca_loc then
    let m = st.m in
    fun () -> m.xer_ca
  else if l >= 32 && l < 64 then
    let ext = st.ext and i = l - 32 in
    fun () -> Array.unsafe_get ext i
  else fun () -> invalid_arg "Vstate.get_ca"

(* ------------------------------------------------------------------ *)
(* Compiled write destinations.  [gpr_write]/[cr_write] mirror the
   plain [Exec.Wgpr]/[Wcr] apply paths; [result]/[cr_result] mirror
   [Exec.result_writes]/[cr_writes] (speculative pool destinations get
   the accumulated tag). *)

let gpr_write (s : scratch) (rt : Op.loc) : int -> unit =
  if 0 <= rt && rt < 32 then fun v -> push_w s k_gpr_arch rt v
  else if Op.is_nonarch_gpr rt then
    let i = rt - 32 in
    fun v -> push_w s k_gpr_pool i v
  else if rt = Op.lr_loc then fun v -> push_w s k_lr 0 v
  else if rt = Op.ctr_loc then fun v -> push_w s k_ctr 0 v
  else fun v -> push_w s k_set_gpr rt v

let result (s : scratch) ~spec (rt : Op.loc) : int -> unit =
  if spec && Op.is_nonarch_gpr rt then
    let i = rt - 32 in
    fun v -> push_wt s k_tagged i v s.tag
  else gpr_write s rt

let cr_write (s : scratch) (crt : Op.loc) : int -> unit =
  if crt < 8 then fun v -> push_w s k_cr_arch crt v
  else if crt < 16 then
    let i = crt - 8 in
    fun v -> push_w s k_cr_pool i v
  else fun v -> push_w s k_set_cr crt v

let cr_result (s : scratch) ~spec (crt : Op.loc) : int -> unit =
  if spec && Op.is_nonarch_cr crt then
    let i = crt - 8 in
    fun v -> push_wt s k_crtagged i v s.tag
  else cr_write s crt

(* [Exec.carry_writes]: carry goes to the machine CA for architected
   destinations, to the extender bit for pool destinations. *)
let carry_write (s : scratch) (rt : Op.loc) : bool -> unit =
  if Op.is_nonarch_gpr rt then
    let i = rt - 32 in
    fun c -> push_w s k_ext i (if c then 1 else 0)
  else fun c -> push_w s k_ca 0 (if c then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Per-op compilation: [c_generic st mem s seq op] is the staged
   counterpart of [Exec.eval_op st mem seq op] — operand locations,
   immediates, masks, widths and destination classes are all resolved
   here; the returned closure only reads values, computes, and pushes
   writes. *)

let c_generic (st : Vstate.t) (mem : Mem.t) (s : scratch) seq (op : Op.t) :
    unit -> unit =
  let clean () = s.tag <- Vstate.tag_clean in
  match op with
  | Bin { op; rt; ra; rb; ca; spec } -> (
    let fa = c_rd st s ~spec ra and fb = c_rd st s ~spec rb in
    let res = result s ~spec rt and carry = carry_write s rt in
    match op with
    | Insn.Add ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (a + b))
    | Addc ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let r = a + b in
        res (u32 r);
        carry (r > 0xFFFF_FFFF)
    | Adde ->
      let fca = c_get_ca st ca in
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let r = a + b + if fca () then 1 else 0 in
        res (u32 r);
        carry (r > 0xFFFF_FFFF)
    | Subf ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (b - a))
    | Subfc ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (b - a));
        carry (b >= a)
    | Mullw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (s32 a * s32 b))
    | Mulhw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let p = Int64.mul (Int64.of_int (s32 a)) (Int64.of_int (s32 b)) in
        res (u32 (Int64.to_int (Int64.shift_right p 32)))
    | Mulhwu ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
        res (u32 (Int64.to_int (Int64.shift_right_logical p 32)))
    | Divw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (if s32 b = 0 then 0 else u32 (s32 a / s32 b))
    | Divwu ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (if b = 0 then 0 else a / b)
    | Neg ->
      fun () ->
        clean ();
        let a = fa () in
        let _b = fb () in
        res (u32 (-s32 a)))
  | BinI { op; rt; ra; imm; spec } -> (
    let fa = c_rd st s ~spec ra in
    let res = result s ~spec rt and carry = carry_write s rt in
    match op with
    | Op.IAdd -> fun () -> clean (); res (u32 (fa () + imm))
    | IAddc ->
      let uimm = u32 imm in
      fun () ->
        clean ();
        let r = fa () + uimm in
        res (u32 r);
        carry (r > 0xFFFF_FFFF)
    | IMul -> fun () -> clean (); res (u32 (s32 (fa ()) * imm))
    | IAnd -> fun () -> clean (); res (fa () land imm)
    | IOr -> fun () -> clean (); res (fa () lor imm)
    | IXor -> fun () -> clean (); res (fa () lxor imm))
  | Logic { op; rt; ra; rb; spec } -> (
    let fa = c_rd st s ~spec ra and fb = c_rd st s ~spec rb in
    let res = result s ~spec rt and carry = carry_write s rt in
    match op with
    | Insn.And_ ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (a land b)
    | Or_ ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (a lor b)
    | Xor_ ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (a lxor b)
    | Nand ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (lnot (a land b)))
    | Nor ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (lnot (a lor b)))
    | Andc ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (a land u32 (lnot b))
    | Eqv ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (lnot (a lxor b)))
    | Slw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let n = b land 0x3F in
        res (if n >= 32 then 0 else u32 (a lsl n))
    | Srw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let n = b land 0x3F in
        res (if n >= 32 then 0 else a lsr n)
    | Sraw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let n = b land 0x3F in
        if n >= 32 then begin
          res (if a land 0x8000_0000 <> 0 then 0xFFFF_FFFF else 0);
          carry (a land 0x8000_0000 <> 0 && a <> 0)
        end
        else begin
          let lost = a land ((1 lsl n) - 1) in
          res (u32 (s32 a asr n));
          carry (a land 0x8000_0000 <> 0 && lost <> 0)
        end)
  | Un { op; rt; ra; spec } ->
    let fa = c_rd st s ~spec ra in
    let res = result s ~spec rt in
    let f = Interp.alu_x1 op in
    fun () ->
      clean ();
      res (f (fa ()))
  | SrawiOp { rt; ra; sh; spec } ->
    let fa = c_rd st s ~spec ra in
    let res = result s ~spec rt and carry = carry_write s rt in
    let lmask = if sh = 0 then 0 else (1 lsl sh) - 1 in
    fun () ->
      clean ();
      let v = fa () in
      let c = v land 0x8000_0000 <> 0 && v land lmask <> 0 in
      res (u32 (s32 v asr sh));
      carry c
  | RlwinmOp { rt; ra; sh; mb; me; spec } ->
    let fa = c_rd st s ~spec ra in
    let res = result s ~spec rt in
    let mask = Interp.mask_mb_me mb me in
    fun () ->
      clean ();
      res (Interp.rotl32 (fa ()) sh land mask)
  | CmpOp { signed; crt; ra; rb; spec } ->
    let fa = c_rd st s ~spec ra and fb = c_rd st s ~spec rb in
    let res = cr_result s ~spec crt in
    let m = st.m in
    if signed then fun () ->
      clean ();
      let a = fa () in
      let b = fb () in
      res (Exec.cmp_bits m.xer_so (s32 a < s32 b) (s32 a > s32 b))
    else fun () ->
      clean ();
      let a = fa () in
      let b = fb () in
      res (Exec.cmp_bits m.xer_so (a < b) (a > b))
  | CmpIOp { signed; crt; ra; imm; spec } ->
    let fa = c_rd st s ~spec ra in
    let res = cr_result s ~spec crt in
    let m = st.m in
    let b = if signed then u32 imm else imm in
    if signed then fun () ->
      clean ();
      let a = fa () in
      res (Exec.cmp_bits m.xer_so (s32 a < s32 b) (s32 a > s32 b))
    else fun () ->
      clean ();
      let a = fa () in
      res (Exec.cmp_bits m.xer_so (a < b) (a > b))
  | LoadOp { w; alg; rt; base; off; spec; passed } ->
    let fbase = c_rd st s ~spec base in
    let faddr =
      match off with
      | Op.OImm i -> fun () -> u32 (fbase () + i)
      | OReg r ->
        let fo = c_rd st s ~spec r in
        fun () ->
          let b = fbase () in
          let o = fo () in
          u32 (b + o)
    in
    let res = result s ~spec rt in
    let bytes = Mem.width_bytes w in
    let fload =
      match w with
      | Insn.Byte -> Mem.load8
      | Half -> Mem.load16
      | Word -> Mem.load32
    in
    let k_mmio =
      match w with Insn.Byte -> k_mmio8 | Half -> k_mmio16 | Word -> k_mmio32
    in
    let alg_half = alg && w = Insn.Half in
    fun () ->
      clean ();
      let addr = faddr () in
      if Mem.is_mmio addr then
        if spec then push_wt s k_tagged_any rt 0 Vstate.tag_mmio
        else push_w s k_mmio rt addr
      else begin
        match fload mem addr with
        | v ->
          let v =
            if alg_half then u32 (s32 ((v land 0xFFFF) lsl 16) asr 16) else v
          in
          res v;
          push_access s addr bytes seq passed false
        | exception Mem.Data_fault _ ->
          if spec then push_wt s k_tagged_any rt 0 (Vstate.tfault_code addr)
          else raise (Exec.Roll (Exec.Rfault { addr; write = false }))
      end
  | StoreOp { w; rs; base; off } ->
    let frs = c_rd st s ~spec:false rs in
    let fbase = c_rd st s ~spec:false base in
    let foff =
      match off with
      | Op.OImm i -> fun () -> i
      | OReg r -> c_rd st s ~spec:false r
    in
    let bytes = Mem.width_bytes w in
    let k_store =
      match w with
      | Insn.Byte -> k_store8
      | Half -> k_store16
      | Word -> k_store32
    in
    fun () ->
      clean ();
      let v = frs () in
      let b = fbase () in
      let o = foff () in
      let addr = u32 (b + o) in
      if (not (Mem.is_mmio addr)) && not (Mem.in_bounds mem addr bytes) then
        raise (Exec.Roll (Exec.Rfault { addr; write = true }));
      push_w s k_store addr v;
      push_access s addr bytes seq false true
  | CropOp { op; bt; ba; bb; old; spec } ->
    let c_bit i =
      let f = c_rd_cr st s ~spec (i / 4) and sh = 3 - (i mod 4) in
      fun () -> (f () lsr sh) land 1
    in
    let fba = c_bit ba and fbb = c_bit bb in
    let comb =
      match op with
      | Insn.Crand -> ( land )
      | Cror -> ( lor )
      | Crxor -> ( lxor )
      | Crnand -> fun a b -> 1 - (a land b)
      | Crnor -> fun a b -> 1 - (a lor b)
      | Crandc -> fun a b -> a land (1 - b)
      | Creqv -> fun a b -> 1 - (a lxor b)
      | Crorc -> fun a b -> a lor (1 - b)
    in
    let fprev =
      if old < 0 then fun () -> 0 else c_rd_cr st s ~spec old
    in
    let fld = bt / 4 and pos = 3 - (bt mod 4) in
    let res = cr_result s ~spec fld in
    fun () ->
      clean ();
      let a = fba () in
      let b = fbb () in
      let v = comb a b in
      let prev = fprev () in
      res (prev land lnot (1 lsl pos) lor (v lsl pos))
  | McrfOp { dst; src; spec } ->
    let fsrc = c_rd_cr st s ~spec src in
    let res = cr_result s ~spec dst in
    fun () ->
      clean ();
      res (fsrc ())
  | MfcrOp { rt; srcs } ->
    let n = Array.length srcs in
    let fs = Array.init (min 8 n) (fun f -> c_rd_cr st s ~spec:false srcs.(f)) in
    let gw = gpr_write s rt in
    if n < 8 then fun () ->
      (* mirror [Exec]: read the fields that exist (their tags can roll
         back first), then fault on the out-of-range [srcs.(f)] *)
      clean ();
      Array.iter (fun f -> ignore (f ())) fs;
      ignore srcs.(n);
      assert false
    else fun () ->
      clean ();
      let v = ref 0 in
      for f = 0 to 7 do
        v := (!v lsl 4) lor (Array.unsafe_get fs f) ()
      done;
      gw !v
  | CrSetOp { crt; rs; pos } ->
    let frs = c_rd st s ~spec:false rs in
    let cw = cr_write s crt in
    let sh = 4 * (7 - pos) in
    fun () ->
      clean ();
      cw ((frs () lsr sh) land 0xF)
  | GetXer { rt } ->
    let gw = gpr_write s rt in
    let m = st.m in
    fun () -> gw (Machine.get_xer m)
  | SetXer { rs } ->
    let frs = c_rd st s ~spec:false rs in
    fun () ->
      clean ();
      push_w s k_xer 0 (frs ())
  | GetSpr { rt; spr } ->
    let gw = gpr_write s rt in
    let m = st.m in
    (match spr with
    | Op.Xer -> fun () -> gw (Machine.get_xer m)
    | Srr0 -> fun () -> gw m.srr0
    | Srr1 -> fun () -> gw m.srr1
    | Dar -> fun () -> gw m.dar
    | Dsisr -> fun () -> gw m.dsisr
    | Sprg0 -> fun () -> gw m.sprg0
    | Sprg1 -> fun () -> gw m.sprg1
    | Msr -> fun () -> gw m.msr)
  | SetSpr { spr; rs } ->
    let frs = c_rd st s ~spec:false rs in
    let code = Op.spr_code spr in
    fun () ->
      clean ();
      push_w s k_spr code (frs ())
  | GetMsr { rt } ->
    let gw = gpr_write s rt in
    let m = st.m in
    fun () -> gw m.msr
  | SetMsr { rs } ->
    let frs = c_rd st s ~spec:false rs in
    fun () ->
      clean ();
      push_w s k_msr 0 (frs () land 0xFFFF)
  | CommitG { arch; src } ->
    let fsrc = c_rd st s ~spec:false src in
    let gw = gpr_write s arch in
    fun () ->
      clean ();
      gw (fsrc ())
  | CommitCr { arch; src } ->
    let fsrc = c_rd_cr st s ~spec:false src in
    let cw = cr_write s arch in
    fun () ->
      clean ();
      cw (fsrc ())
  | CommitLr { src } ->
    let fsrc = c_rd st s ~spec:false src in
    fun () ->
      clean ();
      push_w s k_lr 0 (fsrc ())
  | CommitCtr { src } ->
    let fsrc = c_rd st s ~spec:false src in
    fun () ->
      clean ();
      push_w s k_ctr 0 (fsrc ())
  | CommitCa { src } ->
    let fca = c_get_ca st src in
    fun () -> push_w s k_ca 0 (if fca () then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Fused shapes.  [c_generic] builds every op as a chain of three or
   four closure calls (tag reset, one reader per operand, a result
   writer).  The operand shapes that dominate the dynamic op mix —
   commits from the pool, [addi] into a renamed register, loads and
   stores, compares, register-register adds and moves, rotates — get
   one closure each instead, which reads the register and tag arrays
   directly and pushes its write itself.  Anything else (LR/CTR
   operands, corrupt locations, every other op) takes the generic path,
   so a fused closure never has to reproduce an error case. *)

(* A GPR operand resolved at stage time to [(values, tags, index)]:
   its value is [values.(index)] and its tag code [tags.(index)].
   Architected registers and the constant zero read an all-clean tag
   array, so one closure body serves every operand class. *)
let clean_tags = Array.make 32 Vstate.tag_clean
let zero_value = [| 0 |]

let c_src (st : Vstate.t) (l : Op.loc) =
  if l = Op.zero then Some (zero_value, clean_tags, 0)
  else if 0 <= l && l < 32 then Some (st.m.gpr, clean_tags, l)
  else if Op.is_nonarch_gpr l then Some (st.hi, st.tags, l - 32)
  else None

(* A memory offset as a second address operand plus a displacement. *)
let c_off st : Op.off -> _ = function
  | Op.OImm d -> Some (zero_value, clean_tags, 0, d)
  | OReg r -> Option.map (fun (v, t, i) -> (v, t, i, 0)) (c_src st r)

(* Destination of a result as a write kind and its operand; a
   speculative pool destination takes the op's tag ([result]). *)
let c_dst ~spec (rt : Op.loc) =
  if 0 <= rt && rt < 32 then Some (k_gpr_arch, rt)
  else if Op.is_nonarch_gpr rt then
    Some ((if spec then k_tagged else k_gpr_pool), rt - 32)
  else None

let c_crdst ~spec (crt : Op.loc) =
  if 0 <= crt && crt < 8 then Some (k_cr_arch, crt)
  else if Op.is_nonarch_cr crt then
    Some ((if spec then k_crtagged else k_cr_pool), crt - 8)
  else None

(* The tag of an op reading one or two operands, with [c_rd]'s
   semantics: the first non-clean operand tag, which a speculative op
   passes on to its result and a non-speculative op rolls back on. *)
let[@inline] tag1 ~spec ta i =
  let t = Array.unsafe_get ta i in
  if t <> Vstate.tag_clean && not spec then roll_tag t;
  t

let[@inline] tag2 ~spec ta i tb k =
  let t = Array.unsafe_get ta i in
  let t = if t <> Vstate.tag_clean then t else Array.unsafe_get tb k in
  if t <> Vstate.tag_clean && not spec then roll_tag t;
  t

(* The fused closure of [op], when its shape has one.  The op's tag is
   pushed with every write; [apply] reads it only for the tagged
   kinds. *)
let c_fused (st : Vstate.t) (mem : Mem.t) (s : scratch) seq (op : Op.t) :
    (unit -> unit) option =
  let m = st.m in
  match op with
  | CommitG { arch; src } when 0 <= arch && arch < 32 -> (
    match c_src st src with
    | Some (va, ta, i) ->
      Some
        (fun () ->
          ignore (tag1 ~spec:false ta i);
          push_w s k_gpr_arch arch (Array.unsafe_get va i))
    | None -> None)
  | CommitCr { arch; src } when 0 <= arch && arch < 8 && Op.is_nonarch_cr src ->
    let crhi = st.crhi and crtags = st.crtags and i = src - 8 in
    Some
      (fun () ->
        ignore (tag1 ~spec:false crtags i);
        push_w s k_cr_arch arch (Array.unsafe_get crhi i))
  | CommitLr { src } | CommitCtr { src } ->
    let kind = match op with CommitLr _ -> k_lr | _ -> k_ctr in
    (match c_src st src with
    | Some (va, ta, i) ->
      Some
        (fun () ->
          ignore (tag1 ~spec:false ta i);
          push_w s kind 0 (Array.unsafe_get va i))
    | None -> None)
  | BinI { op = IAdd; rt; ra; imm; spec } -> (
    match (c_src st ra, c_dst ~spec rt) with
    | Some (va, ta, i), Some (kind, j) ->
      Some
        (fun () ->
          let t = tag1 ~spec ta i in
          push_wt s kind j (u32 (Array.unsafe_get va i + imm)) t)
    | _ -> None)
  | RlwinmOp { rt; ra; sh; mb; me; spec } -> (
    match (c_src st ra, c_dst ~spec rt) with
    | Some (va, ta, i), Some (kind, j) ->
      let mask = Interp.mask_mb_me mb me in
      Some
        (fun () ->
          let t = tag1 ~spec ta i in
          push_wt s kind j (Interp.rotl32 (Array.unsafe_get va i) sh land mask) t)
    | _ -> None)
  | Bin { op = (Insn.Add | Subf) as bop; rt; ra; rb; spec; ca = _ } -> (
    match (c_src st ra, c_src st rb, c_dst ~spec rt) with
    | Some (va, ta, i), Some (vb, tb, k), Some (kind, j) ->
      Some
        (if bop = Insn.Add then fun () ->
           let t = tag2 ~spec ta i tb k in
           push_wt s kind j
             (u32 (Array.unsafe_get va i + Array.unsafe_get vb k)) t
         else fun () ->
           let t = tag2 ~spec ta i tb k in
           push_wt s kind j
             (u32 (Array.unsafe_get vb k - Array.unsafe_get va i)) t)
    | _ -> None)
  | Logic { op = (Insn.Or_ | And_ | Xor_) as lop; rt; ra; rb; spec } -> (
    match (c_src st ra, c_src st rb, c_dst ~spec rt) with
    | Some (va, ta, i), Some (vb, tb, k), Some (kind, j) ->
      Some
        (match lop with
        | Insn.Or_ -> fun () ->
          let t = tag2 ~spec ta i tb k in
          push_wt s kind j (Array.unsafe_get va i lor Array.unsafe_get vb k) t
        | And_ -> fun () ->
          let t = tag2 ~spec ta i tb k in
          push_wt s kind j (Array.unsafe_get va i land Array.unsafe_get vb k) t
        | _ -> fun () ->
          let t = tag2 ~spec ta i tb k in
          push_wt s kind j (Array.unsafe_get va i lxor Array.unsafe_get vb k) t)
    | _ -> None)
  | CmpOp { signed; crt; ra; rb; spec } -> (
    match (c_src st ra, c_src st rb, c_crdst ~spec crt) with
    | Some (va, ta, i), Some (vb, tb, k), Some (kind, j) ->
      Some
        (if signed then fun () ->
           let t = tag2 ~spec ta i tb k in
           let a = s32 (Array.unsafe_get va i) and b = s32 (Array.unsafe_get vb k) in
           push_wt s kind j (Exec.cmp_bits m.xer_so (a < b) (a > b)) t
         else fun () ->
           let t = tag2 ~spec ta i tb k in
           let a = Array.unsafe_get va i and b = Array.unsafe_get vb k in
           push_wt s kind j (Exec.cmp_bits m.xer_so (a < b) (a > b)) t)
    | _ -> None)
  | CmpIOp { signed; crt; ra; imm; spec } -> (
    match (c_src st ra, c_crdst ~spec crt) with
    | Some (va, ta, i), Some (kind, j) ->
      Some
        (if signed then
           let b = s32 (u32 imm) in
           fun () ->
             let t = tag1 ~spec ta i in
             let a = s32 (Array.unsafe_get va i) in
             push_wt s kind j (Exec.cmp_bits m.xer_so (a < b) (a > b)) t
         else fun () ->
           let t = tag1 ~spec ta i in
           let a = Array.unsafe_get va i in
           push_wt s kind j (Exec.cmp_bits m.xer_so (a < imm) (a > imm)) t)
    | _ -> None)
  | LoadOp { w; alg; rt; base; off; spec; passed } -> (
    match (c_src st base, c_off st off, c_dst ~spec rt) with
    | Some (vb, tb, i), Some (vo, to_, k, d), Some (kind, j) ->
      let bytes = Mem.width_bytes w in
      let fload =
        match w with
        | Insn.Byte -> Mem.load8
        | Half -> Mem.load16
        | Word -> Mem.load32
      in
      let k_mmio =
        match w with Insn.Byte -> k_mmio8 | Half -> k_mmio16 | Word -> k_mmio32
      in
      let alg_half = alg && w = Insn.Half in
      Some
        (fun () ->
          let t = tag2 ~spec tb i to_ k in
          let addr = u32 (Array.unsafe_get vb i + Array.unsafe_get vo k + d) in
          if Mem.is_mmio addr then
            if spec then push_wt s k_tagged_any rt 0 Vstate.tag_mmio
            else push_w s k_mmio rt addr
          else begin
            match fload mem addr with
            | v ->
              let v =
                if alg_half then u32 (s32 ((v land 0xFFFF) lsl 16) asr 16)
                else v
              in
              push_wt s kind j v t;
              push_access s addr bytes seq passed false
            | exception Mem.Data_fault _ ->
              if spec then push_wt s k_tagged_any rt 0 (Vstate.tfault_code addr)
              else raise (Exec.Roll (Exec.Rfault { addr; write = false }))
          end)
    | _ -> None)
  | StoreOp { w; rs; base; off } -> (
    match (c_src st rs, c_src st base, c_off st off) with
    | Some (vr, tr, r), Some (vb, tb, i), Some (vo, to_, k, d) ->
      let bytes = Mem.width_bytes w in
      let k_store =
        match w with
        | Insn.Byte -> k_store8
        | Half -> k_store16
        | Word -> k_store32
      in
      Some
        (fun () ->
          ignore (tag1 ~spec:false tr r);
          ignore (tag2 ~spec:false tb i to_ k);
          let addr = u32 (Array.unsafe_get vb i + Array.unsafe_get vo k + d) in
          if (not (Mem.is_mmio addr)) && not (Mem.in_bounds mem addr bytes) then
            raise (Exec.Roll (Exec.Rfault { addr; write = true }));
          push_w s k_store addr (Array.unsafe_get vr r);
          push_access s addr bytes seq false true)
    | _ -> None)
  | _ -> None

(** The staged closure of one op: its fused shape if it has one, the
    generic closure chain otherwise. *)
let c_op st mem s seq op =
  match c_fused st mem s seq op with
  | Some f -> f
  | None -> c_generic st mem s seq op

(* ------------------------------------------------------------------ *)
(* Apply phase: commit the scratch writes in program order.  Mirrors
   [Exec.apply] variant by variant; deferred I/O-space loads perform
   their side effect here, never during evaluation. *)

let apply (st : Vstate.t) (mem : Mem.t) (s : scratch) =
  let m = st.m in
  for i = 0 to s.w_n - 1 do
    let a = s.w_a.(i) and b = s.w_b.(i) in
    match s.w_kind.(i) with
    | 0 (* k_gpr_arch *) -> m.gpr.(a) <- b
    | 1 (* k_gpr_pool *) ->
      st.hi.(a) <- b;
      st.tags.(a) <- Vstate.tag_clean
    | 2 (* k_lr *) -> m.lr <- b
    | 3 (* k_ctr *) -> m.ctr <- b
    | 4 (* k_tagged *) ->
      st.hi.(a) <- b;
      st.tags.(a) <- s.w_tag.(i)
    | 5 (* k_tagged_any *) ->
      Vstate.set_gpr st a b;
      Vstate.set_tag_code st a s.w_tag.(i)
    | 6 (* k_ext *) -> st.ext.(a) <- b <> 0
    | 7 (* k_ca *) -> m.xer_ca <- b <> 0
    | 8 (* k_cr_arch *) -> Machine.set_crf m a b
    | 9 (* k_cr_pool *) ->
      st.crhi.(a) <- b land 0xF;
      st.crtags.(a) <- Vstate.tag_clean
    | 10 (* k_crtagged *) ->
      st.crhi.(a) <- b land 0xF;
      st.crtags.(a) <- s.w_tag.(i)
    | 11 (* k_set_gpr *) -> Vstate.set_gpr st a b
    | 12 (* k_set_cr *) -> Vstate.set_cr st a b
    | 13 (* k_xer *) -> Machine.set_xer m b
    | 14 (* k_msr *) -> m.msr <- b
    | 15 (* k_spr *) -> (
      match a with
      | 0 -> Machine.set_xer m b
      | 1 -> m.srr0 <- b
      | 2 -> m.srr1 <- b
      | 3 -> m.dar <- b
      | 4 -> m.dsisr <- b
      | 5 -> m.sprg0 <- b
      | 6 -> m.sprg1 <- b
      | _ -> m.msr <- b)
    | 16 (* k_store8 *) -> Mem.store8 mem a b
    | 17 (* k_store16 *) -> Mem.store16 mem a b
    | 18 (* k_store32 *) -> Mem.store32 mem a b
    | 19 (* k_mmio8 *) -> Vstate.set_gpr st a (Mem.load8 mem b)
    | 20 (* k_mmio16 *) -> Vstate.set_gpr st a (Mem.load16 mem b)
    | 21 (* k_mmio32 *) -> Vstate.set_gpr st a (Mem.load32 mem b)
    | _ -> assert false
  done

(* ------------------------------------------------------------------ *)
(* Staged trees. *)

type link = { l_off : int; mutable l_entry : int (* -1 = unresolved *) }

type cexit =
  | Cnext of cvliw (* direct-linked [Tree.Next] *)
  | Cnext_id of int (* out-of-range [Tree.Next]: faults on dispatch *)
  | Conpage of link (* [Tree.OnPage] with a memoized entry-id slot *)
  | Coffpage of int
  | Cindirect of Op.loc * [ `Lr | `Ctr | `Gpr ]
  | Ctrap of Tree.trap

(* Direct links and memoized on-page entries short-circuit dispatch only
   *within* a page: every [Coffpage] / [Cindirect] exit returns to the
   monitor's shared exit handlers, which is where cross-page exit edges
   ([Vmm.Monitor.Exit_edge]) are observed.  The staged engine therefore
   produces the same edge stream as the tree walker by construction —
   there is no separate emission path to keep in sync here. *)

and cleaf = {
  ops : (unit -> unit) array; (* the whole root-to-leaf path, program order *)
  nops : int;
  mutable exit : cexit;
}

and cvliw = { c_id : int; c_tree : Tree.t; select : unit -> cleaf }

(** One staged [Translate.xpage]: the closure-compiled counterparts of
    its trees, plus the state and scratch they were compiled against. *)
type page = {
  vliws : cvliw array;
  fresh : int;
      (** trees closure-compiled by the {!stage} call that built this
          page; the others were reused from its [prev] *)
  scratch : scratch;
  st : Vstate.t;
  mem : Mem.t;
}

let c_exit (e : Tree.exit) : cexit =
  match e with
  | Tree.Next id -> Cnext_id id
  | OnPage off -> Conpage { l_off = off; l_entry = -1 }
  | OffPage a -> Coffpage a
  | Indirect (l, k) -> Cindirect (l, k)
  | Trap tr -> Ctrap tr

(* Compile path selection from [node] down, with [prefix] the compiled
   ops of the path above it.  Mirrors [Exec.select]: tests read entry
   state only, ops collect in program order, an open tip is a
   structural error, a tagged pool test rolls the VLIW back. *)
let rec c_sel st mem s leaves (prefix : (unit -> unit) list) nprefix
    (n : Tree.node) : unit -> cleaf =
  let cops = List.map (fun (seq, op) -> c_op st mem s seq op) (Tree.ops_in_order n) in
  let prefix = prefix @ cops in
  let nprefix = nprefix + List.length cops in
  match n.kind with
  | Tree.Open -> fun () -> raise (Exec.Error "open tip reached at runtime")
  | Exit e ->
    let leaf = { ops = Array.of_list prefix; nops = nprefix; exit = c_exit e } in
    leaves := leaf :: !leaves;
    fun () -> leaf
  | Branch { test; taken; fall } ->
    let ftaken = c_sel st mem s leaves prefix nprefix taken in
    let ffall = c_sel st mem s leaves prefix nprefix fall in
    let fld = test.bit / 4 and sh = 3 - (test.bit mod 4) in
    let sense = test.sense in
    if fld < 8 then
      let m = st.Vstate.m and csh = 4 * (7 - fld) in
      fun () ->
        let field = (m.cr lsr csh) land 0xF in
        if (field lsr sh) land 1 = 1 = sense then ftaken () else ffall ()
    else if fld < 16 then
      let i = fld - 8 in
      let crhi = st.Vstate.crhi and crtags = st.Vstate.crtags in
      fun () ->
        let t = Array.unsafe_get crtags i in
        if t <> Vstate.tag_clean then roll_tag t;
        if (Array.unsafe_get crhi i lsr sh) land 1 = 1 = sense then ftaken ()
        else ffall ()
    else fun () -> invalid_arg "index out of bounds"
(* out-of-range test field: faults like [Vstate.get_cr_tagged] *)

exception Budget_exceeded of float
(** Raised by {!stage} when a [?budget] wall-clock allowance (seconds)
    is exhausted partway through staging a page; carries the elapsed
    time.  No partial page escapes — the caller sees either a complete
    staged page or this exception. *)

let n_staged p = Array.length p.vliws

(** Stage the trees of a page.  In-range [Tree.Next] exits are patched
    to direct closure references, so steady-state chaining is one
    pointer dereference.

    [prev], when given, is the same page staged earlier, before an
    in-place extension appended trees: its [n_staged prev] staged trees
    are reused as they are (physically), and only the trees from
    [n_staged prev] on are closure-compiled and direct-linked.  This is
    sound because a translation group never mutates the trees of an
    earlier group: its [Next] exits point only at its own new trees,
    and it reaches older code through [OnPage] exits, whose entry slots
    resolve lazily.  A [prev] staged against other state, memory or
    scratch, or whose trees are not the first trees of [trees], is
    ignored.

    [budget], when given, bounds the wall time staging may take: the
    clock is checked between trees (one tree is the smallest unit of
    staging work), and overrunning raises {!Budget_exceeded} instead of
    letting a pathological page stall the whole run.  [prev] is left
    untouched either way. *)
let stage ?budget ?prev ~(st : Vstate.t) ~(mem : Mem.t) ~(scratch : scratch)
    (trees : Tree.t array) : page =
  let t0 = Clock.now () in
  let check_budget () =
    match budget with
    | Some b ->
      let dt = Clock.since t0 in
      if dt > b then raise (Budget_exceeded dt)
    | None -> ()
  in
  let n = Array.length trees in
  let reused =
    match prev with
    | Some p
      when p.st == st && p.mem == mem && p.scratch == scratch
           && n_staged p <= n
           && Array.for_all (fun cv -> cv.c_tree == trees.(cv.c_id)) p.vliws ->
      p.vliws
    | _ -> [||]
  in
  let n0 = Array.length reused in
  let leaves = ref [] in
  let vliws =
    Array.init n (fun i ->
        if i < n0 then reused.(i)
        else begin
          check_budget ();
          let tree = trees.(i) in
          { c_id = i; c_tree = tree;
            select = c_sel st mem scratch leaves [] 0 tree.root }
        end)
  in
  List.iter
    (fun leaf ->
      match leaf.exit with
      | Cnext_id id when id >= 0 && id < n -> leaf.exit <- Cnext vliws.(id)
      | _ -> ())
    !leaves;
  { vliws; fresh = n - n0; scratch; st; mem }

(** The staged VLIW with tree id [id]; raises [Invalid_argument] for an
    id outside the page, as [Vec.get] would. *)
let get (p : page) id = p.vliws.(id)

(** Execute one staged VLIW.  Semantics are those of [Exec.run]: select
    a path against entry state, evaluate its ops against entry state
    into the scratch buffers, run the alias check, then apply all
    writes in program order — or raise [Exec.Roll] with no state
    change.  [Invalid_argument]/[Failure] escapes from the
    select/evaluate phase surface as [Exec.Error], exactly as in the
    interpretive engine.  Returns the selected leaf; its accesses are
    in the scratch buffers. *)
let exec_vliw (p : page) (cv : cvliw) ~(alias_check : scratch -> bool) : cleaf =
  let s = p.scratch in
  s.w_n <- 0;
  s.a_n <- 0;
  match
    let leaf = cv.select () in
    let ops = leaf.ops in
    for i = 0 to Array.length ops - 1 do
      (Array.unsafe_get ops i) ()
    done;
    if not (alias_check s) then raise (Exec.Roll Exec.Ralias);
    leaf
  with
  | exception Invalid_argument msg ->
    raise (Exec.Error ("Invalid_argument: " ^ msg))
  | exception Failure msg -> raise (Exec.Error ("Failure: " ^ msg))
  | leaf ->
    apply p.st p.mem s;
    leaf
