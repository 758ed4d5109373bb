(* Runtime state of the VLIW machine.

   The architected base state (GPRs 0..31, CR fields 0..7, LR, CTR, XER
   bits, MSR, the privileged SPRs) lives directly in a {!Ppc.Machine.t},
   so the VMM can hand the same state to the reference interpreter for
   its interpretation episodes without copying.  On top of it sit the
   non-architected resources: 32 extra GPRs each with an exception tag
   and a carry extender bit, and 8 extra condition fields.  None of the
   extra state is visible to the base architecture, and — because
   commits are in order — none of it needs saving across interrupts. *)

(** Exception tag of a non-architected register (Section 2.1): set
    instead of faulting when a speculative operation goes wrong. *)
type tag =
  | Clean
  | Tfault of int  (** speculative load faulted at this address *)
  | Tmmio          (** speculative load hit I/O space; deferred *)

(* Tags are stored as immediate int codes, never as [tag] values: a
   store of a boxed constructor ([Tfault a]) into a mutable field or
   array compiles to a [caml_modify] write-barrier call, and the staged
   engine stores one to three tags per operation.  [tag] is the API
   view; [get]/[set_tag] convert at the boundary.

   Codes: [Clean] = 0, [Tmmio] = 1, [Tfault a] = [(a lsl 2) lor 2] —
   so "is this register clean" is a compare against 0. *)

let tag_clean = 0
let tag_mmio = 1
let tfault_code a = (a lsl 2) lor 2

let code_of_tag = function
  | Clean -> tag_clean
  | Tmmio -> tag_mmio
  | Tfault a -> tfault_code a

let tag_of_code c =
  if c = tag_clean then Clean
  else if c = tag_mmio then Tmmio
  else Tfault (c asr 2)

type t = {
  m : Ppc.Machine.t;       (** architected base state *)
  hi : int array;          (** r32..r63 *)
  ext : bool array;        (** carry extender bits of r32..r63 *)
  tags : int array;        (** exception tag codes of r32..r63 *)
  crhi : int array;        (** cr8..cr15 (4-bit fields) *)
  crtags : int array;      (** exception tag codes of cr8..cr15 *)
}

let create m =
  { m; hi = Array.make 32 0; ext = Array.make 32 false;
    tags = Array.make 32 tag_clean; crhi = Array.make 8 0;
    crtags = Array.make 8 tag_clean }

(** Value of GPR-space location [l] with its tag ([Op.zero] reads 0;
    architected locations are always clean). *)
let get t (l : Op.loc) =
  if l = Op.zero then (0, Clean)
  else if l < 32 then (t.m.gpr.(l), Clean)
  else if l < 64 then (t.hi.(l - 32), tag_of_code t.tags.(l - 32))
  else if l = Op.lr_loc then (t.m.lr, Clean)
  else if l = Op.ctr_loc then (t.m.ctr, Clean)
  else invalid_arg "Vstate.get"

(** Carry bit at location [l]: the machine CA ([Op.ca_loc]) or the
    extender bit of a renamed register. *)
let get_ca t (l : Op.loc) =
  if l = Op.ca_loc then t.m.xer_ca
  else if l >= 32 && l < 64 then t.ext.(l - 32)
  else invalid_arg "Vstate.get_ca"

(** Condition field at location [l] (0..15), with its tag. *)
let get_cr_tagged t (l : Op.loc) =
  if l < 8 then (Ppc.Machine.get_crf t.m l, Clean)
  else (t.crhi.(l - 8), tag_of_code t.crtags.(l - 8))

(** Condition field value, ignoring tags. *)
let get_cr t (l : Op.loc) =
  if l < 8 then Ppc.Machine.get_crf t.m l else t.crhi.(l - 8)

let set_gpr t (l : Op.loc) v =
  if l < 32 then t.m.gpr.(l) <- v
  else if l < 64 then (
    t.hi.(l - 32) <- v;
    t.tags.(l - 32) <- tag_clean)
  else if l = Op.lr_loc then t.m.lr <- v
  else if l = Op.ctr_loc then t.m.ctr <- v
  else invalid_arg "Vstate.set_gpr"

let set_ext t (l : Op.loc) b =
  if l >= 32 && l < 64 then t.ext.(l - 32) <- b
  else invalid_arg "Vstate.set_ext"

let set_tag_code t (l : Op.loc) code =
  if l >= 32 && l < 64 then t.tags.(l - 32) <- code
  else invalid_arg "Vstate.set_tag"

let set_tag t l tag = set_tag_code t l (code_of_tag tag)

let set_cr t (l : Op.loc) v =
  if l < 8 then Ppc.Machine.set_crf t.m l v
  else (
    t.crhi.(l - 8) <- v land 0xF;
    t.crtags.(l - 8) <- tag_clean)

let set_cr_tag t (l : Op.loc) tag =
  if l >= 8 && l < 16 then t.crtags.(l - 8) <- code_of_tag tag
  else invalid_arg "Vstate.set_cr_tag"

(** Reset all non-architected state (used when entering fresh groups is
    not required — tags and pool values never survive recovery). *)
let clear_nonarch t =
  Array.fill t.tags 0 32 tag_clean;
  Array.fill t.crtags 0 8 tag_clean
