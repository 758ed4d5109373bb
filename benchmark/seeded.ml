(* Everything the workload seed decides.  The program under test only
   ever receives the generated inputs.

   - registry: the text and integer inputs of compress, lex, fgrep, wc,
     cmp and sort, re-derived through [Workloads.Inputs] at their
     current sizes and addresses.  Seed 0 keeps every input seed as the
     workload module has it, so its memory images are byte-identical to
     [Workloads.Registry.all] (the self-test checks this).
   - coldcode: the order in which a fixed population of
     [Fault.Fuzz.gen_slots] programs is dealt, and each program's
     registers and data through [Fault.Fuzz.wl_of].
   - serve_warm: each client's session mix, dealt from shuffled decks
     of the eight registry names. *)

module W = Workloads
module Wl = W.Wl

(* An input seed of the registry, moved by the benchmark seed.  Never 0
   in its low 32 bits, where [Inputs.rng] would substitute a constant. *)
let input_seed ~seed base =
  if seed = 0 then base
  else ((base + (seed * 0x9E3779B1)) land 0x3FFF_FFFF) lor 1

let registry ~seed : Wl.t list =
  let s = input_seed ~seed in
  let text_at mem addr text = Wl.put_sized_string mem addr text in
  List.map
    (fun (w : Wl.t) ->
      let init =
        match w.name with
        | "compress" ->
          fun mem _ ->
            text_at mem Wl.data_base
              (W.Inputs.text ~seed:(s 95) W.Compress.text_len)
        | "lex" ->
          fun mem _ ->
            text_at mem Wl.data_base
              (W.Inputs.text ~seed:(s 90210) W.Lexer.text_len);
            Ppc.Mem.blit_string mem W.Lexer.cls_base (W.Lexer.class_table ());
            Ppc.Mem.blit_string mem W.Lexer.trans_base
              (W.Lexer.transition_table ())
        | "fgrep" ->
          fun mem _ ->
            text_at mem Wl.data_base
              (W.Inputs.text_with_needles ~seed:(s 777) ~needle:W.Fgrep.needle
                 ~count:W.Fgrep.planted W.Fgrep.text_len);
            text_at mem Wl.table_base W.Fgrep.needle
        | "wc" ->
          fun mem _ ->
            text_at mem Wl.data_base (W.Inputs.text ~seed:(s 4242) W.Wc.text_len)
        | "cmp" ->
          fun mem _ ->
            let a = W.Inputs.text ~seed:(s 31337) W.Cmp.buf_len in
            Ppc.Mem.blit_string mem Wl.data_base a;
            let b = Bytes.of_string a in
            Bytes.set b W.Cmp.diff_at 'Z';
            Ppc.Mem.blit_string mem Wl.data2_base (Bytes.to_string b)
        | "sort" ->
          fun mem _ ->
            Wl.put_int_array mem Wl.data_base
              (W.Inputs.ints ~seed:(s 5150) W.Sort.n)
        | _ -> w.init  (* c_sieve and gcc take no generated input *)
      in
      { w with init })
    W.Registry.all

(* --- coldcode --------------------------------------------------------

   A fixed population of [cold_programs] programs in decks of
   [cold_deck].  The code of program [i] is [Fault.Fuzz.gen_slots]
   seeded by [(cold_generator, i)], with a slot count from an evenly
   log-spaced ladder between [min_slots] and [max_slots], so each deck
   covers every size once.  The benchmark seed deals each deck in its
   own order and, through [Fault.Fuzz.wl_of], draws every program's
   initial registers and data window.

   Why the code is not drawn from the seed too: translation cost and
   code size of random programs are heavy-tailed (one program in a
   hundred schedules 50x its static size), so a few hundred programs
   drawn afresh per seed moved code size and every timing by 20-25%
   between seeds, far above any regression worth catching.  The upper
   size keeps prologue + slots + epilogue (about 35 words) inside the
   one 4 KB page the program text starts on. *)

let min_slots = 32
let max_slots = 960
let cold_deck = 32
let cold_programs = 4 * cold_deck
let cold_generator = 0x5EED

(* The fuzzer's own fuel: generated programs are forward-branching with
   bounded loops, so they end far below it. *)
let cold_fuel = 100_000

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let cold_slots i =
  let ratio = float_of_int max_slots /. float_of_int min_slots in
  let j = float_of_int (i mod cold_deck) /. float_of_int (cold_deck - 1) in
  int_of_float (Float.round (float_of_int min_slots *. (ratio ** j)))

(** Program [k] of the seed's sequence: deck [k / cold_deck], dealt in
    the seed's order.  [k] may run past the population (set-up uses a
    deck of its own). *)
let cold_program ~seed ~k =
  let deck = k / cold_deck in
  let order =
    shuffle (Random.State.make [| seed; deck; 3 |]) (Array.init cold_deck Fun.id)
  in
  let i = (deck * cold_deck) + order.(k mod cold_deck) in
  let rng = Random.State.make [| cold_generator; i; 0 |] in
  let slots = Fault.Fuzz.gen_slots rng ~insns:(cold_slots i) ~allow_raw:false in
  Fault.Fuzz.wl_of ~seed ~index:i ~fuel:cold_fuel slots

(* --- serve_warm ------------------------------------------------------

   Session [k] of client [c] is card [k mod 8] of deck [k / 8], a
   seeded shuffle of the registry names: the seed moves the order, and
   every block of eight sessions runs each program once, so the mix is
   the same on every seed. *)

let names = List.map (fun (w : Wl.t) -> w.name) W.Registry.all |> Array.of_list

let deck ~seed ~client ~block =
  shuffle (Random.State.make [| seed; client; block; 4 |]) (Array.copy names)

let session_program ~seed ~client ~k =
  let n = Array.length names in
  (deck ~seed ~client ~block:(k / n)).(k mod n)
