(* The library's one clock for durations and budgets.

   Every elapsed time DAISY reports or enforces — staging and translate
   budgets, tier-2 compile time, checkpoint seconds, tcache load time —
   is read here: CLOCK_MONOTONIC through bechamel's noalloc stub.  Not
   [Sys.time], which is process CPU time (on a pool domain it also
   counts every other domain's work, so a budget would fire on work
   that was not slow), and not [Unix.gettimeofday], which can step. *)

(** Monotonic time in seconds since an arbitrary origin; subtract two
    readings for an elapsed wall time. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** Seconds elapsed since the reading [t0] of {!now}. *)
let since t0 = now () -. t0
