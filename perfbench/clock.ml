(* Monotonic time in seconds, at nanosecond resolution: gettimeofday's
   microsecond steps would quantize the medians of microsecond spans. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
