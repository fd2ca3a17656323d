(* Order statistics that only report what the sample supports.

   A tail percentile is given only when at least [min_beyond] samples lie
   beyond it (so a p90 needs 100 samples and a p99 needs 1000); anything
   less is reported as missing rather than computed anyway. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile of an already sorted array *)
let rank_index n q = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let median xs =
  match sorted xs with
  | [||] -> None
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then Some a.(n / 2)
    else Some ((a.((n / 2) - 1) +. a.(n / 2)) /. 2.0)

(* [Some p] only when [min_beyond] samples lie strictly beyond the rank *)
let tail xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else
    let i = rank_index n q in
    if n - 1 - i >= min_beyond then Some a.(i) else None

(* smallest sample count for which [tail _ q] is defined *)
let samples_needed q =
  let rec go n = if n - 1 - rank_index n q >= min_beyond then n else go (n + 1) in
  go 1

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Total length of the part of [a0, a1] covered by [intervals], which
   must be disjoint (one closed-loop writer's requests are). *)
let overlap (a0, a1) intervals =
  List.fold_left
    (fun acc (b0, b1) ->
      let lo = Float.max a0 b0 and hi = Float.min a1 b1 in
      if hi > lo then acc +. (hi -. lo) else acc)
    0.0 intervals
