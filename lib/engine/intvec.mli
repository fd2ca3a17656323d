(** Growable int arrays — the columns and row maps of the database's
    column groups and the buckets of its hash-join indexes.
    Append-only: the chase never removes a fact from the store
    (deactivation is a side table), so vectors only ever [push].  An
    [Intvec] keeps elements in insertion order, answers {!length} in
    O(1) (the join planner's cardinality probe), and stores ids unboxed
    in a flat [int array]. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty vector; [capacity] (default [8]) pre-sizes the backing
    array. *)

val copy : t -> t
(** Independent copy: pushes to either vector leave the other
    untouched. *)

val length : t -> int

val get : t -> int -> int
(** Raises [Invalid_argument] outside [0..length-1]. *)

val unsafe_get : t -> int -> int
(** {!get} without the bounds check — for loops that already iterate
    [0..length-1], such as the hash-join probe over columnar storage.
    Out-of-range access is undefined behaviour. *)

val push : t -> int -> unit
(** Append, amortized O(1). *)

val to_list : t -> int list
(** In insertion order. *)
