(** Columnar fact store with set semantics.

    Facts are deduplicated on their (predicate, tuple); each inserted
    fact receives a stable id.  The per-(predicate, arity) column groups
    described under {!Cols} are the store's only index: they answer
    dedup, exact lookup, pattern matching and cardinality, and the
    matcher's hash joins build on them.  Facts can be {e deactivated}: a
    deactivated fact stays addressable by id (the chase graph may
    reference it) but no longer participates in rule matching.  The
    chase uses deactivation to supersede stale monotonic-aggregation
    results. *)

open Ekg_kernel
open Ekg_datalog

type t

val create : unit -> t

val copy : t -> t
(** Independent copy of the full store — facts, ids, column groups
    with their unique keys, activation state, null counter.  Mutations
    to either database never show through the other, so a reader can
    keep using the original while an incremental update runs against
    the copy ({!Chase.copy_result}).  O(facts); hash-join indexes are
    caches, not copied, and {!ensure_index} rebuilds them on demand.
    The copy of an overlay copies only the overlay's own state and
    shares its frozen base; a copy is never frozen. *)

(** {1 Frozen bases and overlays}

    The goal-directed query lane runs many small private chases over
    one large extensional store.  Instead of re-inserting the store
    for every query, the store is {!freeze}d once and each query
    chases an {!overlay} of it.

    An overlay is a complete store in its own right: every read
    (lookup, matching, cardinality, fact by id, interned values)
    resolves through to the base, and every write (insertion,
    (de)activation, labelled nulls) stays private.  Its fact ids, value
    ids, predicate symbols and null counter continue from the base's,
    so a chase over [overlay base] assigns exactly the ids a chase over
    a fresh store loaded with the same facts would.  Insertions go to
    the overlay's own column groups; the first insertion into a
    (predicate, arity) group the base owns copies that group into the
    overlay (a magic-sets program never does this: it only adds demand
    and adorned predicates).  Re-adding a tuple the base already holds
    is a read, answered [`Existing].

    A frozen store rejects writes with [Invalid_argument].  It stays
    safe to read from any number of domains, and that includes
    {!ensure_index} over it, directly or through an overlay: an index on
    a frozen group is built at most once, under the base's lock, and
    published complete, so every overlay and every concurrent query
    shares it.  Creating an overlay costs O(predicates), independent of
    the base's size. *)

val freeze : t -> unit
(** Make the store read-only, for good. *)

val overlay : t -> t
(** A fresh, writable overlay of a frozen base.  Raises
    [Invalid_argument] if the base is not frozen. *)

val add : t -> string -> Value.t array -> [ `Added of Fact.t | `Existing of Fact.t ]
(** Insert or retrieve. A previously deactivated identical tuple is
    treated as existing (it is not resurrected). *)

val add_atom : t -> Atom.t -> ([ `Added of Fact.t | `Existing of Fact.t ], string) result
(** Convenience for ground atoms; [Error] on non-ground input. *)

val deactivate : t -> int -> unit
val is_active : t -> int -> bool

val all_active : t -> bool
(** True when no fact is deactivated — lets read loops skip the
    per-fact activation check.  Only stable while no deactivations
    happen (e.g. within one pure-read match pass). *)

val reactivate : t -> int -> unit
(** Resurrect a deactivated fact: it participates in matching again
    under its original id.  The incremental chase uses this when a
    retracted or over-deleted fact is re-added or re-derived, so fact
    identity (and with it the provenance graph) survives an
    add-then-retract round trip. *)

val fingerprint : t -> string
(** Canonical content fingerprint of the {e active} instance: every
    active fact rendered and sorted, one per line.  Two databases with
    the same fingerprint hold the same facts regardless of insertion
    order, fact ids, or deactivated garbage — the equality the
    incremental chase's "byte-identical to a cold chase" invariant is
    stated over. *)

val fact : t -> int -> Fact.t
(** Raises [Not_found] for unknown ids. *)

val find_exact : t -> string -> Value.t array -> Fact.t option
(** Lookup by tuple regardless of activity: one unique-key probe of the
    tuple's column group.  A pure read — it never interns a value. *)

val active : t -> string -> Fact.t list
(** Active facts of a predicate at every arity, in insertion order. *)

val all_of_pred : t -> string -> Fact.t list
(** Active and inactive, at every arity, in insertion order. *)

val active_all : t -> Fact.t list
(** All active facts, insertion order. *)

val size : t -> int
(** Number of facts ever inserted (active + inactive). *)

val active_size : t -> int

val fresh_null : t -> Value.t
(** Next labelled null ν_i; the counter is per-database. *)

val matching : t -> Atom.t -> Subst.t -> (Fact.t * Subst.t) list
(** Active facts of the pattern's predicate that the pattern maps onto
    under an extension of the given substitution, with the extended
    substitution, in ascending id order.  A fully bound pattern is one
    unique-key probe; otherwise the pattern's column group is scanned.
    A pure read: it never interns a value or builds an index, so it is
    safe on a published database while no writer mutates it. *)

val exists_matching : t -> Atom.t -> Subst.t -> bool
(** Whether {!matching} would be non-empty, without materializing the
    matches — the negation check of the matcher early-exits through
    this. *)

(** {1 Interned symbols and statistics}

    Predicate names are interned to dense ints on first insertion;
    the matcher and the chase key their hot-path lookups (delta
    membership, column-group lookup) on these symbols instead of hashing
    strings. *)

val pred_sym : t -> string -> int option
(** The symbol of a predicate, if any fact of it was ever inserted. *)

val pred_sym_of_fact : t -> int -> int
(** The predicate symbol of a fact id; raises [Not_found] for unknown
    ids. *)

val pred_card : t -> string -> int
(** Number of facts ever inserted for the predicate (active +
    inactive, every arity) — the join planner's cardinality estimate.
    O(arities of the predicate). *)

(** {1 Columnar storage and hash-join indexes}

    Every fact is a row of one {e column group} per (predicate symbol,
    arity), a struct-of-arrays holding a flat column of interned value
    ids per argument position plus a row → fact-id map.  Rows are in
    insertion order (ascending fact id), and activation is a bitmap
    checked per candidate row — deactivated facts stay in the columns
    forever.  Each group keeps one unique key over all its columns,
    maintained by {!add}: an open-addressing table whose slots hold
    rows.  The boxed tuples stay alongside for proofs and rendering,
    which need the stored values that interning merges.

    The hash-join matcher builds {e multi-column hash indexes} over a
    group on demand: [ensure_index] indexes the key columns named by a
    bitmask, incrementally from a row watermark, so per-round index
    maintenance costs O(new rows).  [ensure_index] mutates the
    database, so a chase round calls it before a match, never during
    one; {!index_handle} is a pure read and answers [None] whenever the
    index is missing or stale, so correctness never depends on index
    preparation. *)

module Cols : sig
  type group
  (** A (predicate symbol, arity) column group — a read-only view for
      the matcher; only {!Database.add} appends rows. *)

  val find : t -> sym:int -> arity:int -> group option
  val rows : group -> int
  val arity : group -> int

  val fact_id : group -> int -> int
  (** [fact_id g row] — the fact id stored at a row.  No bounds check;
      callers iterate [0 .. rows g - 1]. *)

  val col : group -> int -> int -> int
  (** [col g i row] — the interned value id of argument position [i]
      at [row].  No bounds check. *)
end

val value_id : t -> Value.t -> int
(** The interned id of a value, or [-1] if no stored fact contains it
    (in which case no probe can match it).  Interning follows
    {!Value.equal}, so numerically equal [Int]/[Num] values share an
    id. *)

val value_of_id : t -> int -> Value.t
(** Inverse of {!value_id} (the first-interned representative);
    raises [Invalid_argument] on ids never returned by interning. *)

val key_hash_add : int -> int -> int
(** Fold a key column's value id into a probe hash (seed [0], columns
    in ascending position order) — deterministic pure-int mixing, the
    exact combiner {!ensure_index} uses to bucket rows. *)

val ensure_index : t -> sym:int -> arity:int -> mask:int -> int
(** Build or extend the hash index of the column group on the key
    columns set in [mask] (bit [i] = argument position [i]).  Returns
    the number of rows newly indexed (0 when the index was already
    fresh or the group does not exist).  On a group this store owns
    and may still write, sequential-phase only; on a frozen group
    (a frozen store's, or a base's through an overlay) safe from any
    domain, see {!overlay}. *)

type index_handle
(** A resolved, fresh index over a column group — the mask lookup and
    staleness check, paid once per match pass.  Valid only
    while no rows are appended to the group: resolve at the start of a
    pure-read match pass, drop before any insertion. *)

val index_handle : Cols.group -> mask:int -> index_handle option
(** [Some h] when the [mask] index exists and covers every row of the
    group, [None] when the caller must scan. *)

val probe_handle : index_handle -> hash:int -> Intvec.t
(** The candidate rows whose key columns hash to [hash] (ascending,
    possibly empty; shared index state — read-only).  Collisions are
    possible; callers re-check every column. *)

val encode : Buffer.t -> t -> unit
(** Snapshot codec hook: the full store — facts in id order, activation
    state, null counter, symbol table — in the engine's binary wire
    form.  {!decode} replays the insertion sequence, so the restored
    database carries identical fact ids, symbols, column groups and
    {!fingerprint}. *)

val decode : Wire.reader -> t
(** Raises {!Wire.Truncated} / {!Wire.Corrupt} on malformed input,
    including replays that fail to reproduce the recorded ids or
    symbol table. *)
