(** Body evaluation: enumerating the homomorphisms θ that make a rule
    applicable to the current database (§3, Chase Procedure).

    Non-aggregating rules yield one {!match_result} per homomorphism;
    aggregating rules yield one {!agg_result} per SQL-like group, with
    the contributors that feed the monotonic aggregate.

    Bodies are evaluated by build/probe hash joins over the database's
    columnar storage ({!Database.Cols}): at each join position the
    matcher probes a multi-column hash index on the planner's key
    columns ({!Plan.key_masks}), with dense interned-int bindings.
    Candidate rows are visited in ascending fact-id order, so the match
    sequence is the one a nested-loop matcher over the same plan would
    enumerate.

    Joins follow an optional {!Plan.t} (cost-based atom order); the
    results are plan-independent — [used_facts] is always reported in
    body order — only the enumeration order of the matches may differ
    between plans.  Every entry point except {!prepare} only {e reads}
    the database. *)

open Ekg_kernel
open Ekg_datalog

type match_result = {
  binding : Subst.t;         (** θ extended with assignment results *)
  used_facts : int list;     (** premise fact ids, positive atoms in body order *)
}

type agg_result = {
  group_binding : Subst.t;   (** group variables + aggregation result *)
  value : Value.t;           (** the aggregate *)
  contributors : Provenance.contributor list;  (** one per distinct body match *)
}

type delta = {
  mem : int -> bool;      (** fact id in the previous round's delta *)
  has_pred : int -> bool; (** some delta fact has this predicate {e symbol}
                              ({!Database.pred_sym}) — interned, so the
                              per-pass skip test hashes no strings *)
}

exception Interrupted
(** Raised from inside a join enumeration when the [interrupt] hook
    answers [true] — the cooperative-cancellation signal of the
    budgeted chase ({!Chase.budget}).  The database is untouched (the
    matcher only reads), so the caller may safely abandon or retry. *)

val prepare : Database.t -> Rule.t -> Plan.t -> int
(** Ensure the hash indexes the rule's join positions will probe
    ({!Database.ensure_index} on each {!Plan.key_masks} mask); for an
    aggregating rule, those of its body.  {e Mutates the database}:
    call it after the inserts the match must see and before the match,
    or the probe finds a stale index and falls back to a full scan.
    Returns the number of indexes built or extended. *)

val match_rule :
  ?interrupt:(unit -> bool) ->
  ?delta:delta -> ?plan:Plan.t -> Database.t -> Rule.t -> match_result list
(** Matches of a non-aggregating rule.  With [delta], only matches
    using at least one delta fact are returned, and the join is seeded
    from the delta facts (semi-naive evaluation): one pass per join
    position whose seed predicate has delta facts, concatenated in
    position order.  [interrupt] is polled once per join node;
    answering [true] aborts the enumeration with {!Interrupted}.
    Raises [Invalid_argument] on aggregating rules. *)

val agg_body : Rule.t -> Rule.t
(** The rule an aggregating rule's contributors are matched from: the
    same body without the aggregate and without the conditions over the
    aggregate result, which only hold after grouping.  Raises
    [Invalid_argument] on non-aggregating rules. *)

val group : Rule.t -> match_result list -> agg_result list
(** Group the body matches of an aggregating rule (in match order) by
    its group variables, deduplicate contributors on their full
    binding, aggregate, and keep the groups that pass the deferred
    conditions.  Raises [Invalid_argument] on non-aggregating rules. *)

val match_agg_rule :
  ?interrupt:(unit -> bool) -> ?plan:Plan.t -> Database.t -> Rule.t -> agg_result list
(** Groups of an aggregating rule, conditions already enforced
    (including those over the aggregate result):
    [group r (match_rule (agg_body r))].  [interrupt] as in
    {!match_rule}.  Raises [Invalid_argument] on non-aggregating
    rules. *)
