(* Reference nested-loop matcher: the textbook homomorphism enumeration
   over boxed tuples, kept only as the oracle the hash-join engine
   ({!Ekg_engine.Matcher}) is tested against.  It visits candidate facts
   in ascending id order at every join position, so on the same plan it
   must produce the same match {e sequence} as the engine, not merely
   the same set.  Candidates are every fact of the predicate
   ([Database.all_of_pred]) filtered by [Subst.match_atom] on the stored
   values — never the interned ids, unique keys or column scans that
   the engine and [Database.matching] use, so the oracle shares no
   lookup code with the code under test. *)

open Ekg_datalog
open Ekg_engine

(* active facts the pattern maps onto under an extension of [subst],
   with the extended substitution, ascending id *)
let matching db (pattern : Atom.t) subst =
  let arity = List.length pattern.args in
  List.filter_map
    (fun (f : Fact.t) ->
      if Database.is_active db f.id && Array.length f.args = arity then
        Option.map (fun s -> (f, s)) (Subst.match_atom subst ~pattern f.args)
      else None)
    (Database.all_of_pred db pattern.pred)

(* Enumerate joins of the positive atoms in plan order (textual order
   when no plan is given); fully-bound conditions are checked as soon
   as possible to prune the search, negation once every positive atom
   matched.  [position_ok] restricts which facts may fill each join
   position (plan order): the hook for semi-naive delta seeding.
   [used_facts] is restored to body order regardless of the plan. *)
let raw_matches ?plan ?(position_ok = fun _ _ -> true) db (r : Rule.t) =
  let positives = Array.of_list (Rule.positive_atoms r) in
  let order =
    match plan with
    | Some (p : Plan.t) -> p.Plan.order
    | None -> Array.init (Array.length positives) Fun.id
  in
  let n = Array.length order in
  let negatives = Rule.negative_atoms r in
  let check_conditions subst =
    List.for_all
      (fun c -> Expr.eval_cmp (Subst.lookup subst) c <> Some false)
      r.conditions
  in
  (* [used] collects (body-atom index, fact id) pairs *)
  let restore_body_order used =
    List.sort (fun (i, _) (j, _) -> Int.compare i j) used |> List.map snd
  in
  let rec join pos subst used =
    if pos = n then begin
      (* all positive atoms matched: apply assignments in order *)
      let subst =
        List.fold_left
          (fun s (v, e) ->
            match Expr.eval (Subst.lookup s) e with
            | Some x -> Subst.bind s v x
            | None -> s)
          subst r.assignments
      in
      let all_hold =
        List.for_all
          (fun c -> Expr.eval_cmp (Subst.lookup subst) c = Some true)
          r.conditions
      in
      if not all_hold then []
      else if
        List.exists
          (fun (a : Atom.t) ->
            matching db (Subst.apply_atom subst a) subst <> [])
          negatives
      then []
      else
        [
          { Matcher.binding = subst; used_facts = restore_body_order used };
        ]
    end
    else begin
      let body_idx = order.(pos) in
      let atom = positives.(body_idx) in
      if not (check_conditions subst) then []
      else
        List.concat_map
          (fun ((f : Fact.t), subst') ->
            if position_ok pos f then join (pos + 1) subst' ((body_idx, f.id) :: used)
            else [])
          (matching db atom subst)
    end
  in
  join 0 Subst.empty []

(* Semi-naive evaluation, as [Matcher.match_rule ~delta]: the union over
   join positions k of passes whose k-th position is a delta fact and
   whose earlier positions are not, skipping positions whose seed
   predicate has no delta fact. *)
let match_rule ?delta ?plan db (r : Rule.t) =
  match delta with
  | None -> raw_matches ?plan db r
  | Some (d : Matcher.delta) ->
    let positives = Array.of_list (Rule.positive_atoms r) in
    let n = Array.length positives in
    let order =
      match plan with
      | Some (p : Plan.t) -> p.Plan.order
      | None -> Array.init n Fun.id
    in
    List.concat_map
      (fun k ->
        let seed = positives.(order.(k)) in
        match Database.pred_sym db seed.Atom.pred with
        | Some sym when d.has_pred sym ->
          let position_ok pos (f : Fact.t) =
            if pos = k then d.mem f.id
            else if pos < k then not (d.mem f.id)
            else true
          in
          raw_matches ?plan ~position_ok db r
        | Some _ | None -> [])
      (List.init n Fun.id)

let match_agg_rule ?plan db (r : Rule.t) =
  Matcher.group r (raw_matches ?plan db (Matcher.agg_body r))
