open Ekg_datalog

type answer = {
  facts : Fact.t list;
  derived_count : int;
  pruned : bool;
}

type specialized = {
  sp_pred : string;
  sp_mask : string;
  sp_goal : string;
  sp_seed_pred : string;
  sp_program : Program.t;
  sp_extra_seeds : Atom.t list;
  sp_renames : (string * string) list;
  sp_rule_origin : (string * string) list;
  sp_magic_preds : string list;
  sp_copy_rules : string list;
}

let adornment (a : Atom.t) =
  String.concat ""
    (List.map (function Term.Cst _ -> "b" | Term.Var _ -> "f") a.args)

let adorned_name pred ad = pred ^ "__" ^ ad
let magic_name pred ad = "m__" ^ pred ^ "__" ^ ad

(* binding pattern of an atom under a set of bound variables *)
let adornment_under bound (a : Atom.t) =
  String.concat ""
    (List.map
       (function
         | Term.Cst _ -> "b"
         | Term.Var v -> if List.mem v bound then "b" else "f")
       a.args)

let bound_args ad (a : Atom.t) =
  List.filteri (fun i _ -> ad.[i] = 'b') a.args

exception Unsupported of string

(* The magic fragment: everything but existential heads.  Negation is
   rewritten (the result may fail to stratify — the chase reports that
   and callers fall back); aggregates are demand-complete because the
   group variables of a demanded head are fixed by the magic join, so
   the restricted program still derives every contributor of every
   demanded group; constraints are demanded unconditionally so the
   scoped chase detects exactly the inconsistencies the full chase
   would. *)
let specialize (p : Program.t) ~pred ~mask =
  if pred = Chase.falsum then Error "cannot query the falsum predicate"
  else if not (List.mem pred (Program.preds p)) then
    Error ("unknown predicate in query: " ^ pred)
  else if not (Program.is_intensional p pred) then
    Error ("query predicate is extensional: " ^ pred)
  else begin
    let arity =
      match
        List.find_opt (fun (r : Rule.t) -> Rule.head_pred r = pred) p.rules
      with
      | Some r -> Atom.arity r.Rule.head
      | None -> 0
    in
    if String.length mask <> arity then
      Error
        (Printf.sprintf "mask %S does not match the arity of %s/%d" mask pred
           arity)
    else if String.exists (fun c -> c <> 'b' && c <> 'f') mask then
      Error ("mask must be over {b,f}: " ^ mask)
    else begin
      let idb = Program.idb_preds p in
      let is_idb q = List.mem q idb in
      let counter = ref 0 in
      let rule_origin = ref [] in
      let fresh_id base =
        incr counter;
        let id = Printf.sprintf "%s#m%d" base !counter in
        rule_origin := (id, base) :: !rule_origin;
        id
      in
      let out_rules = ref [] in
      let extra_seeds = ref [] in
      let renames = ref [] in
      let magic_preds = ref [] in
      let copy_rules = ref [] in
      let visited = Hashtbl.create 16 in
      let note_rename ad_name orig =
        if not (List.mem_assoc ad_name !renames) then
          renames := (ad_name, orig) :: !renames
      in
      let note_magic m =
        if not (List.mem m !magic_preds) then magic_preds := m :: !magic_preds
      in
      let rec demand dpred ad =
        if not (Hashtbl.mem visited (dpred, ad)) then begin
          Hashtbl.add visited (dpred, ad) ();
          note_rename (adorned_name dpred ad) dpred;
          note_magic (magic_name dpred ad);
          let rules = Program.rules_deriving p dpred in
          copy_edb dpred ad rules;
          List.iter (fun r -> adorn_rule r ad) rules
        end
      (* the EDB may hold facts of a derived predicate too: a copy rule
         moves the demanded ones into the adorned predicate.  It comes
         first, so a copied fact's first derivation is the copy, which
         {!unadorn_proof} drops — the fact is extensional in the full
         chase. *)
      and copy_edb dpred ad rules =
        let arity =
          match rules with r :: _ -> Atom.arity r.Rule.head | [] -> 0
        in
        let args = List.init arity (fun i -> Term.Var (Printf.sprintf "X%d" i)) in
        let source = Atom.make dpred args in
        let id = adorned_name dpred ad ^ "#edb" in
        copy_rules := id :: !copy_rules;
        out_rules :=
          Rule.make ~id
            ~body:
              [
                Rule.Pos (Atom.make (magic_name dpred ad) (bound_args ad source));
                Rule.Pos source;
              ]
            ~head:(Atom.make (adorned_name dpred ad) args)
            ()
          :: !out_rules
      (* emit the demand for a subgoal: a magic rule over the body
         prefix evaluated so far, or a ground seed when the demand is
         unconditional (a constraint rule whose first literal is
         intensional) *)
      and emit_demand ~prefix ~base_id (a : Atom.t) ad' =
        demand a.Atom.pred ad';
        let head = Atom.make (magic_name a.Atom.pred ad') (bound_args ad' a) in
        match List.rev prefix with
        | [] ->
          if Atom.is_ground head then begin
            if not (List.exists (Atom.equal head) !extra_seeds) then
              extra_seeds := head :: !extra_seeds
          end
          else
            raise
              (Unsupported
                 ("unconditional demand for " ^ a.Atom.pred
                ^ " binds variables without a supporting prefix"))
        | body ->
          out_rules := Rule.make ~id:(fresh_id base_id) ~body ~head () :: !out_rules
      and adorn_rule (r : Rule.t) ad =
        if Rule.existential_vars r <> [] then
          raise
            (Unsupported ("rule " ^ r.id ^ " has an existential head — the \
                           null's identity depends on chase order, so the \
                           scoped instance is not comparable"));
        let is_constraint = Rule.head_pred r = Chase.falsum in
        let computed =
          List.map fst r.assignments
          @ (match r.agg with Some a -> [ a.result ] | None -> [])
        in
        (* a bound head position backed by a computed variable would make
           the magic join constrain an aggregate/assignment output before
           the rule computes it *)
        if not is_constraint then
          List.iteri
            (fun i t ->
              match t with
              | Term.Var v when ad.[i] = 'b' && List.mem v computed ->
                raise
                  (Unsupported
                     ("rule " ^ r.id ^ " computes " ^ v
                    ^ ", which the query binds"))
              | Term.Var _ | Term.Cst _ -> ())
            r.head.Atom.args;
        (* variables bound on entry: the head's 'b' positions, excluding
           variables the rule itself computes *)
        let head_bound =
          List.concat
            (List.mapi
               (fun i t ->
                 match t with
                 | Term.Var v when ad.[i] = 'b' && not (List.mem v computed) ->
                   [ v ]
                 | Term.Var _ | Term.Cst _ -> [])
               r.head.Atom.args)
        in
        let magic_head_atom =
          if is_constraint then None
          else
            Some (Atom.make (magic_name (Rule.head_pred r) ad) (bound_args ad r.head))
        in
        let bound = ref head_bound in
        let prefix =
          ref (match magic_head_atom with Some m -> [ Rule.Pos m ] | None -> [])
        in
        let all_bound vs = List.for_all (fun v -> List.mem v !bound) vs in
        (* walk the body left to right, adorning intensional subgoals and
           emitting their demand; the running prefix is the
           sideways-information-passing context of each subgoal *)
        let new_body =
          List.map
            (fun lit ->
              match lit with
              | Rule.Pos a ->
                let lit' =
                  if is_idb a.Atom.pred then begin
                    let ad' = adornment_under !bound a in
                    emit_demand ~prefix:!prefix ~base_id:r.id a ad';
                    Rule.Pos (Atom.make (adorned_name a.Atom.pred ad') a.Atom.args)
                  end
                  else Rule.Pos a
                in
                bound := List.sort_uniq String.compare (Atom.vars a @ !bound);
                prefix := lit' :: !prefix;
                lit'
              | Rule.Not a ->
                let lit' =
                  if is_idb a.Atom.pred then begin
                    let ad' = adornment_under !bound a in
                    emit_demand ~prefix:!prefix ~base_id:r.id a ad';
                    Rule.Not (Atom.make (adorned_name a.Atom.pred ad') a.Atom.args)
                  end
                  else Rule.Not a
                in
                (* a negative literal narrows later demand only when its
                   variables are already bound (magic-rule safety) *)
                if all_bound (Atom.vars a) then prefix := lit' :: !prefix;
                lit')
            r.body
        in
        let new_head =
          if is_constraint then r.head
          else Atom.make (adorned_name (Rule.head_pred r) ad) r.head.Atom.args
        in
        let modified =
          {
            r with
            Rule.id = fresh_id r.id;
            head = new_head;
            body =
              (match magic_head_atom with
              | Some m -> Rule.Pos m :: new_body
              | None -> new_body);
          }
        in
        out_rules := modified :: !out_rules
      in
      try
        demand pred mask;
        (* constraints fire on the full instance, not the demanded
           slice: rewrite every falsum rule too, keeping its head, so
           the scoped chase rejects exactly the bases the full chase
           rejects *)
        List.iter
          (fun (r : Rule.t) ->
            if Rule.head_pred r = Chase.falsum then adorn_rule r "")
          p.rules;
        let program =
          Program.make ~goal:(adorned_name pred mask) (List.rev !out_rules)
        in
        match Program.validate program with
        | Ok () ->
          Ok
            {
              sp_pred = pred;
              sp_mask = mask;
              sp_goal = adorned_name pred mask;
              sp_seed_pred = magic_name pred mask;
              sp_program = program;
              sp_extra_seeds = List.rev !extra_seeds;
              sp_renames = !renames;
              sp_rule_origin = !rule_origin;
              sp_magic_preds = !magic_preds;
              sp_copy_rules = !copy_rules;
            }
        | Error es ->
          Error
            ("magic rewriting produced an invalid program: "
            ^ String.concat "; " es)
      with Unsupported msg -> Error msg
    end
  end

let scoped_program sp ~holds =
  let live (r : Rule.t) =
    (not (List.mem r.Rule.id sp.sp_copy_rules)) || List.exists holds (Rule.body_preds r)
  in
  let rules = sp.sp_program.Program.rules in
  if List.for_all live rules then sp.sp_program
  else Program.make ~goal:sp.sp_goal (List.filter live rules)

let seeds sp (query : Atom.t) =
  Atom.make sp.sp_seed_pred (bound_args sp.sp_mask query) :: sp.sp_extra_seeds

let goal_atom sp (query : Atom.t) = Atom.make sp.sp_goal query.Atom.args

let original_pred sp pred =
  match List.assoc_opt pred sp.sp_renames with Some orig -> orig | None -> pred

let original_fact sp (f : Fact.t) = { f with Fact.pred = original_pred sp f.Fact.pred }

let unadorn_proof sp (proof : Proof.t) =
  let is_magic p = List.mem p sp.sp_magic_preds in
  let orig_rule id =
    match List.assoc_opt id sp.sp_rule_origin with Some o -> o | None -> id
  in
  let steps =
    List.filter
      (fun (s : Proof.step) ->
        not
          (is_magic s.Proof.fact.Fact.pred
          || List.mem s.Proof.rule_id sp.sp_copy_rules))
      proof.Proof.steps
  in
  let steps =
    List.mapi
      (fun i (s : Proof.step) ->
        {
          s with
          Proof.index = i;
          rule_id = orig_rule s.Proof.rule_id;
          fact = original_fact sp s.Proof.fact;
          premises =
            List.filter_map
              (fun (f : Fact.t) ->
                if is_magic f.Fact.pred then None else Some (original_fact sp f))
              s.Proof.premises;
        })
      steps
  in
  { Proof.goal = original_fact sp proof.Proof.goal; steps }

let rewrite (p : Program.t) (query : Atom.t) =
  match specialize p ~pred:query.Atom.pred ~mask:(adornment query) with
  | Error _ as e -> e
  | Ok sp -> Ok (sp.sp_program, seeds sp query)

let answer (p : Program.t) edb (query : Atom.t) =
  let full () =
    match Chase.run p edb with
    | Error e -> Error e
    | Ok res ->
      Ok
        {
          facts = List.map fst (Query.ask res.db query);
          derived_count = res.derived_count;
          pruned = false;
        }
  in
  match specialize p ~pred:query.Atom.pred ~mask:(adornment query) with
  | Error _ -> full ()
  | Ok sp -> (
    match Chase.run_checked sp.sp_program (edb @ seeds sp query) with
    | Error (Chase.Unstratifiable _) ->
      (* the rewrite broke the stratification the source program had;
         goal-direction is not available for this query shape *)
      full ()
    | Error err -> Error (Chase.error_to_string err)
    | Ok res ->
      let facts =
        Query.ask res.db (goal_atom sp query)
        |> List.map (fun ((f : Fact.t), _) -> original_fact sp f)
      in
      Ok { facts; derived_count = res.derived_count; pruned = true })
