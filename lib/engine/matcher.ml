open Ekg_kernel
open Ekg_datalog

type match_result = {
  binding : Subst.t;
  used_facts : int list;
}

type agg_result = {
  group_binding : Subst.t;
  value : Value.t;
  contributors : Provenance.contributor list;
}

exception Interrupted

type delta = {
  mem : int -> bool;      (** fact id in the previous round's delta *)
  has_pred : int -> bool; (** some delta fact has this predicate symbol *)
}

(* --- hash-join evaluation ----------------------------------------------------

   Build/probe evaluation over the database's columnar storage: the
   planner's atom order is a left-deep pipelined join, and at each join
   position the matcher probes a multi-column hash index on the key
   columns bound so far ({!Plan.key_masks}) instead of scanning every
   row.  Bindings live in a dense int array of interned value ids;
   [Subst.t] is only materialized per {e emitted} match.

   The enumeration visits candidate rows in ascending row order (bucket
   rows are ascending, scans are ascending), which is ascending fact-id
   order: the order of a textbook nested-loop matcher over the same
   plan.  The test suite keeps such a matcher as the reference oracle
   and checks that both produce the same match {e sequence}, so fact
   ids, labelled nulls and provenance do not depend on the engine. *)

type arg_spec =
  | SConst of int  (* interned value id; -1 when the value is not in the db *)
  | SVar of int    (* dense binding slot *)

type node = {
  nd_atom : Atom.t;
  nd_sym : int;     (* -1 when the predicate has no facts *)
  nd_arity : int;
  nd_group : Database.Cols.group option;
  nd_specs : arg_spec array;
  nd_mask : int;         (* key columns: Plan.key_masks for this position *)
  nd_keycols : int array;
  nd_impossible : bool;  (* a constant argument's value is not in the db *)
}

let cols_of_mask arity mask =
  let cols = ref [] in
  for i = min 59 (arity - 1) downto 0 do
    if mask land (1 lsl i) <> 0 then cols := i :: !cols
  done;
  Array.of_list !cols

(* Compile the rule body to per-position probe specs.  [slots] maps
   variable names to dense binding slots; key masks come from the
   planner so build/probe columns and index preparation agree. *)
let compile_nodes db (r : Rule.t) order =
  let positives = Array.of_list (Rule.positive_atoms r) in
  let masks = Plan.key_masks r { Plan.order; reordered = false } in
  let slots = Hashtbl.create 16 in
  let slot v =
    match Hashtbl.find_opt slots v with
    | Some s -> s
    | None ->
      let s = Hashtbl.length slots in
      Hashtbl.add slots v s;
      s
  in
  let nodes =
    Array.mapi
      (fun pos body_idx ->
        let a = positives.(body_idx) in
        let specs =
          Array.of_list
            (List.map
               (function
                 | Term.Cst c -> SConst (Database.value_id db c)
                 | Term.Var v -> SVar (slot v))
               a.Atom.args)
        in
        let arity = Array.length specs in
        let sym =
          match Database.pred_sym db a.Atom.pred with Some s -> s | None -> -1
        in
        let group =
          if sym < 0 then None else Database.Cols.find db ~sym ~arity
        in
        {
          nd_atom = a;
          nd_sym = sym;
          nd_arity = arity;
          nd_group = group;
          nd_specs = specs;
          nd_mask = masks.(pos);
          nd_keycols = cols_of_mask arity masks.(pos);
          nd_impossible =
            Array.exists (function SConst -1 -> true | _ -> false) specs;
        })
      order
  in
  (nodes, Hashtbl.length slots, slots)

(* join position -> body-atom index; textual order without a plan *)
let plan_order plan n =
  match plan with
  | Some (p : Plan.t) -> p.Plan.order
  | None -> Array.init n Fun.id

(* One pass of the hash engine.  [delta_seed = Some (d, k)] restricts
   join position k to delta facts and earlier positions to non-delta
   facts: one seed pass of semi-naive evaluation. *)
let hash_matches ?interrupt ?plan ?delta_seed db (r : Rule.t) =
  let positives = Array.of_list (Rule.positive_atoms r) in
  let n = Array.length positives in
  let order = plan_order plan n in
  let nodes, nslots, slots = compile_nodes db r order in
  (* resolve each node's index handle once: rows cannot be appended
     during a match pass, so freshness checked here holds throughout *)
  let handles =
    Array.map
      (fun nd ->
        match nd.nd_group with
        | Some g when nd.nd_mask <> 0 -> Database.index_handle g ~mask:nd.nd_mask
        | _ -> None)
      nodes
  in
  let negatives = Rule.negative_atoms r in
  (* no deactivations can happen during a pure-read match pass *)
  let live_all = Database.all_active db in
  let pos_of_body = Array.make (max 1 n) 0 in
  Array.iteri (fun pos b -> pos_of_body.(b) <- pos) order;
  let mem, seed_pos =
    match delta_seed with
    | Some (d, k) -> (d.mem, k)
    | None -> ((fun _ -> false), -1)
  in
  let vals = Array.make (max 1 nslots) (-1) in
  let facts = Array.make (max 1 n) (-1) in
  (* condition lookup over the dense binding: verdicts only — values
     compare through [Value.compare], which identifies every member of
     an interning class, so the class representative is sufficient *)
  let lookup name =
    match Hashtbl.find_opt slots name with
    | Some s when vals.(s) >= 0 -> Some (Database.value_of_id db vals.(s))
    | Some _ | None -> None
  in
  let conditions_ok () =
    List.for_all (fun c -> Expr.eval_cmp lookup c <> Some false) r.conditions
  in
  let check =
    match interrupt with
    | None -> None
    | Some f -> Some (fun () -> if f () then raise Interrupted)
  in
  let out = ref [] in
  let has_conditions = r.conditions <> [] in
  (* Per position, the (variable, argument index) pairs first bound
     there in plan order — [emit] binds each variable exactly once,
     from the matched fact's own argument array. *)
  let binders =
    let seen = Hashtbl.create 16 in
    Array.map
      (fun (nd : node) ->
        List.rev
          (snd
             (List.fold_left
                (fun (i, acc) (t : Term.t) ->
                  match t with
                  | Term.Var v when not (Hashtbl.mem seen v) ->
                    Hashtbl.add seen v ();
                    (i + 1, (v, i) :: acc)
                  | Term.Var _ | Term.Cst _ -> (i + 1, acc))
                (0, []) nd.nd_atom.Atom.args)))
      nodes
  in
  let undos = Array.map (fun (nd : node) -> Array.make (max 1 nd.nd_arity) 0) nodes in
  let emit () =
    (* Reconstruct θ from the facts: each variable's value comes from
       the {e fact} that first bound it in plan order (the matched
       tuple's own representation, not the interning representative),
       so head instantiation and rendering see the stored values. *)
    let subst = ref Subst.empty in
    for pos = 0 to n - 1 do
      match binders.(pos) with
      | [] -> ()
      | bs ->
        let f = Database.fact db facts.(pos) in
        List.iter
          (fun (v, i) -> subst := Subst.bind !subst v f.Fact.args.(i))
          bs
    done;
    let subst =
      if r.assignments = [] then !subst
      else
        List.fold_left
          (fun s (v, e) ->
            match Expr.eval (Subst.lookup s) e with
            | Some x -> Subst.bind s v x
            | None -> s)
          !subst r.assignments
    in
    let all_hold =
      r.conditions = []
      || List.for_all
           (fun c -> Expr.eval_cmp (Subst.lookup subst) c = Some true)
           r.conditions
    in
    if
      all_hold
      && (negatives = []
         || not
              (List.exists
                 (fun (a : Atom.t) ->
                   Database.exists_matching db (Subst.apply_atom subst a) subst)
                 negatives))
    then begin
      let used = ref [] in
      for b = n - 1 downto 0 do
        used := facts.(pos_of_body.(b)) :: !used
      done;
      out := { binding = subst; used_facts = !used } :: !out
    end
  in
  (* The join loop proper.  Everything per-partial is preallocated —
     per-position undo arrays, binding slots, fact cursors — so
     descending a node costs zero allocations; only emitted matches
     allocate.  Intermediate condition pruning is an optimization only
     ([emit] re-checks every condition), so guarding it on the rule
     having conditions at all cannot change the match sequence. *)
  let rec node pos =
    (match check with None -> () | Some c -> c ());
    if pos = n then emit ()
    else begin
      let nd = nodes.(pos) in
      if has_conditions && not (conditions_ok ()) then ()
      else if nd.nd_impossible then ()
      else
        match nd.nd_group with
        | None -> ()
        | Some g ->
          if nd.nd_mask = 0 then scan pos nd g
          else begin
            match handles.(pos) with
            | None -> scan pos nd g (* index missing/stale *)
            | Some ix ->
              (* fold the bound key columns into the probe hash *)
              let keycols = nd.nd_keycols in
              let specs = nd.nd_specs in
              let h = ref 0 in
              let valid = ref true in
              for j = 0 to Array.length keycols - 1 do
                let vid =
                  match specs.(keycols.(j)) with
                  | SConst v -> v
                  | SVar s -> vals.(s)
                in
                if vid < 0 then valid := false
                else h := Database.key_hash_add !h vid
              done;
              if not !valid then scan pos nd g
              else begin
                let bucket = Database.probe_handle ix ~hash:!h in
                for bi = 0 to Intvec.length bucket - 1 do
                  try_row pos nd g (Intvec.unsafe_get bucket bi)
                done
              end
          end
    end
  and scan pos nd g =
    for row = 0 to Database.Cols.rows g - 1 do
      try_row pos nd g row
    done
  and try_row pos (nd : node) g row =
    let fid = Database.Cols.fact_id g row in
    let kok =
      seed_pos < 0
      || (if pos = seed_pos then mem fid
          else if pos < seed_pos then not (mem fid)
          else true)
    in
    if kok && (live_all || Database.is_active db fid) then begin
      let specs = nd.nd_specs in
      let arity = nd.nd_arity in
      let undo = undos.(pos) in
      let nundo = ref 0 in
      let ok = ref true in
      let i = ref 0 in
      while !ok && !i < arity do
        let vid = Database.Cols.col g !i row in
        (match specs.(!i) with
        | SConst c -> if c <> vid then ok := false
        | SVar s ->
          let cur = vals.(s) in
          if cur >= 0 then begin
            if cur <> vid then ok := false
          end
          else begin
            vals.(s) <- vid;
            undo.(!nundo) <- s;
            incr nundo
          end);
        incr i
      done;
      if !ok then begin
        facts.(pos) <- fid;
        node (pos + 1)
      end;
      for j = 0 to !nundo - 1 do
        vals.(undo.(j)) <- -1
      done
    end
  in
  node 0;
  List.rev !out

(* Ensure the hash indexes every join position will probe, so the
   match pass itself never builds.  Returns the number of indexes that
   did extension work: the chase's [join_builds] counter. *)
let prepare db (r : Rule.t) (plan : Plan.t) =
  let nodes, _, _ = compile_nodes db r plan.Plan.order in
  Array.fold_left
    (fun acc nd ->
      if
        nd.nd_mask <> 0 && nd.nd_sym >= 0
        && Database.ensure_index db ~sym:nd.nd_sym ~arity:nd.nd_arity
             ~mask:nd.nd_mask
           > 0
      then acc + 1
      else acc)
    0 nodes

(* Semi-naive evaluation: the union over k of passes whose k-th join
   position is a delta fact while earlier positions are non-delta, so
   each new match is produced exactly once.  Positions follow the
   evaluation plan; the decomposition is valid over any fixed order.
   Passes whose seed predicate has no delta fact are skipped outright,
   by interned symbol (no string hashing). *)
let match_rule ?interrupt ?delta ?plan db (r : Rule.t) =
  if Rule.has_agg r then invalid_arg "Matcher.match_rule: aggregating rule";
  match delta with
  | None -> hash_matches ?interrupt ?plan db r
  | Some d ->
    let positives = Array.of_list (Rule.positive_atoms r) in
    let n = Array.length positives in
    let order = plan_order plan n in
    List.concat_map
      (fun k ->
        let seed = positives.(order.(k)) in
        match Database.pred_sym db seed.Atom.pred with
        | Some sym when d.has_pred sym ->
          hash_matches ?interrupt ?plan ~delta_seed:(d, k) db r
        | Some _ | None -> [])
      (List.init n Fun.id)

(* --- aggregation ------------------------------------------------------- *)

module GroupKey = struct
  type t = Value.t list

  let compare = List.compare Value.compare
end

module GroupMap = Map.Make (GroupKey)

let aggregate (func : Rule.agg_func) values =
  match values with
  | [] -> None
  | v :: rest ->
    Some
      (match func with
      | Rule.Sum -> List.fold_left Value.add v rest
      | Rule.Prod -> List.fold_left Value.mul v rest
      | Rule.Min -> List.fold_left Value.min_v v rest
      | Rule.Max -> List.fold_left Value.max_v v rest
      | Rule.Count -> Value.int (1 + List.length rest))

(* Conditions over the aggregate result hold only after grouping. *)
let depends_on_result (r : Rule.t) c =
  match r.agg with
  | Some agg -> List.mem agg.result (Expr.cmp_vars c)
  | None -> false

let agg_body (r : Rule.t) =
  if not (Rule.has_agg r) then invalid_arg "Matcher.agg_body: non-aggregating rule";
  {
    r with
    conditions = List.filter (fun c -> not (depends_on_result r c)) r.conditions;
    agg = None;
  }

let group (r : Rule.t) matches =
  match r.agg with
  | None -> invalid_arg "Matcher.group: non-aggregating rule"
  | Some agg ->
    let group_vars = Rule.group_vars r in
    (* Deduplicate contributors on their full binding: set semantics of
       monotonic aggregation over witness homomorphisms. *)
    let groups =
      List.fold_left
        (fun acc m ->
          let key =
            List.map
              (fun v ->
                match Subst.find m.binding v with
                | Some x -> x
                | None -> Value.str "?")
              group_vars
          in
          let existing = match GroupMap.find_opt key acc with Some l -> l | None -> [] in
          if List.exists (fun m' -> Subst.equal m'.binding m.binding) existing then acc
          else GroupMap.add key (m :: existing) acc)
        GroupMap.empty matches
    in
    let deferred = List.filter (depends_on_result r) r.conditions in
    (* Variables bound to the same value by every contributor (such as
       the creditor's capital in the stress test's σ7) extend the group
       binding: deferred conditions and the head may mention them. *)
    let common_bindings members =
      match members with
      | [] -> Subst.empty
      | first :: rest ->
        List.fold_left
          (fun acc (v, x) ->
            if
              List.for_all
                (fun m ->
                  match Subst.find m.binding v with
                  | Some y -> Value.equal x y
                  | None -> false)
                rest
            then Subst.bind acc v x
            else acc)
          Subst.empty
          (Subst.to_list first.binding)
    in
    GroupMap.fold
      (fun key members acc ->
        let members = List.rev members in
        let inputs =
          List.filter_map (fun m -> Expr.eval (Subst.lookup m.binding) agg.input) members
        in
        match aggregate agg.func inputs with
        | None -> acc
        | Some value ->
          let group_binding =
            List.fold_left2
              (fun s v x -> Subst.bind s v x)
              (Subst.bind (common_bindings members) agg.result value)
              group_vars key
          in
          let ok =
            List.for_all
              (fun c -> Expr.eval_cmp (Subst.lookup group_binding) c = Some true)
              deferred
          in
          if not ok then acc
          else begin
            let contributors =
              List.map
                (fun m -> { Provenance.facts = m.used_facts; binding = m.binding })
                members
            in
            { group_binding; value; contributors } :: acc
          end)
      groups []
    |> List.rev

let match_agg_rule ?interrupt ?plan db r =
  group r (match_rule ?interrupt ?plan db (agg_body r))
