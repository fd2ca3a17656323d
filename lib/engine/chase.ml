open Ekg_kernel
open Ekg_datalog

type rule_stat = {
  rule_id : string;
  stratum : int;
  time_s : float;
  evals : int;
  facts : int;
  build_s : float;
  probe_s : float;
  insert_s : float;
}

type round_stat = {
  stratum : int;
  round : int;
  delta_size : int;
  new_facts : int;
  time_s : float;
}

type stats = {
  per_rule : rule_stat list;
  per_round : round_stat list;
  rounds_per_stratum : int list;
  agg_superseded : int;
  wall_s : float;
  plan_reorders : int;
  join_builds : int;
  join_probe_hits : int;
}

type result = {
  db : Database.t;
  prov : Provenance.t;
  rounds : int;
  derived_count : int;
  stats : stats option;
}

let falsum = "false"

type state = {
  db : Database.t;
  prov : Provenance.t;
  (* current materialized aggregate fact per (rule id, group key) *)
  agg_current : (string * Value.t list, int) Hashtbl.t;
  mutable derived : int;
  mutable superseded : int;  (* stale aggregate facts deactivated *)
}

(* [existentials] is [Rule.existential_vars r], hoisted by callers so
   per-match insertion does not recompute it (it walks the whole body). *)
let instantiate_head st ~existentials (r : Rule.t) binding =
  let nulls = if existentials = [] then None else Some (Hashtbl.create 4) in
  let resolve (t : Term.t) =
    match t with
    | Term.Cst c -> Some c
    | Term.Var v -> (
      match Subst.find binding v with
      | Some x -> Some x
      | None -> (
        match nulls with
        | Some nulls when List.mem v existentials -> (
          match Hashtbl.find_opt nulls v with
          | Some n -> Some n
          | None ->
            let n = Database.fresh_null st.db in
            Hashtbl.add nulls v n;
            Some n)
        | _ -> None))
  in
  let args = List.map resolve r.head.Atom.args in
  if List.exists Option.is_none args then None
  else Some (Array.of_list (List.map Option.get args))

(* Restricted-chase preemption (§5: "application of chase steps that
   generate facts isomorphic to facts already in the chase is
   pre-empted"): skip an existential head when the database already
   holds a fact the instantiated non-existential positions map onto
   homomorphically — constants must agree, labelled nulls may map to
   any value (consistently), existential positions are unconstrained.
   Treating nulls as mappable is what terminates recursive existential
   chains such as person → hasParent → person. *)
let isomorphic_exists st ~existentials (r : Rule.t) binding =
  if existentials = [] then false
  else begin
    (* per head position: [`Const c], [`Null n] or [`Free] *)
    let shape =
      List.map
        (fun (t : Term.t) ->
          match t with
          | Term.Cst (Value.Null _ as n) -> `Null n
          | Term.Cst c -> `Const c
          | Term.Var v -> (
            match Subst.find binding v with
            | Some (Value.Null _ as n) -> `Null n
            | Some c -> `Const c
            | None -> `Free))
        r.head.Atom.args
    in
    let homomorphic (f : Fact.t) =
      let mapping = Hashtbl.create 4 in
      let ok = ref true in
      List.iteri
        (fun i s ->
          if !ok then
            match s with
            | `Free -> ()
            | `Const c -> if not (Value.equal c f.args.(i)) then ok := false
            | `Null n -> (
              match Hashtbl.find_opt mapping n with
              | Some v -> if not (Value.equal v f.args.(i)) then ok := false
              | None -> Hashtbl.add mapping n f.args.(i)))
        shape;
      !ok
    in
    List.exists homomorphic (Database.active st.db (Rule.head_pred r))
  end

(* The insert phase of a round: admit one plain rule's matches, in
   match order.  This is the only place fact ids, labelled nulls and
   provenance records are allocated for plain rules. *)
(* [used_facts] is usually already strictly ascending (body atoms often
   match facts in insertion order); detect that without allocating
   before falling back to a sort *)
let rec strictly_ascending = function
  | (a : int) :: (b :: _ as tl) -> a < b && strictly_ascending tl
  | _ -> true

let insert_plain_matches st ~round (r : Rule.t) matches =
  let existentials = Rule.existential_vars r in
  List.filter_map
    (fun (m : Matcher.match_result) ->
      if isomorphic_exists st ~existentials r m.binding then None
      else
        match instantiate_head st ~existentials r m.binding with
        | None -> None
        | Some tuple -> (
          let derivation =
            {
              Provenance.rule_id = r.id;
              premises =
                (if strictly_ascending m.used_facts then m.used_facts
                 else List.sort_uniq Int.compare m.used_facts);
              binding = m.binding;
              contributors = [];
              round;
            }
          in
          match Database.add st.db (Rule.head_pred r) tuple with
          | `Existing f ->
            (* an alternative derivation of a known fact: keep it for
               shortest-proof selection, but it is not a new fact —
               provided it is not circular (premises must precede) *)
            if
              (not (Provenance.is_edb st.prov f.Fact.id))
              && List.for_all (fun p -> p < f.Fact.id) derivation.premises
            then Provenance.record st.prov ~fact_id:f.Fact.id derivation;
            None
          | `Added f ->
            st.derived <- st.derived + 1;
            Provenance.record st.prov ~fact_id:f.Fact.id derivation;
            Some f.Fact.id))
    matches

let insert_agg_groups st ~round (r : Rule.t) groups =
  let existentials = Rule.existential_vars r in
  List.filter_map
    (fun (g : Matcher.agg_result) ->
      match instantiate_head st ~existentials r g.group_binding with
      | None -> None
      | Some tuple -> (
        let group_key =
          List.map
            (fun v ->
              match Subst.find g.group_binding v with
              | Some x -> x
              | None -> Value.str "?")
            (Rule.group_vars r)
        in
        let reg_key = (r.id, group_key) in
        let previous = Hashtbl.find_opt st.agg_current reg_key in
        match Database.add st.db (Rule.head_pred r) tuple with
        | `Existing f ->
          (* The group's tuple is unchanged (e.g. the aggregate does not
             appear in the head): nothing new this round. *)
          if previous = None then Hashtbl.replace st.agg_current reg_key f.Fact.id;
          None
        | `Added f ->
          st.derived <- st.derived + 1;
          let premises =
            List.concat_map (fun (c : Provenance.contributor) -> c.facts) g.contributors
            |> List.sort_uniq Int.compare
          in
          Provenance.record st.prov ~fact_id:f.Fact.id
            {
              Provenance.rule_id = r.id;
              premises;
              binding = g.group_binding;
              contributors = g.contributors;
              round;
            };
          (match previous with
          | Some old_id when old_id <> f.Fact.id ->
            (* stale monotonic aggregate: supersede it *)
            Database.deactivate st.db old_id;
            st.superseded <- st.superseded + 1;
            Provenance.record_superseded st.prov ~old_fact:old_id ~by:f.Fact.id
          | Some _ | None -> ());
          Hashtbl.replace st.agg_current reg_key f.Fact.id;
          Some f.Fact.id))
    groups

type divergence = {
  max_rounds : int;
  stratum_rounds : int list;
}

(* --- budgets ------------------------------------------------------------ *)

type budget = {
  deadline_s : float option;
  budget_rounds : int option;
  budget_facts : int option;
  cancel : (unit -> bool) option;
}

let unlimited =
  { deadline_s = None; budget_rounds = None; budget_facts = None; cancel = None }

let budget ?deadline_s ?rounds ?facts ?cancel () =
  { deadline_s; budget_rounds = rounds; budget_facts = facts; cancel }

let within_ms ms =
  { unlimited with deadline_s = Some (Ekg_obs.Clock.now_s () +. (ms /. 1000.)) }

type partial = {
  partial_rounds : int;
  partial_derived : int;
  partial_wall_s : float;
  partial_stratum_rounds : int list;
}

type exhausted = [ `Deadline | `Facts | `Rounds ]

type error =
  | Invalid_program of string list
  | Unstratifiable of string
  | Invalid_edb of string
  | Divergent of divergence
  | Inconsistent of string
  | Unknown_fact of string
  | Budget_exceeded of exhausted * partial
  | Cancelled of partial

let partial_to_string p =
  Printf.sprintf "%d rounds, %d facts derived, %.1f ms elapsed"
    p.partial_rounds p.partial_derived (p.partial_wall_s *. 1000.)

let error_to_string = function
  | Invalid_program es -> String.concat "; " es
  | Unstratifiable e -> e
  | Invalid_edb e -> e
  | Divergent { max_rounds; stratum_rounds } ->
    let detail =
      match stratum_rounds with
      | [] -> ""
      | rs ->
        Printf.sprintf " (rounds per stratum: %s)"
          (String.concat ", "
             (List.mapi (fun i n -> Printf.sprintf "#%d=%d" (i + 1) n) rs))
    in
    Printf.sprintf "chase did not terminate within %d rounds%s" max_rounds detail
  | Inconsistent detail -> detail
  | Unknown_fact detail -> detail
  | Budget_exceeded (resource, p) ->
    let what =
      match resource with
      | `Deadline -> "wall-clock deadline"
      | `Facts -> "derived-fact budget"
      | `Rounds -> "round budget"
    in
    Printf.sprintf "chase exceeded its %s (%s)" what (partial_to_string p)
  | Cancelled p -> Printf.sprintf "chase cancelled (%s)" (partial_to_string p)

let client_error = function
  | Invalid_program _ | Unstratifiable _ | Invalid_edb _ | Inconsistent _
  | Unknown_fact _ ->
    true
  | Divergent _ | Budget_exceeded _ | Cancelled _ -> false

(* per-rule profiling accumulator, live only when a stats sink is on *)
type rule_acc = {
  acc_rule : string;
  acc_stratum : int;
  mutable acc_time : float;
  mutable acc_evals : int;
  mutable acc_facts : int;
  mutable acc_build : float;   (* index preparation *)
  mutable acc_probe : float;   (* match phase: probe, plus grouping for aggregates *)
  mutable acc_insert : float;  (* insertion *)
}

let push_stats sink ~rounds ~derived (s : stats) =
  let open Ekg_obs in
  Metrics.incr sink ~help:"Chase materializations completed" "ekg_chase_runs_total";
  Metrics.add sink ~help:"Fixpoint rounds executed" "ekg_chase_rounds_total"
    (float_of_int rounds);
  Metrics.add sink ~help:"Facts derived beyond the EDB"
    "ekg_chase_facts_derived_total" (float_of_int derived);
  Metrics.add sink ~help:"Stale monotonic-aggregate facts superseded"
    "ekg_chase_agg_superseded_total" (float_of_int s.agg_superseded);
  Metrics.add sink ~help:"Chase wall-clock seconds" "ekg_chase_seconds_total"
    s.wall_s;
  Metrics.add sink
    ~help:"Join plans that deviated from textual body order"
    "ekg_chase_plan_reorders_total" (float_of_int s.plan_reorders);
  Metrics.add sink
    ~help:"Hash-join indexes built or extended before match phases"
    "ekg_chase_join_builds_total" (float_of_int s.join_builds);
  Metrics.add sink
    ~help:"Matches emitted by the join probe phase"
    "ekg_chase_join_probe_hits_total" (float_of_int s.join_probe_hits);
  List.iter
    (fun (r : rule_stat) ->
      if r.build_s > 0. then
        Metrics.observe sink ~help:"Per-rule index build seconds per chase"
          "ekg_chase_join_build_seconds" r.build_s;
      Metrics.observe sink ~help:"Per-rule probe (match-phase) seconds per chase"
        "ekg_chase_join_probe_seconds" r.probe_s)
    s.per_rule;
  List.iter
    (fun (r : rule_stat) ->
      let labels =
        [ ("rule", r.rule_id); ("stratum", string_of_int r.stratum) ]
      in
      Metrics.add sink ~help:"Evaluation seconds per rule"
        ~labels "ekg_chase_rule_seconds_total" r.time_s;
      Metrics.add sink ~help:"Facts derived per rule" ~labels
        "ekg_chase_rule_facts_total" (float_of_int r.facts))
    s.per_rule

(* Round protocol:

   1. {e Plan}: recompile every rule's join plan from the live
      cardinalities, and ensure the indexes the plain rules will probe.
   2. {e Match}: evaluate every plain rule (every semi-naive seed pass)
      against the pre-round database.
   3. {e Insert}: admit the matches in rule order, then run aggregate
      rules one by one, each ensuring its indexes, matching and
      inserting in turn, so it sees the round's earlier insertions.
      All fact ids, nulls and provenance records are allocated here, in
      this fixed order. *)
let run_store ?(naive = false) ?(max_rounds = 100_000) ?(budget = unlimited)
    ?stats ?obs ?parent (program : Program.t) db =
  match Program.validate program with
  | Error es -> Error (Invalid_program es)
  | Ok () -> (
    match Stratify.strata program with
    | Error e -> Error (Unstratifiable e)
    | Ok strata -> (
      (* a disabled (noop) sink disables collection outright: the hot
         path pays one branch, no clock reads, no accumulators *)
      let collect =
        match stats with
        | Some sink -> Ekg_obs.Metrics.enabled sink
        | None -> false
      in
      let budget_active =
        Option.is_some budget.deadline_s
        || Option.is_some budget.budget_rounds
        || Option.is_some budget.budget_facts
        || Option.is_some budget.cancel
      in
      let t_start =
        if collect || budget_active then Ekg_obs.Clock.now_s () else 0.
      in
      let st =
        {
          db;
          prov = Provenance.create ();
          agg_current = Hashtbl.create 64;
          derived = 0;
          superseded = 0;
        }
      in
      let total_rounds = ref 0 in
      let overflow = ref false in
      let plan_reorders = ref 0 in
      let stratum_rounds = Array.make (max 1 (List.length strata)) 0 in
      (* Budget machinery.  [stop] is the one flag both the round
         loop and the in-match interrupt hook observe: the first
         check that trips it wins.  When no budget is set, the
         per-round check is four [None] matches and the matcher hook
         is absent, so the unlimited run does no budget work. *)
      let stop : [ `Cancelled | `Deadline | `Facts | `Rounds ] option ref =
        ref None
      in
      let trip r =
        if !stop = None then stop := Some r;
        true
      in
      let poll_cancel () =
        match budget.cancel with Some f -> f () | None -> false
      in
      let past_deadline () =
        match budget.deadline_s with
        | Some d -> Ekg_obs.Clock.now_s () > d
        | None -> false
      in
      let check_budget () =
        !stop <> None
        ||
        if poll_cancel () then trip `Cancelled
        else if past_deadline () then trip `Deadline
        else if
          match budget.budget_facts with
          | Some m -> st.derived >= m
          | None -> false
        then trip `Facts
        else if
          match budget.budget_rounds with
          | Some m -> !total_rounds >= m
          | None -> false
        then trip `Rounds
        else false
      in
      (* Polled once per join node; the clock and cancel hook are
         only consulted every 4096 nodes. *)
      let interrupt =
        if budget.deadline_s = None && Option.is_none budget.cancel then None
        else begin
          let tick = ref 0 in
          Some
            (fun () ->
              !stop <> None
              || begin
                   incr tick;
                   !tick land 4095 = 0
                   &&
                   if poll_cancel () then trip `Cancelled
                   else if past_deadline () then trip `Deadline
                   else false
                 end)
        end
      in
      let accs = ref [] in       (* rule_acc, reverse creation order *)
      let round_log = ref [] in  (* round_stat, reverse execution order *)
      let join_builds = ref 0 in
      let join_probe_hits = ref 0 in
      let run_stratum si rules =
        let plain = List.filter (fun r -> not (Rule.has_agg r)) rules in
        let agg = List.filter Rule.has_agg rules in
        let with_acc rs =
          List.map
            (fun (r : Rule.t) ->
              if not collect then (r, None)
              else begin
                let a =
                  {
                    acc_rule = r.id;
                    acc_stratum = si;
                    acc_time = 0.;
                    acc_evals = 0;
                    acc_facts = 0;
                    acc_build = 0.;
                    acc_probe = 0.;
                    acc_insert = 0.;
                  }
                in
                accs := a :: !accs;
                (r, Some a)
              end)
            rs
        in
        let plain = with_acc plain in
        let agg = with_acc agg in
        let now () = if collect then Ekg_obs.Clock.now_s () else 0. in
        (* [time_s] is match plus insert time; [evals] counts insert
           phases, one per round *)
        let charge_build acc t0 n =
          if collect then begin
            join_builds := !join_builds + n;
            match acc with
            | Some a ->
              a.acc_build <- a.acc_build +. (Ekg_obs.Clock.now_s () -. t0)
            | None -> ()
          end
        in
        let charge_probe acc dt matches =
          if collect then begin
            join_probe_hits := !join_probe_hits + List.length matches;
            match acc with
            | Some a ->
              a.acc_probe <- a.acc_probe +. dt;
              a.acc_time <- a.acc_time +. dt
            | None -> ()
          end
        in
        let charge_insert acc t0 nfacts =
          match acc with
          | Some a when collect ->
            let dt = Ekg_obs.Clock.now_s () -. t0 in
            a.acc_insert <- a.acc_insert +. dt;
            a.acc_time <- a.acc_time +. dt;
            a.acc_evals <- a.acc_evals + 1;
            a.acc_facts <- a.acc_facts + nfacts
          | Some _ | None -> ()
        in
        (* [None] means "first round": evaluate in full.  The delta
           carries its length, so per-round stats are O(1) instead of
           a [List.length] walk over the whole delta every round. *)
        let delta = ref None in
        let continue = ref true in
        while !continue && not !overflow && !stop = None do
          if budget_active && check_budget () then ()
          else begin
            incr total_rounds;
            if !total_rounds > max_rounds then overflow := true
            else begin
              try
            stratum_rounds.(si) <- stratum_rounds.(si) + 1;
            let round = !total_rounds in
            let round_t0 = now () in
            let delta_size =
              match !delta with None -> 0 | Some (_, n) -> n
            in
            let delta_filter =
              if naive then None
              else
                match !delta with
                | None -> None
                | Some (ids, n) ->
                  let set = Hashtbl.create (max 8 n) in
                  let preds = Hashtbl.create 8 in
                  List.iter
                    (fun i ->
                      Hashtbl.replace set i ();
                      Hashtbl.replace preds (Database.pred_sym_of_fact st.db i) ())
                    ids;
                  Some { Matcher.mem = Hashtbl.mem set; has_pred = Hashtbl.mem preds }
            in
            let card = Database.pred_card st.db in
            let planned rs =
              List.map
                (fun (r, acc) ->
                  let plan = Plan.compile ~card r in
                  if plan.Plan.reordered then incr plan_reorders;
                  (r, acc, plan))
                rs
            in
            let plain = planned plain in
            let agg = planned agg in
            List.iter
              (fun (r, acc, plan) ->
                let t0 = now () in
                charge_build acc t0 (Matcher.prepare st.db r plan))
              plain;
            (* match every plain rule against the pre-round db *)
            let matched =
              List.map
                (fun (r, acc, plan) ->
                  let t0 = now () in
                  let ms =
                    Matcher.match_rule ?interrupt ?delta:delta_filter ~plan
                      st.db r
                  in
                  (r, acc, ms, now () -. t0))
                plain
            in
            (* then insert, in rule order *)
            let added = ref [] in
            let added_count = ref 0 in
            let admit acc t0 out =
              let n = List.length out in
              charge_insert acc t0 n;
              added_count := !added_count + n;
              added := List.rev_append out !added
            in
            List.iter
              (fun (r, acc, ms, dt) ->
                charge_probe acc dt ms;
                let t0 = now () in
                admit acc t0 (insert_plain_matches st ~round r ms))
              matched;
            (* aggregate rules see the round's plain insertions: their
               indexes are ensured only now, or the probe would find
               them stale and scan *)
            List.iter
              (fun (r, acc, plan) ->
                let body = Matcher.agg_body r in
                let t0 = now () in
                charge_build acc t0 (Matcher.prepare st.db body plan);
                let t0 = now () in
                let ms = Matcher.match_rule ?interrupt ~plan st.db body in
                let groups = Matcher.group r ms in
                charge_probe acc (now () -. t0) ms;
                let t0 = now () in
                admit acc t0 (insert_agg_groups st ~round r groups))
              agg;
            if collect then
              round_log :=
                {
                  stratum = si;
                  round;
                  delta_size;
                  new_facts = !added_count;
                  time_s = Ekg_obs.Clock.now_s () -. round_t0;
                }
                :: !round_log;
            if !added_count = 0 then continue := false
            else delta := Some (!added, !added_count)
              with Matcher.Interrupted ->
                (* tripped mid-match: [stop] is already set, the
                   round's partial matches are discarded (nothing was
                   inserted for them), and the loop exits above *)
                ()
            end
          end
        done
      in
      List.iteri
        (fun si rules ->
          if !stop = None then
            Ekg_obs.Trace.with_span_opt obs ?parent
              ~labels:[ ("stratum", string_of_int si) ]
              "chase.stratum"
              (fun span ->
                run_stratum si rules;
                Option.iter
                  (fun sp ->
                    Ekg_obs.Trace.label sp "rounds"
                      (string_of_int stratum_rounds.(si)))
                  span))
        strata;
      let stratum_rounds_list =
        Array.to_list (Array.sub stratum_rounds 0 (List.length strata))
      in
      match !stop with
      | Some reason ->
        (* the budget tripped: surface how far the run got so the
           caller can report partial progress (e.g. in a 504 body) *)
        let partial =
          {
            partial_rounds = !total_rounds;
            partial_derived = st.derived;
            partial_wall_s = Ekg_obs.Clock.now_s () -. t_start;
            partial_stratum_rounds = stratum_rounds_list;
          }
        in
        Error
          (match reason with
          | `Cancelled -> Cancelled partial
          | (`Deadline | `Facts | `Rounds) as r ->
            Budget_exceeded (r, partial))
      | None ->
      if !overflow then
        Error (Divergent { max_rounds; stratum_rounds = stratum_rounds_list })
      else begin
        (* negative constraints: a derived ⊥ aborts the task *)
        match Database.active st.db falsum with
        | violation :: _ ->
          let detail =
            match Provenance.derivation st.prov violation.Fact.id with
            | Some d ->
              Printf.sprintf "constraint %s violated by %s" d.rule_id
                (String.concat ", "
                   (List.map
                      (fun id -> Fact.to_string (Database.fact st.db id))
                      d.premises))
            | None -> "constraint violated"
          in
          Error (Inconsistent detail)
        | [] ->
          let stats_record =
            if not collect then None
            else begin
              let per_rule =
                List.rev_map
                  (fun a ->
                    {
                      rule_id = a.acc_rule;
                      stratum = a.acc_stratum;
                      time_s = a.acc_time;
                      evals = a.acc_evals;
                      facts = a.acc_facts;
                      build_s = a.acc_build;
                      probe_s = a.acc_probe;
                      insert_s = a.acc_insert;
                    })
                  !accs
              in
              Some
                {
                  per_rule;
                  per_round = List.rev !round_log;
                  rounds_per_stratum = stratum_rounds_list;
                  agg_superseded = st.superseded;
                  wall_s = Ekg_obs.Clock.now_s () -. t_start;
                  plan_reorders = !plan_reorders;
                  join_builds = !join_builds;
                  join_probe_hits = !join_probe_hits;
                }
            end
          in
          (match stats, stats_record with
          | Some sink, Some s ->
            push_stats sink ~rounds:!total_rounds ~derived:st.derived s
          | _ -> ());
          Ok
            {
              db = st.db;
              prov = st.prov;
              rounds = !total_rounds;
              derived_count = st.derived;
              stats = stats_record;
            }
      end))

let load ?(into = Database.create ()) atoms =
  let rec go = function
    | [] -> Ok into
    | a :: rest -> (
      match Database.add_atom into a with
      | Ok _ -> go rest
      | Error e -> Error (Invalid_edb e))
  in
  go atoms

let run_checked ?naive ?max_rounds ?budget ?stats ?obs ?parent program edb =
  match load edb with
  | Error _ as e -> e
  | Ok db -> run_store ?naive ?max_rounds ?budget ?stats ?obs ?parent program db

let run ?naive ?max_rounds ?budget ?stats ?obs ?parent program edb =
  match run_checked ?naive ?max_rounds ?budget ?stats ?obs ?parent program edb with
  | Ok r -> Ok r
  | Error e -> Error (error_to_string e)

let run_exn ?naive ?max_rounds ?budget ?stats ?obs ?parent program edb =
  match run ?naive ?max_rounds ?budget ?stats ?obs ?parent program edb with
  | Ok r -> r
  | Error e -> failwith ("Chase.run: " ^ e)

(* --- incremental maintenance ------------------------------------------------

   Additions warm-start the semi-naive loop (new facts are the delta);
   retractions run DRed over the provenance DAG: over-delete the cone
   of consequences reachable from a retracted fact, then re-derive
   whatever still has an alternative proof by fully re-evaluating the
   rules deriving the deleted predicates.  Stratified negation is
   handled per stratum: once a negated predicate has changed, the
   negating rule's previous conclusions are over-deleted and the rule
   re-evaluates in full, so deletions can enable later-stratum facts
   and additions can disable them.  Aggregation and existential heads
   fall back to a full re-chase (see chase.mli). *)

type update = {
  upd_incremental : bool;
  upd_rounds : int;
  upd_added : int;
  upd_retracted : int;
  upd_rederived : int;
  upd_changed_preds : string list;
  upd_edb : Database.t;
}

let incrementable (program : Program.t) =
  (not (Program.uses_aggregation program))
  && List.for_all (fun r -> Rule.existential_vars r = []) program.Program.rules

let affected_preds (program : Program.t) seeds =
  let affected = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace affected p ()) seeds;
  let grew = ref true in
  while !grew do
    grew := false;
    List.iter
      (fun (r : Rule.t) ->
        if
          (not (Hashtbl.mem affected (Rule.head_pred r)))
          && List.exists (Hashtbl.mem affected) (Rule.body_preds r)
        then begin
          Hashtbl.replace affected (Rule.head_pred r) ();
          grew := true
        end)
      program.Program.rules
  done;
  Hashtbl.fold (fun p () acc -> p :: acc) affected [] |> List.sort String.compare

let atom_of_fact (f : Fact.t) =
  Atom.make f.Fact.pred
    (List.map (fun v -> Term.Cst v) (Array.to_list f.Fact.args))

let edb_atoms (res : result) =
  let acc = ref [] in
  for id = Database.size res.db - 1 downto 0 do
    if Database.is_active res.db id && Provenance.is_edb res.prov id then
      acc := atom_of_fact (Database.fact res.db id) :: !acc
  done;
  !acc

let copy_result (res : result) =
  { res with db = Database.copy res.db; prov = Provenance.copy res.prov }

let ground_tuple (a : Atom.t) =
  if not (Atom.is_ground a) then Error (Invalid_edb ("non-ground fact: " ^ Atom.to_string a))
  else
    Ok
      (Array.of_list
         (List.map
            (function Term.Cst c -> c | Term.Var _ -> assert false)
            a.Atom.args))

let ground_tuples atoms =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | a :: rest -> (
      match ground_tuple a with
      | Error _ as e -> e
      | Ok t -> go (t :: acc) rest)
  in
  go [] atoms

let unknown_fact (a : Atom.t) =
  Unknown_fact ("fact not in the extensional database: " ^ Atom.to_string a)

(* Resolve retraction requests to fact ids, before any mutation: every
   named fact must be active extensional data. *)
let resolve_retractions (res : result) atoms =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (a : Atom.t) :: rest -> (
      match ground_tuple a with
      | Error _ as e -> e
      | Ok tuple -> (
        match Database.find_exact res.db a.Atom.pred tuple with
        | Some f when Database.is_active res.db f.Fact.id ->
          if Provenance.is_edb res.prov f.Fact.id then go (f.Fact.id :: acc) rest
          else
            Error
              (Invalid_edb
                 ("cannot retract derived fact " ^ Atom.to_string a
                ^ "; only extensional facts may be retracted"))
        | Some _ | None -> Error (unknown_fact a)))
  in
  go [] atoms

(* The next generation's frozen extensional store (see [update_edb]),
   over the facts of [db] that [keep] accepts; also returns how many
   facts it gained and lost. *)
let derive_edb ~keep db ~adds ~retracts =
  match ground_tuples adds, ground_tuples retracts with
  | Error e, _ | _, Error e -> Error e
  | Ok add_tuples, Ok retract_tuples -> (
    let dropped = Hashtbl.create 8 in
    let missing =
      List.find_opt
        (fun ((a : Atom.t), t) ->
          match Database.find_exact db a.Atom.pred t with
          | Some f when keep f.Fact.id ->
            Hashtbl.replace dropped f.Fact.id ();
            false
          | Some _ | None -> true)
        (List.combine retracts retract_tuples)
    in
    match missing with
    | Some (a, _) -> Error (unknown_fact a)
    | None ->
      let next = Database.create () in
      for id = 0 to Database.size db - 1 do
        if keep id && not (Hashtbl.mem dropped id) then begin
          let f = Database.fact db id in
          ignore (Database.add next f.Fact.pred f.Fact.args)
        end
      done;
      let kept = Database.size next in
      List.iter2
        (fun (a : Atom.t) t -> ignore (Database.add next a.Atom.pred t))
        adds add_tuples;
      Database.freeze next;
      Ok (next, Database.size next - kept, Hashtbl.length dropped))

(* what a batch may change when nothing is maintained incrementally *)
let batch_changed_preds program ~adds ~retracts =
  affected_preds program
    (List.sort_uniq String.compare
       (List.map (fun (a : Atom.t) -> a.Atom.pred) (adds @ retracts)))

let update_edb program edb ~adds ~retracts =
  Result.map
    (fun (next, added, retracted) ->
      {
        upd_incremental = false;
        upd_rounds = 0;
        upd_added = added;
        upd_retracted = retracted;
        upd_rederived = 0;
        upd_changed_preds = batch_changed_preds program ~adds ~retracts;
        upd_edb = next;
      })
    (derive_edb ~keep:(Database.is_active edb) edb ~adds ~retracts)

(* Full-recompute fallback: cold-chase an overlay of the next
   generation's store.  Non-destructive — the input result is left
   untouched. *)
let rebuild ?max_rounds ?budget (program : Program.t) (res : result) ~edb
    ~adds ~retracts =
  match run_store ?max_rounds ?budget program (Database.overlay edb) with
  | Error _ as e -> e
  | Ok fresh ->
    (* observable diff for the update report: active facts of one
       instance that the other does not hold active *)
    let count_missing a b =
      List.fold_left
        (fun n (f : Fact.t) ->
          match Database.find_exact b f.Fact.pred f.Fact.args with
          | Some g when Database.is_active b g.Fact.id -> n
          | Some _ | None -> n + 1)
        0 (Database.active_all a)
    in
    Ok
      ( fresh,
        {
          upd_incremental = false;
          upd_rounds = fresh.rounds;
          upd_added = count_missing fresh.db res.db;
          upd_retracted = count_missing res.db fresh.db;
          upd_rederived = 0;
          upd_changed_preds = batch_changed_preds program ~adds ~retracts;
          upd_edb = edb;
        } )

(* The incremental pass proper (no aggregation, no existentials). *)
let apply_incremental ?(max_rounds = 100_000) ?(budget = unlimited)
    (res : result) ~edb ~adds ~add_tuples ~retract_ids strata =
  let db = res.db and prov = res.prov in
  let t_start = Ekg_obs.Clock.now_s () in
  let deleted = Hashtbl.create 32 in      (* over-deleted, not yet restored *)
  let deleted_preds = Hashtbl.create 8 in
  let changed_preds = Hashtbl.create 8 in
  let retracted_total = ref 0 in
  let rederived = ref 0 in
  let added = ref 0 in
  let derived_this_update = ref 0 in
  let total_new_rounds = ref 0 in
  let overflow = ref false in
  let stratum_rounds = Array.make (max 1 (List.length strata)) 0 in
  (* premise -> consumers, over every derivation recorded so far.  Facts
     inserted during this update never need the index: deletions only
     target facts that predate their stratum's evaluation. *)
  let consumers = Hashtbl.create 256 in
  Provenance.iter prov (fun id (d : Provenance.derivation) ->
      List.iter
        (fun p ->
          let prior = Option.value ~default:[] (Hashtbl.find_opt consumers p) in
          Hashtbl.replace consumers p (id :: prior))
        d.Provenance.premises);
  (* DRed over-deletion: everything reachable from the roots through
     any recorded derivation loses its support *)
  let delete_cone roots =
    let queue = Queue.create () in
    let mark id =
      if (not (Hashtbl.mem deleted id)) && Database.is_active db id then begin
        Hashtbl.replace deleted id ();
        Queue.push id queue
      end
    in
    List.iter mark roots;
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      Database.deactivate db id;
      incr retracted_total;
      let f = Database.fact db id in
      Hashtbl.replace deleted_preds f.Fact.pred ();
      Hashtbl.replace changed_preds f.Fact.pred ();
      if not (Provenance.is_edb prov id) then Provenance.forget prov id;
      List.iter mark (Option.value ~default:[] (Hashtbl.find_opt consumers id))
    done
  in
  delete_cone retract_ids;
  (* retraction seeds are gone for good: even if a rule re-derives the
     same tuple, the tuple becomes a derived fact, not extensional *)
  List.iter (fun id -> Hashtbl.remove deleted id) retract_ids;
  let newly_active = ref [] in  (* delta seeds for strata not yet evaluated *)
  List.iter2
    (fun (a : Atom.t) tuple ->
      match Database.add db a.Atom.pred tuple with
      | `Added f ->
        incr added;
        Hashtbl.replace changed_preds f.Fact.pred ();
        newly_active := f.Fact.id :: !newly_active
      | `Existing f ->
        if not (Database.is_active db f.Fact.id) then begin
          (* resurrect a previously retracted or over-deleted tuple as
             extensional data, under its original id *)
          Provenance.forget prov f.Fact.id;
          Database.reactivate db f.Fact.id;
          incr added;
          Hashtbl.replace changed_preds f.Fact.pred ();
          newly_active := f.Fact.id :: !newly_active
        end
        else if not (Provenance.is_edb prov f.Fact.id) then begin
          (* an active derived fact asserted extensionally: a cold chase
             on the new base records no derivation for it *)
          Provenance.forget prov f.Fact.id;
          Hashtbl.replace changed_preds f.Fact.pred ()
        end)
    adds add_tuples;
  (* budget machinery, shared with the match-loop interrupt *)
  let stop : [ `Cancelled | `Deadline | `Facts | `Rounds ] option ref =
    ref None
  in
  let trip r =
    if !stop = None then stop := Some r;
    true
  in
  let check_budget () =
    !stop <> None
    ||
    if match budget.cancel with Some f -> f () | None -> false then
      trip `Cancelled
    else if
      match budget.deadline_s with
      | Some d -> Ekg_obs.Clock.now_s () > d
      | None -> false
    then trip `Deadline
    else if
      match budget.budget_facts with
      | Some m -> !derived_this_update >= m
      | None -> false
    then trip `Facts
    else if
      match budget.budget_rounds with
      | Some m -> !total_new_rounds >= m
      | None -> false
    then trip `Rounds
    else false
  in
  let interrupt =
    if budget.deadline_s = None && Option.is_none budget.cancel then None
    else begin
      let tick = ref 0 in
      Some
        (fun () ->
          !stop <> None
          || begin
               incr tick;
               !tick land 4095 = 0 && check_budget ()
             end)
    end
  in
  let instantiate_head (r : Rule.t) binding =
    let resolve = function
      | Term.Cst c -> Some c
      | Term.Var v -> Subst.find binding v
    in
    let args = List.map resolve r.Rule.head.Atom.args in
    if List.exists Option.is_none args then None
    else Some (Array.of_list (List.map Option.get args))
  in
  let insert_matches ~round (r : Rule.t) matches round_delta =
    List.iter
      (fun (m : Matcher.match_result) ->
        match instantiate_head r m.binding with
        | None -> ()
        | Some tuple -> (
          let premises = List.sort_uniq Int.compare m.used_facts in
          let derivation =
            {
              Provenance.rule_id = r.id;
              premises;
              binding = m.binding;
              contributors = [];
              round;
            }
          in
          match Database.add db (Rule.head_pred r) tuple with
          | `Added f ->
            incr derived_this_update;
            incr added;
            Hashtbl.replace changed_preds f.Fact.pred ();
            Provenance.record prov ~fact_id:f.Fact.id derivation;
            round_delta := f.Fact.id :: !round_delta
          | `Existing f ->
            if not (Database.is_active db f.Fact.id) then begin
              Database.reactivate db f.Fact.id;
              Provenance.forget prov f.Fact.id;
              Provenance.record prov ~fact_id:f.Fact.id derivation;
              incr derived_this_update;
              Hashtbl.replace changed_preds f.Fact.pred ();
              if Hashtbl.mem deleted f.Fact.id then begin
                (* an over-deleted fact restored by a surviving proof *)
                Hashtbl.remove deleted f.Fact.id;
                incr rederived
              end
              else incr added;
              round_delta := f.Fact.id :: !round_delta
            end
            else if
              (not (Provenance.is_edb prov f.Fact.id))
              && List.for_all (fun p -> p < f.Fact.id) premises
            then begin
              (* alternative derivation of a known fact, as in the cold
                 chase; provenance changed even though the instance
                 did not — shortest-proof explanations may shift *)
              Provenance.record prov ~fact_id:f.Fact.id derivation;
              Hashtbl.replace changed_preds f.Fact.pred ()
            end))
      matches
  in
  let run_stratum si rules =
    (* rules whose negated premises changed: their old conclusions are
       unsupported until proven otherwise *)
    let neg_affected =
      List.filter
        (fun (r : Rule.t) ->
          List.exists
            (fun (a : Atom.t) -> Hashtbl.mem changed_preds a.Atom.pred)
            (Rule.negative_atoms r))
        rules
    in
    if neg_affected <> [] then begin
      let targets = List.map (fun (r : Rule.t) -> r.Rule.id) neg_affected in
      let roots = ref [] in
      Provenance.iter prov (fun id (d : Provenance.derivation) ->
          if List.mem d.Provenance.rule_id targets && Database.is_active db id
          then roots := id :: !roots);
      delete_cone !roots
    end;
    (* rules that must re-evaluate in full on the stratum's first
       round: negation-affected ones, and every rule that could supply
       an alternative proof for an over-deleted predicate *)
    let full_rules =
      List.filter
        (fun (r : Rule.t) ->
          Hashtbl.mem deleted_preds (Rule.head_pred r)
          || List.memq r neg_affected)
        rules
    in
    let pending = ref (List.filter (Database.is_active db) !newly_active) in
    let first = ref true in
    let continue = ref true in
    while !continue && (not !overflow) && !stop = None do
      if check_budget () then ()
      else begin
        let full = if !first then full_rules else [] in
        let delta_ids = !pending in
        if full = [] && delta_ids = [] then continue := false
        else begin
          incr total_new_rounds;
          if !total_new_rounds > max_rounds then overflow := true
          else begin
            try
              stratum_rounds.(si) <- stratum_rounds.(si) + 1;
              let round = res.rounds + !total_new_rounds in
              let delta_filter =
                if delta_ids = [] then None
                else begin
                  let set = Hashtbl.create (max 8 (List.length delta_ids)) in
                  let preds = Hashtbl.create 8 in
                  List.iter
                    (fun i ->
                      Hashtbl.replace set i ();
                      Hashtbl.replace preds (Database.pred_sym_of_fact db i) ())
                    delta_ids;
                  Some
                    { Matcher.mem = Hashtbl.mem set; has_pred = Hashtbl.mem preds }
                end
              in
              let card = Database.pred_card db in
              (* one match list per rule, in stratum rule order, all
                 against the pre-round db, exactly like a cold round:
                 full evaluation for the re-derivation rules, semi-naive
                 seed passes for the rest *)
              let matched =
                List.filter_map
                  (fun (r : Rule.t) ->
                    let full_pass = !first && List.memq r full in
                    if not (full_pass || Option.is_some delta_filter) then None
                    else begin
                      let plan = Plan.compile ~card r in
                      ignore (Matcher.prepare db r plan);
                      let delta = if full_pass then None else delta_filter in
                      Some (r, Matcher.match_rule ?interrupt ?delta ~plan db r)
                    end)
                  rules
              in
              let round_delta = ref [] in
              List.iter
                (fun (r, ms) -> insert_matches ~round r ms round_delta)
                matched;
              first := false;
              if !round_delta = [] then continue := false
              else begin
                pending := !round_delta;
                newly_active := List.rev_append !round_delta !newly_active
              end
            with Matcher.Interrupted ->
              (* tripped mid-match: nothing was inserted for the
                 abandoned round; the loop exits via [stop] *)
              ()
          end
        end
      end
    done
  in
  List.iteri (fun si rules -> if !stop = None then run_stratum si rules) strata;
  let partial () =
    {
      partial_rounds = !total_new_rounds;
      partial_derived = !derived_this_update;
      partial_wall_s = Ekg_obs.Clock.now_s () -. t_start;
      partial_stratum_rounds =
        Array.to_list (Array.sub stratum_rounds 0 (List.length strata));
    }
  in
  match !stop with
  | Some `Cancelled -> Error (Cancelled (partial ()))
  | Some ((`Deadline | `Facts | `Rounds) as r) ->
    Error (Budget_exceeded (r, partial ()))
  | None ->
    if !overflow then
      Error
        (Divergent
           {
             max_rounds;
             stratum_rounds =
               Array.to_list (Array.sub stratum_rounds 0 (List.length strata));
           })
    else begin
      match Database.active db falsum with
      | violation :: _ ->
        let detail =
          match Provenance.derivation prov violation.Fact.id with
          | Some d ->
            Printf.sprintf "constraint %s violated by %s" d.rule_id
              (String.concat ", "
                 (List.map
                    (fun id -> Fact.to_string (Database.fact db id))
                    d.premises))
          | None -> "constraint violated"
        in
        Error (Inconsistent detail)
      | [] ->
        let active_derived = ref 0 in
        for id = 0 to Database.size db - 1 do
          if Database.is_active db id && not (Provenance.is_edb prov id) then
            incr active_derived
        done;
        let changed =
          Hashtbl.fold (fun p () acc -> p :: acc) changed_preds []
          |> List.sort String.compare
        in
        Ok
          ( {
              db;
              prov;
              rounds = res.rounds + !total_new_rounds;
              derived_count = !active_derived;
              stats = None;
            },
            {
              upd_incremental = true;
              upd_rounds = !total_new_rounds;
              upd_added = !added;
              upd_retracted = !retracted_total - !rederived;
              upd_rederived = !rederived;
              upd_changed_preds = changed;
              upd_edb = edb;
            } )
    end

let apply_update ?max_rounds ?budget ?edb program res ~adds ~retracts =
  (* all validation happens before any mutation *)
  match ground_tuples adds with
  | Error e -> Error e
  | Ok add_tuples -> (
    match resolve_retractions res retracts with
    | Error e -> Error e
    | Ok retract_ids -> (
      let next =
        match edb with
        | Some edb -> derive_edb ~keep:(Database.is_active edb) edb ~adds ~retracts
        | None ->
          derive_edb
            ~keep:(fun id ->
              Database.is_active res.db id && Provenance.is_edb res.prov id)
            res.db ~adds ~retracts
      in
      match next with
      | Error e -> Error e
      | Ok (edb, _, _) -> (
        if not (incrementable program) then
          rebuild ?max_rounds ?budget program res ~edb ~adds ~retracts
        else
          match Stratify.strata program with
          | Error e -> Error (Unstratifiable e)
          | Ok strata ->
            apply_incremental ?max_rounds ?budget res ~edb ~adds ~add_tuples
              ~retract_ids strata)))

let add_facts ?max_rounds ?budget ?edb program res atoms =
  apply_update ?max_rounds ?budget ?edb program res ~adds:atoms ~retracts:[]

let retract_facts ?max_rounds ?budget ?edb program res atoms =
  apply_update ?max_rounds ?budget ?edb program res ~adds:[] ~retracts:atoms
