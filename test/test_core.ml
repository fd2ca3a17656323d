(* Tests for the paper's primary contribution: dependency graph,
   critical nodes, reasoning paths (checked against the paper's own
   tables in Figures 4, 5 and 10), glossary, verbalizer, templates,
   enhancement with the omission guard, proof-to-template mapping and
   the end-to-end pipeline (checked against Example 4.8). *)

open Ekg_kernel
open Ekg_datalog
open Ekg_core

let check = Alcotest.check
let bool' = Alcotest.bool
let int' = Alcotest.int
let string' = Alcotest.string

let parse_exn src =
  match Parser.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse: %s" e

let example_4_3 =
  {|
alpha: shock(F, S), hasCapital(F, P1), S > P1 -> default(F).
beta:  default(D), debts(D, C, V), E = sum(V) -> risk(C, E).
gamma: hasCapital(C, P2), risk(C, E), P2 < E -> default(C).
@goal(default).
|}

let company_control =
  {|
s1: own(X, Y, S), S > 0.5 -> control(X, Y).
s2: company(X) -> control(X, X).
s3: control(X, Z), own(Z, Y, S), TS = sum(S), TS > 0.5 -> control(X, Y).
@goal(control).
|}

let stress_test =
  {|
s4: shock(F, S), hasCapital(F, P1), S > P1 -> default(F).
s5: default(D), longTermDebts(D, C, V), E = sum(V) -> risk(C, E, "long").
s6: default(D), shortTermDebts(D, C, V), E = sum(V) -> risk(C, E, "short").
s7: risk(C, E, T), hasCapital(C, P2), L = sum(E), L > P2 -> default(C).
@goal(default).
|}

let program_of src = (parse_exn src).Parser.program

let glossary_4_3 =
  Glossary.make_exn
    [
      Glossary.entry ~pred:"hasCapital"
        ~args:[ ("f", Glossary.Plain); ("p", Glossary.Euros) ]
        ~pattern:"<f> is a financial institution with capital of <p>";
      Glossary.entry ~pred:"shock"
        ~args:[ ("f", Glossary.Plain); ("s", Glossary.Euros) ]
        ~pattern:"a shock amounting to <s> affects <f>";
      Glossary.entry ~pred:"default" ~args:[ ("f", Glossary.Plain) ]
        ~pattern:"<f> is in default";
      Glossary.entry ~pred:"debts"
        ~args:[ ("d", Glossary.Plain); ("c", Glossary.Plain); ("v", Glossary.Euros) ]
        ~pattern:"<d> has an amount <v> of debts with <c>";
      Glossary.entry ~pred:"risk"
        ~args:[ ("c", Glossary.Plain); ("e", Glossary.Euros) ]
        ~pattern:"<c> is at risk given its loan of <e> to a defaulted debtor";
    ]

(* --- dependency graph ------------------------------------------------------ *)

let test_depgraph_shape () =
  let p = program_of example_4_3 in
  let g = Depgraph.build p in
  check bool' "5 predicates" true (Ekg_graph.Digraph.node_count g = 5);
  check bool' "roots are shock, hasCapital, debts" true
    (Depgraph.roots p = [ "debts"; "hasCapital"; "shock" ]);
  check string' "leaf is the goal" "default" (Depgraph.leaf p);
  check bool' "cyclic (recursive program)" true (Depgraph.is_recursive p);
  check bool' "edge shock->default labelled alpha" true
    (List.exists
       (fun (e : string Ekg_graph.Digraph.edge) ->
         e.src = "shock" && e.dst = "default" && e.label = "alpha")
       (Ekg_graph.Digraph.edges g))

(* --- critical nodes (Definition 4.1) ---------------------------------------- *)

let test_critical_example_4_3 () =
  check bool' "only default critical (Fig. 3)" true
    (Critical.critical_nodes (program_of example_4_3) = [ "default" ])

let test_critical_company_control () =
  check bool' "only control critical" true
    (Critical.critical_nodes (program_of company_control) = [ "control" ])

let test_critical_stress_test () =
  (* risk has two in-rules but both inside the recursive region: the
     paper's Figure 10 does not split paths at risk *)
  check bool' "only default critical" true
    (Critical.critical_nodes (program_of stress_test) = [ "default" ])

let test_critical_dag_diamond () =
  let p =
    program_of
      {|
a1: base1(X) -> mid(X).
a2: base2(X) -> mid(X).
a3: mid(X) -> top(X).
@goal(top).
|}
  in
  check bool' "diamond join critical" true
    (Critical.critical_nodes p = [ "mid"; "top" ])

(* --- reasoning paths (Definition 4.2, Figures 4, 5, 10) ---------------------- *)

let path_sets paths =
  paths
  |> List.filter Reasoning_path.is_base
  |> List.map (fun p -> List.sort String.compare (Reasoning_path.rule_ids p))
  |> List.sort compare

let test_paths_example_4_3 () =
  let a = Reasoning_path.analyze (program_of example_4_3) in
  check bool' "simple paths: {alpha}, {alpha,beta,gamma} (Fig. 4a)" true
    (path_sets a.simple_paths = [ [ "alpha" ]; [ "alpha"; "beta"; "gamma" ] ]);
  check bool' "cycles: {beta,gamma} (Fig. 4b)" true
    (path_sets a.cycles = [ [ "beta"; "gamma" ] ]);
  (* aggregation variants (Fig. 5): beta is the only aggregating rule *)
  let starred =
    List.filter (fun p -> not (Reasoning_path.is_base p)) a.simple_paths
  in
  check int' "one dashed simple path" 1 (List.length starred);
  check bool' "dashed variant marks beta" true
    (Reasoning_path.is_multi (List.hd starred) "beta")

let test_paths_company_control () =
  let a = Reasoning_path.analyze (program_of company_control) in
  check bool' "five simple paths (Fig. 10)" true
    (path_sets a.simple_paths
    = [ [ "s1" ]; [ "s1"; "s2"; "s3" ]; [ "s1"; "s3" ]; [ "s2" ]; [ "s2"; "s3" ] ]);
  check bool' "one cycle {s3}" true (path_sets a.cycles = [ [ "s3" ] ])

let test_paths_stress_test () =
  let a = Reasoning_path.analyze (program_of stress_test) in
  check bool' "four simple paths (Fig. 10)" true
    (path_sets a.simple_paths
    = [
        [ "s4" ];
        [ "s4"; "s5"; "s6"; "s7" ];
        [ "s4"; "s5"; "s7" ];
        [ "s4"; "s6"; "s7" ];
      ]);
  check bool' "three cycles (Fig. 10)" true
    (path_sets a.cycles = [ [ "s5"; "s6"; "s7" ]; [ "s5"; "s7" ]; [ "s6"; "s7" ] ])

let test_paths_rule_order () =
  let a = Reasoning_path.analyze (program_of example_4_3) in
  let pi2 =
    List.find
      (fun p ->
        Reasoning_path.is_base p
        && List.length p.Reasoning_path.rules = 3)
      a.simple_paths
  in
  check bool' "premises before consumers" true
    (Reasoning_path.rule_ids pi2 = [ "alpha"; "beta"; "gamma" ])

let test_paths_edge_once_finiteness () =
  (* every path uses each rule at most once *)
  let check_once (p : Reasoning_path.t) =
    let ids = Reasoning_path.rule_ids p in
    List.length ids = List.length (List.sort_uniq String.compare ids)
  in
  List.iter
    (fun src ->
      let a = Reasoning_path.analyze (program_of src) in
      check bool' "each edge visited once" true
        (List.for_all check_once (a.simple_paths @ a.cycles)))
    [ example_4_3; company_control; stress_test ]

let test_paths_cycle_terminals () =
  let a = Reasoning_path.analyze (program_of example_4_3) in
  List.iter
    (fun (c : Reasoning_path.t) ->
      check bool' "cycle hangs from the critical node" true
        (c.terminals = [ "default" ]))
    a.cycles

(* --- glossary ----------------------------------------------------------------- *)

let test_glossary_validation () =
  (match
     Glossary.make
       [
         Glossary.entry ~pred:"p" ~args:[ ("x", Glossary.Plain) ] ~pattern:"no token here";
       ]
   with
  | Error msg -> check bool' "missing token reported" true (Textutil.contains_word msg "x")
  | Ok _ -> Alcotest.fail "pattern without token accepted");
  match
    Glossary.make
      [
        Glossary.entry ~pred:"p" ~args:[] ~pattern:"p holds";
        Glossary.entry ~pred:"p" ~args:[] ~pattern:"again";
      ]
  with
  | Error msg -> check bool' "duplicate reported" true (Textutil.contains_word msg "duplicate")
  | Ok _ -> Alcotest.fail "duplicate predicate accepted"

let test_glossary_formats () =
  check string' "euros" "7 million euros"
    (Glossary.format_value Glossary.Euros (Value.num 7_000_000.));
  check string' "percent" "55%" (Glossary.format_value Glossary.Percent (Value.num 0.55));
  check string' "plain string" "A" (Glossary.format_value Glossary.Plain (Value.str "A"))

let test_glossary_parse_spec () =
  let src =
    {|
# comment line
hasCapital(f, p:euros) :: <f> has capital of <p>
own(x, y, s:percent)   :: <x> owns <s> of <y>
default(f)             :: <f> is in default
|}
  in
  match Glossary.parse_spec src with
  | Error e -> Alcotest.fail e
  | Ok g ->
    check bool' "three entries" true (Glossary.preds g = [ "default"; "hasCapital"; "own" ]);
    check bool' "euros fmt" true (Glossary.arg_fmt g ~pred:"hasCapital" 1 = Glossary.Euros);
    check bool' "percent fmt" true (Glossary.arg_fmt g ~pred:"own" 2 = Glossary.Percent);
    check bool' "default fmt plain" true (Glossary.arg_fmt g ~pred:"own" 0 = Glossary.Plain)

let test_glossary_parse_spec_errors () =
  (match Glossary.parse_spec "broken line without separator" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line accepted");
  match Glossary.parse_spec "p(x:bogus) :: <x>" with
  | Error msg -> check bool' "unknown format" true (Textutil.contains_word msg "bogus")
  | Ok _ -> Alcotest.fail "unknown format accepted"

(* --- verbalizer ------------------------------------------------------------------ *)

let rule_of src =
  match Parser.parse_rule src with
  | Ok r -> r
  | Error e -> Alcotest.failf "rule: %s" e

let test_verbalize_atom () =
  let a = Atom.make "debts" [ Term.var "D"; Term.str "B"; Term.num 7e6 ] in
  let text = Verbalizer.chunks_to_skeleton (Verbalizer.verbalize_atom glossary_4_3 a) in
  check string' "tokens and formatted constants" "<D> has an amount 7 million euros of debts with B"
    text

let test_verbalize_atom_fallback () =
  let a = Atom.make "unknownPred" [ Term.var "X"; Term.var "Y" ] in
  let text = Verbalizer.chunks_to_skeleton (Verbalizer.verbalize_atom glossary_4_3 a) in
  check bool' "generic fallback mentions predicate" true
    (Textutil.contains_word text "unknownPred")

let test_verbalize_rule_single_vs_multi () =
  let beta = rule_of "beta: default(D), debts(D, C, V), E = sum(V) -> risk(C, E)." in
  let single =
    Verbalizer.chunks_to_skeleton (Verbalizer.verbalize_rule glossary_4_3 ~multi:false beta)
  in
  let multi =
    Verbalizer.chunks_to_skeleton (Verbalizer.verbalize_rule glossary_4_3 ~multi:true beta)
  in
  check bool' "single variant omits the aggregator (§4.2)" true
    (not (Textutil.contains_word single "sum"));
  check bool' "multi variant verbalizes the aggregator" true
    (Textutil.contains_word multi "sum")

let test_verbalize_comparison_words () =
  let alpha = rule_of "alpha: shock(F, S), hasCapital(F, P1), S > P1 -> default(F)." in
  let text =
    Verbalizer.chunks_to_skeleton (Verbalizer.verbalize_rule glossary_4_3 ~multi:false alpha)
  in
  check bool' "'is higher than' used for >" true
    (Textutil.split_on_string ~sep:"is higher than" text |> List.length > 1);
  check bool' "since/then scaffolding" true (Textutil.starts_with ~prefix:"Since " text)

let test_verbalize_negation () =
  let g = Glossary.make_exn [] in
  let r = rule_of "p(X), not q(X) -> r(X)." in
  let text = Verbalizer.chunks_to_skeleton (Verbalizer.verbalize_rule g ~multi:false r) in
  check bool' "negation phrase" true
    (Textutil.split_on_string ~sep:"it is not the case" text |> List.length > 1)

let test_verbalize_arithmetic () =
  let g = Glossary.make_exn [] in
  let r = rule_of "p(X, A, B), W = A * B -> q(X, W)." in
  let text = Verbalizer.chunks_to_skeleton (Verbalizer.verbalize_rule g ~multi:false r) in
  check bool' "product in words" true
    (Textutil.split_on_string ~sep:"the product of" text |> List.length > 1)

let test_verbalize_count_min_max () =
  let g = Glossary.make_exn [] in
  List.iter
    (fun (src, phrase) ->
      let r = rule_of src in
      let text =
        Verbalizer.chunks_to_skeleton (Verbalizer.verbalize_rule g ~multi:true r)
      in
      check bool' (phrase ^ " phrasing") true
        (Textutil.split_on_string ~sep:phrase text |> List.length > 1))
    [
      ("p(X, V), N = count(V) -> q(X, N).", "the number of");
      ("p(X, V), N = min(V) -> q(X, N).", "the minimum of");
      ("p(X, V), N = max(V) -> q(X, N).", "the maximum of");
      ("p(X, V), N = prod(V) -> q(X, N).", "the product of");
    ]

let test_count_aggregation_end_to_end () =
  (* a fourth aggregate function through the full pipeline *)
  let src =
    {|
holds: own(X, Y, S), S >= 0.2 -> stake(X, Y).
influence: stake(X, Y), N = count(Y), N >= 2 -> influential(X).
@goal(influential).
own("F", "A", 0.3). own("F", "B", 0.25). own("G", "C", 0.5). own("G", "D", 0.1).
|}
  in
  let { Parser.program; facts } = parse_exn src in
  let g = Glossary.make_exn [] in
  let pipeline = Pipeline.build program g in
  match Pipeline.reason pipeline facts with
  | Error e -> Alcotest.fail e
  | Ok result -> (
    check bool' "only F influential" true
      (Ekg_engine.Database.active result.db "influential"
       |> List.map Ekg_engine.Fact.to_string
      = [ {|influential("F")|} ]);
    match Pipeline.explain_query pipeline result {|influential("F")|} with
    | Ok [ e ] ->
      check bool' "count verbalized" true
        (Textutil.split_on_string ~sep:"the number of" e.text |> List.length > 1);
      check bool' "count value 2 appears" true
        (Ekg_llm.Omission.contains_phrase e.text "2")
    | Ok _ -> Alcotest.fail "expected one explanation"
    | Error e -> Alcotest.fail e)

(* --- templates --------------------------------------------------------------------- *)

let analysis_4_3 = lazy (Reasoning_path.analyze (program_of example_4_3))

let pi2 () =
  List.find
    (fun p -> Reasoning_path.is_base p && List.length p.Reasoning_path.rules = 3)
    (Lazy.force analysis_4_3).simple_paths

let test_template_tokens () =
  let tpl = Template.of_path glossary_4_3 (pi2 ()) in
  let tokens = Template.tokens tpl in
  (* step 0 = alpha: F, S, P1; step 1 = beta: D, C, V, E; step 2 = gamma *)
  check bool' "alpha tokens present" true
    (List.mem (0, "F") tokens && List.mem (0, "S") tokens && List.mem (0, "P1") tokens);
  check bool' "beta tokens present" true (List.mem (1, "D") tokens && List.mem (1, "E") tokens);
  check bool' "gamma tokens present" true (List.mem (2, "C") tokens)

let test_template_marker_roundtrip () =
  let tpl = Template.of_path glossary_4_3 (pi2 ()) in
  match Template.of_marker_text ~like:tpl (Template.marker_text tpl) with
  | Ok tpl' ->
    check string' "round-trip preserves skeleton" (Template.skeleton tpl)
      (Template.skeleton tpl');
    check bool' "round-trip preserves tokens" true
      (Template.tokens tpl = Template.tokens tpl')
  | Error e -> Alcotest.fail e

let test_template_marker_rejects_unknown () =
  let tpl = Template.of_path glossary_4_3 (pi2 ()) in
  match Template.of_marker_text ~like:tpl "made up <Z#9> token" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown token accepted"

let test_template_missing_tokens () =
  let tpl = Template.of_path glossary_4_3 (pi2 ()) in
  let truncated =
    (* drop everything after the first sentence *)
    let text = Template.marker_text tpl in
    let first = List.hd (Textutil.sentences text) ^ "." in
    match Template.of_marker_text ~like:tpl first with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  check bool' "missing tokens detected" true
    (Template.missing_tokens ~reference:tpl truncated <> [])

(* --- enhancer ------------------------------------------------------------------------ *)

let test_enhancer_token_complete () =
  let a = Lazy.force analysis_4_3 in
  List.iter
    (fun path ->
      let det = Template.of_path glossary_4_3 path in
      let outcome = Enhancer.enhance glossary_4_3 det in
      check bool'
        ("enhanced template is token-complete: " ^ path.Reasoning_path.name)
        true
        (Template.missing_tokens ~reference:det outcome.template = []))
    (a.simple_paths @ a.cycles)

let test_enhancer_drops_chained_clauses () =
  let det = Template.of_path glossary_4_3 (pi2 ()) in
  let outcome = Enhancer.enhance glossary_4_3 det in
  check bool' "chaining redundancy removed" true (outcome.dropped_clauses > 0);
  check bool' "did not fall back" true (not outcome.fell_back)

let test_enhancer_styles_differ () =
  let det = Template.of_path glossary_4_3 (pi2 ()) in
  let s0 = (Enhancer.enhance ~style:0 glossary_4_3 det).template in
  let s1 = (Enhancer.enhance ~style:1 glossary_4_3 det).template in
  check bool' "styles produce different texts" true
    (Template.skeleton s0 <> Template.skeleton s1)

let test_enhancer_guard_catches_faulty_rewriter () =
  (* simulate a hallucinating LLM that deletes a token *)
  let det = Template.of_path glossary_4_3 (pi2 ()) in
  let text = Template.marker_text det in
  let butchered = Textutil.replace_all text ~pattern:"<P1#0>" ~by:"its capital" in
  match Template.of_marker_text ~like:det butchered with
  | Ok candidate -> (
    match Enhancer.guard ~reference:det candidate with
    | Error missing -> check bool' "token loss detected" true (List.mem (0, "P1") missing)
    | Ok _ -> Alcotest.fail "token deletion not caught")
  | Error e -> Alcotest.fail e

(* --- mapping and instantiation (Examples 4.7 and 4.8) --------------------------------- *)

let economy_facts =
  {|
shock("A", 6000000).
hasCapital("A", 5000000).
hasCapital("B", 2000000).
hasCapital("C", 10000000).
debts("A", "B", 7000000).
debts("B", "C", 2000000).
debts("B", "C", 9000000).
|}

let pipeline_4_3 () =
  let { Parser.program; _ } = parse_exn example_4_3 in
  Pipeline.build program glossary_4_3

let run_economy () =
  let { Parser.facts; _ } = parse_exn (example_4_3 ^ economy_facts) in
  let pipeline = pipeline_4_3 () in
  let result =
    match Pipeline.reason pipeline facts with
    | Ok r -> r
    | Error e -> Alcotest.failf "reasoning: %s" e
  in
  (pipeline, result)

let test_mapping_example_4_7 () =
  let pipeline, result = run_economy () in
  match Pipeline.explain_query pipeline result {|default("C")|} with
  | Error e -> Alcotest.fail e
  | Ok [ e ] ->
    (* the paper maps τ = {α,β,γ,β,γ} to the simple path {α,β,γ} plus
       the dashed cycle (their Π3 + Γ2, our Π2 + dashed Γ1) *)
    check bool' "two templates used" true (List.length e.paths_used = 2);
    (match e.mapping.assignments with
    | [ first; second ] ->
      check bool' "simple path first" true
        (first.path.Reasoning_path.kind = Reasoning_path.Simple);
      check bool' "simple path covers alpha beta gamma" true
        (Reasoning_path.rule_ids first.path = [ "alpha"; "beta"; "gamma" ]);
      check bool' "simple path is solid (single contributor)" true
        (Reasoning_path.is_base first.path);
      check bool' "cycle second" true
        (second.path.Reasoning_path.kind = Reasoning_path.Cycle);
      check bool' "cycle is dashed (multi contributor)" true
        (Reasoning_path.is_multi second.path "beta")
    | _ -> Alcotest.fail "expected exactly two assignments");
    check int' "no fallbacks" 0 e.mapping.fallbacks
  | Ok _ -> Alcotest.fail "expected one explanation"

let test_explanation_example_4_8 () =
  let pipeline, result = run_economy () in
  match Pipeline.explain_query pipeline result {|default("C")|} with
  | Error e -> Alcotest.fail e
  | Ok [ e ] ->
    (* every constant of the proof must appear, with the paper's
       aggregation rendering "sum of 2 million euros and 9 million" *)
    let constants = Verbalizer.constant_strings glossary_4_3 e.proof in
    List.iter
      (fun c ->
        check bool' ("constant present: " ^ c) true
          (Ekg_llm.Omission.contains_phrase e.text c))
      constants;
    check bool' "aggregation contributors spelled out" true
      (Ekg_llm.Omission.contains_phrase e.text "2 million euros and 9 million euros");
    check bool' "deterministic text also complete" true
      (Ekg_llm.Omission.retained_ratio ~constants e.deterministic_text = 1.0)
  | Ok _ -> Alcotest.fail "expected one explanation"

let test_explanation_direct_default () =
  let pipeline, result = run_economy () in
  match Pipeline.explain_query pipeline result {|default("A")|} with
  | Error e -> Alcotest.fail e
  | Ok [ e ] ->
    check bool' "single-step proof uses Π1" true
      (e.paths_used = [ "Π1" ]);
    check bool' "one sentence suffices" true
      (Textutil.sentence_count e.text <= 2)
  | Ok _ -> Alcotest.fail "expected one explanation"

let test_explain_with_horizon () =
  let pipeline, result = run_economy () in
  let f =
    match Ekg_engine.Query.parse_and_ask result.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  match Pipeline.explain ~horizon:2 pipeline result f with
  | Error e -> Alcotest.fail e
  | Ok e ->
    check int' "two steps kept" 2 (Ekg_engine.Proof.length e.proof);
    check bool' "assumption preamble present" true
      (Textutil.starts_with ~prefix:"Taking as already established" e.text);
    check bool' "assumed default(B) verbalized" true
      (Ekg_llm.Omission.contains_phrase e.text "B is in default");
    (* the truncated narrative still carries the final-hop constants *)
    List.iter
      (fun phrase ->
        check bool' ("mentions " ^ phrase) true
          (Ekg_llm.Omission.contains_phrase e.text phrase))
      [ "11 million euros"; "10 million euros" ]

let test_explain_edb_rejected () =
  let pipeline, result = run_economy () in
  match Pipeline.explain_query pipeline result {|shock("A", 6000000)|} with
  | Error msg -> check bool' "extensional rejected" true (Textutil.contains_word msg "extensional")
  | Ok _ -> Alcotest.fail "extensional fact explained"

let test_explain_pattern_query () =
  let pipeline, result = run_economy () in
  match Pipeline.explain_query pipeline result "default(X)" with
  | Ok es -> check int' "all three defaults explained" 3 (List.length es)
  | Error e -> Alcotest.fail e

let test_mapping_total_on_random_cascades () =
  (* the mapper must cover every step of arbitrary proofs *)
  let rng = Prng.create 7 in
  let pipeline = pipeline_4_3 () in
  for depth = 0 to 6 do
    let inst = Ekg_datagen.Debts.simple_cascade rng ~depth in
    match Pipeline.reason pipeline inst.edb with
    | Error e -> Alcotest.fail e
    | Ok result -> (
      match Pipeline.explain_atom pipeline result inst.goal with
      | Ok [ e ] ->
        let covered =
          List.fold_left
            (fun acc (a : Proof_mapper.assignment) ->
              acc
              + List.fold_left (fun n (b : Proof_mapper.block) -> n + List.length b.steps) 0
                  a.blocks)
            0 e.mapping.assignments
        in
        check int'
          (Printf.sprintf "all %d steps covered at depth %d"
             (Ekg_engine.Proof.length e.proof) depth)
          (Ekg_engine.Proof.length e.proof) covered
      | Ok _ -> Alcotest.fail "expected one explanation"
      | Error e -> Alcotest.fail e)
  done

let test_ad_hoc_fallback_progresses () =
  (* a proof whose middle step has no enumerated cycle still explains:
     engineered by querying an intermediate predicate (risk) whose
     proofs end mid-path *)
  let pipeline, result = run_economy () in
  match Pipeline.explain_query pipeline result {|risk("B", 7000000)|} with
  | Ok [ e ] -> check bool' "text produced" true (String.length e.text > 0)
  | Ok _ -> Alcotest.fail "expected one explanation"
  | Error e -> Alcotest.fail e

(* --- properties over random programs --------------------------------------------------- *)

(* Random layered programs over an extensional e(X, V): base, join,
   aggregation and self-recursive rule shapes, goal = the top
   predicate.  Small enough to chase exhaustively, rich enough to
   exercise recursion and aggregation in the analysis. *)
let random_program_gen =
  let open QCheck2.Gen in
  let* layers = int_range 1 3 in
  let* shapes =
    (* one or two rule shapes per layer: 0 base, 1 join, 2 agg, 3 self-rec *)
    list_repeat layers (list_size (int_range 1 2) (int_range 0 3))
  in
  let pred i = Printf.sprintf "p%d" i in
  let rules =
    List.concat
      (List.mapi
         (fun i layer_shapes ->
           let this = pred (i + 1) in
           let lower = if i = 0 then "e" else pred i in
           (* guarantee derivability of the layer *)
           let shapes = 0 :: layer_shapes in
           List.mapi
             (fun j shape ->
               let id = Printf.sprintf "%s_%d" this j in
               let src =
                 match shape with
                 | 0 -> Printf.sprintf "%s: e(X, V) -> %s(X, V)." id this
                 | 1 ->
                   Printf.sprintf "%s: %s(X, V), e(X, W) -> %s(X, W)." id lower this
                 | 2 ->
                   Printf.sprintf "%s: %s(X, V), S = sum(V) -> %s(X, S)." id lower this
                 | _ -> Printf.sprintf "%s: %s(X, V), e(X, W) -> %s(X, W)." id this this
               in
               src)
             shapes)
         shapes)
  in
  let* edb_pairs =
    list_size (int_range 1 6) (pair (int_range 0 3) (int_range 1 9))
  in
  let src =
    String.concat "\n" rules
    ^ Printf.sprintf "\n@goal(%s).\n" (pred layers)
    ^ String.concat "\n"
        (List.map
           (fun (x, v) -> Printf.sprintf "e(\"n%d\", %d)." x v)
           (List.sort_uniq compare edb_pairs))
  in
  return src

let prop_analysis_invariants =
  QCheck2.Test.make ~name:"reasoning-path invariants on random programs" ~count:80
    random_program_gen (fun src ->
      match Parser.parse src with
      | Error _ -> false
      | Ok { program; _ } ->
        let a = Reasoning_path.analyze program in
        let all = a.simple_paths @ a.cycles in
        let edge_once (p : Reasoning_path.t) =
          let ids = Reasoning_path.rule_ids p in
          List.length ids = List.length (List.sort_uniq String.compare ids)
        in
        let base_exists paths =
          (* every rule set occurs with an all-solid variant *)
          List.for_all
            (fun p ->
              List.exists
                (fun q ->
                  Reasoning_path.is_base q
                  && List.sort String.compare (Reasoning_path.rule_ids q)
                     = List.sort String.compare (Reasoning_path.rule_ids p))
                paths)
            paths
        in
        let cycles_have_terminals =
          List.for_all
            (fun (c : Reasoning_path.t) -> c.terminals <> [])
            a.cycles
        in
        all <> []
        && List.for_all edge_once all
        && base_exists a.simple_paths
        && base_exists a.cycles
        && cycles_have_terminals)

let prop_random_programs_explain_completely =
  QCheck2.Test.make ~name:"explanations complete on random programs" ~count:60
    random_program_gen (fun src ->
      match Parser.parse src with
      | Error _ -> false
      | Ok { program; facts } -> (
        let glossary = Glossary.make_exn [] in
        let pipeline = Pipeline.build program glossary in
        match Pipeline.reason pipeline facts with
        | Error _ -> false
        | Ok result ->
          let goals = Ekg_engine.Database.active result.db program.goal in
          List.for_all
            (fun f ->
              match Pipeline.explain pipeline result f with
              | Error _ -> false
              | Ok e ->
                let covered =
                  List.fold_left
                    (fun acc (a : Proof_mapper.assignment) ->
                      acc
                      + List.fold_left
                          (fun n (b : Proof_mapper.block) -> n + List.length b.steps)
                          0 a.blocks)
                    0 e.mapping.assignments
                in
                let constants = Verbalizer.constant_strings glossary e.proof in
                covered = Ekg_engine.Proof.length e.proof
                && Ekg_llm.Omission.retained_ratio ~constants e.text = 1.0
                && Ekg_llm.Omission.retained_ratio ~constants e.deterministic_text = 1.0)
            goals))

(* --- the query lane over a shared base ------------------------------------------ *)

(* Company control plus two rules off its magic path: [s4]'s
   existential head puts every [rel] query on the full mode, and [s5]
   derives into [listed], which the EDB also holds, so that full chase
   writes into a column group the base owns. *)
let query_lane_program =
  {|
s1: own(X, Y, S), S > 0.5 -> control(X, Y).
s2: company(X) -> control(X, X).
s3: control(X, Z), own(Z, Y, S), TS = sum(S), TS > 0.5 -> control(X, Y).
s4: control(X, Y) -> rel(Y, Z).
s5: control(X, Y), listed(Y) -> listed(X).
@goal(control).
|}

let query_lane_pipeline =
  lazy
    (Pipeline.build (parse_exn query_lane_program).program
       Ekg_apps.Company_control.glossary)

(* The same program plus [s0], which derives [company] from a
   near-total stake: [company] is then both held in the EDB and derived,
   and it sits on the magic path of every [control] query. *)
let derived_edb_lane_program = "s0: own(X, Y, S), S > 0.9 -> company(X).\n" ^ query_lane_program

let derived_edb_lane_pipeline =
  lazy
    (Pipeline.build (parse_exn derived_edb_lane_program).program
       Ekg_apps.Company_control.glossary)

(* random own/company/listed EDBs over companies c0..c5 *)
let ownership_edb_gen_of stakes =
  let open QCheck2.Gen in
  let company = map (Printf.sprintf "c%d") (int_range 0 5) in
  triple
    (list_size (int_range 0 4) company)
    (list_size (int_range 1 14) (triple company company (oneofl stakes)))
    (list_size (int_range 0 2) company)

let ownership_edb_gen = ownership_edb_gen_of [ 0.2; 0.3; 0.4; 0.6 ]

let ownership_edb (companies, edges, listed) =
  List.map Ekg_apps.Company_control.company companies
  @ List.map (fun (x, y, w) -> Ekg_apps.Company_control.own x y w) edges
  @ List.map (fun x -> Atom.make "listed" [ Term.str x ]) listed

(* every pred/mask combination the property asks, with the mode it
   must take *)
let lane_queries =
  let c = Term.str and v = Term.var in
  let a = "c0" and b = "c1" in
  List.map
    (fun (mode, pred, args) -> (mode, Atom.make pred args))
    [
      `Magic, "control", [ c a; v "X" ];
      `Magic, "control", [ v "X"; c b ];
      `Magic, "control", [ c a; c b ];
      `Edb, "own", [ c a; v "X"; v "S" ];
      `Edb, "own", [ v "X"; c b; v "S" ];
      `Edb, "own", [ c a; c b; v "S" ];
      `Full, "rel", [ c a; v "Z" ];
      `Full, "rel", [ v "X"; c b ];
    ]

(* and, over [derived_edb_lane_program], the derived-and-EDB predicate *)
let derived_edb_lane_queries =
  let c = Term.str and v = Term.var in
  lane_queries
  @ [
      `Magic, Atom.make "company" [ c "c0" ];
      `Magic, Atom.make "company" [ v "X" ];
    ]

let lane_answers (qr : Pipeline.query_result) =
  List.map (fun qa -> Ekg_engine.Fact.to_string qa.Pipeline.qa_fact) qr.q_answers

let lane_texts pipeline (qr : Pipeline.query_result) =
  List.map
    (fun qa ->
      match Pipeline.explain_answer pipeline qr qa with
      | Ok e -> e.text
      | Error e -> "error: " ^ e)
    qr.q_answers

(* The lane as it ran before the shared base: a chase over the whole
   atom list plus the demand seeds, answers read and sorted the same
   way — the reference the overlay path's explanations must equal.
   [None] for an extensional query, which has nothing to explain. *)
let atom_list_reference pipeline spec edb (q : Atom.t) =
  let open Ekg_engine in
  let result ~mode ~sp (res : Chase.result) goal project =
    let answers =
      Query.ask res.db goal
      |> List.map (fun (f, binding) ->
             { Pipeline.qa_fact = project f; qa_internal = f; qa_binding = binding })
      |> List.sort (fun x y ->
             String.compare
               (Fact.to_string x.Pipeline.qa_fact)
               (Fact.to_string y.Pipeline.qa_fact))
    in
    {
      Pipeline.q_answers = answers;
      q_mode = mode;
      q_fallback = None;
      q_scoped = Some res;
      q_sp = sp;
      q_rounds = res.rounds;
      q_derived = res.derived_count;
    }
  in
  let chase program edb =
    match Chase.run_checked program edb with
    | Ok res -> res
    | Error e -> failwith (Chase.error_to_string e)
  in
  match spec with
  | Pipeline.Sp_magic sp ->
    Some
      (result ~mode:`Magic ~sp:(Some sp)
         (chase sp.Magic.sp_program (edb @ Magic.seeds sp q))
         (Magic.goal_atom sp q) (Magic.original_fact sp))
  | Pipeline.Sp_full _ ->
    Some (result ~mode:`Full ~sp:None (chase pipeline.Pipeline.program edb) q Fun.id)
  | Pipeline.Sp_edb -> None

(* the base's encoding (its facts, ids and activation) plus its
   column-group row counts, which the encoding does not cover *)
let base_digest base =
  let b = Buffer.create 256 in
  Ekg_engine.Database.encode b base;
  ( Digest.string (Buffer.contents b),
    List.map (Ekg_engine.Database.pred_card base) [ "own"; "company"; "listed" ] )

let query_base_property ~name ~pipeline ~gen ~lane_queries =
  QCheck2.Test.make ~name ~count:60 gen
    (fun raw ->
      let pipeline : Pipeline.t = Lazy.force pipeline in
      let edb = ownership_edb raw in
      let base_of () =
        match Pipeline.edb_base edb with
        | Ok b -> b
        | Error e -> QCheck2.Test.fail_reportf "base: %s" (Ekg_engine.Chase.error_to_string e)
      in
      let full =
        match Ekg_engine.Chase.run_checked pipeline.program edb with
        | Ok r -> r
        | Error e -> QCheck2.Test.fail_reportf "full: %s" (Ekg_engine.Chase.error_to_string e)
      in
      let spec_of (q : Atom.t) =
        match
          Pipeline.specialize pipeline ~pred:q.pred ~mask:(Ekg_engine.Magic.adornment q)
        with
        | Ok s -> s
        | Error e -> QCheck2.Test.fail_reportf "specialize: %s" e
      in
      let ask base q =
        match Pipeline.query_base pipeline (spec_of q) base q with
        | Ok r -> r
        | Error e ->
          QCheck2.Test.fail_reportf "query %s: %s" (Atom.to_string q)
            (Ekg_engine.Chase.error_to_string e)
      in
      let base = base_of () in
      let digest = base_digest base in
      List.iter
        (fun (mode, q) ->
          let qr = ask base q in
          let cold =
            Ekg_engine.Query.ask full.db q
            |> List.map (fun (f, _) -> Ekg_engine.Fact.to_string f)
            |> List.sort String.compare
          in
          if qr.q_mode <> mode then
            QCheck2.Test.fail_reportf "%s took the wrong mode" (Atom.to_string q);
          if lane_answers qr <> cold then
            QCheck2.Test.fail_reportf "%s: overlay answers [%s], cold chase [%s]"
              (Atom.to_string q)
              (String.concat "; " (lane_answers qr))
              (String.concat "; " cold);
          let texts = lane_texts pipeline qr in
          let expected =
            match atom_list_reference pipeline (spec_of q) edb q with
            | Some reference -> lane_texts pipeline reference
            | None ->
              List.map
                (fun qa ->
                  "error: " ^ Ekg_engine.Fact.to_string qa.Pipeline.qa_fact
                  ^ " is an extensional fact: nothing to explain")
                qr.q_answers
          in
          if texts <> expected then
            QCheck2.Test.fail_reportf "%s: explanations differ from the atom-list path"
              (Atom.to_string q))
        lane_queries;
      if base_digest base <> digest then
        QCheck2.Test.fail_reportf "the queries wrote into the base";
      (* two domains race on a fresh base, index builds included *)
      let shared = base_of () in
      let run () = List.map (fun (_, q) -> lane_answers (ask shared q)) lane_queries in
      let d1 = Domain.spawn run and d2 = Domain.spawn run in
      let a1 = Domain.join d1 and a2 = Domain.join d2 in
      a1 = a2 && a1 = List.map (fun (_, q) -> lane_answers (ask base q)) lane_queries)

let prop_query_base_equals_cold_chase =
  query_base_property
    ~name:"query over a shared base = cold full chase (magic/full/edb modes)"
    ~pipeline:query_lane_pipeline ~gen:ownership_edb_gen ~lane_queries

let prop_query_base_derived_edb =
  query_base_property
    ~name:"query over a shared base = cold full chase (EDB facts of a derived predicate)"
    ~pipeline:derived_edb_lane_pipeline
    ~gen:(ownership_edb_gen_of [ 0.2; 0.3; 0.4; 0.6; 0.95 ])
    ~lane_queries:derived_edb_lane_queries

let core_qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_analysis_invariants;
      prop_random_programs_explain_completely;
      prop_query_base_equals_cold_chase;
      prop_query_base_derived_edb;
    ]

(* --- termination analysis --------------------------------------------------------------- *)

let verdict_of src =
  Termination.analyze (program_of src)

let test_termination_nonrecursive () =
  match verdict_of "p(X) -> q(X). q(X) -> r(X)." with
  | Termination.Terminates why ->
    check bool' "non-recursive" true (Textutil.contains_word why "recursive")
  | Termination.May_diverge _ -> Alcotest.fail "non-recursive flagged"

let test_termination_plain_recursion () =
  match
    verdict_of "e(X, Y) -> path(X, Y). path(X, Z), e(Z, Y) -> path(X, Y). @goal(path)."
  with
  | Termination.Terminates _ -> ()
  | Termination.May_diverge _ -> Alcotest.fail "transitive closure flagged"

let test_termination_monotonic_aggregation () =
  (* the paper's applications: aggregation inside recursion, bounded
     contributors *)
  List.iter
    (fun program ->
      match Termination.analyze program with
      | Termination.Terminates why ->
        check bool' "monotonic argument" true
          (Textutil.contains_word why "monotonic" || Textutil.contains_word why "recursive")
      | Termination.May_diverge rs ->
        Alcotest.failf "paper application flagged: %s" (String.concat "; " rs))
    [ Ekg_apps.Company_control.program; Ekg_apps.Stress_test.program ]

let test_termination_arithmetic_invention () =
  match verdict_of "n(X), Y = X + 1, Y < 10 -> n(Y). @goal(n)." with
  | Termination.May_diverge reasons ->
    check bool' "rule named" true
      (List.exists (fun r -> Textutil.contains_word r "r1") reasons)
  | Termination.Terminates _ -> Alcotest.fail "counter rule accepted"

let test_termination_close_link_flagged () =
  (* cl2 multiplies shares inside recursion: statically unbounded, in
     practice capped by its >= 0.01 materiality floor *)
  match Termination.analyze Ekg_apps.Close_link.program with
  | Termination.May_diverge reasons ->
    check bool' "names cl2" true
      (List.exists (fun r -> Textutil.contains_word r "cl2") reasons)
  | Termination.Terminates _ -> Alcotest.fail "product recursion not flagged"

let test_affected_positions_and_wardedness () =
  let p =
    program_of
      {|
r1: person(X) -> hasParent(X, Y).
r2: hasParent(X, Y) -> person(Y).
@goal(person).
|}
  in
  let affected = Termination.affected_positions p in
  check bool' "hasParent/2 second position affected" true
    (List.mem ("hasParent", 1) affected);
  check bool' "person position affected by propagation" true
    (List.mem ("person", 0) affected);
  check bool' "warded (single-atom bodies)" true (Termination.is_warded p);
  (match Termination.analyze p with
  | Termination.Terminates why ->
    check bool' "warded verdict" true (Textutil.contains_word why "warded")
  | Termination.May_diverge _ -> Alcotest.fail "warded program flagged");
  (* a genuinely unwarded program: two dangerous variables from
     different atoms meeting in the head *)
  let unwarded =
    program_of
      {|
r1: a(X) -> p(X, Y).
r2: b(X) -> q(X, Y).
r3: p(X, U), q(X, V) -> r(U, V).
r4: r(U, V) -> a(U).
@goal(r).
|}
  in
  check bool' "not warded" true (not (Termination.is_warded unwarded))

(* --- report ---------------------------------------------------------------------------- *)

let test_report_render () =
  let pipeline, result = run_economy () in
  match Pipeline.explain_query pipeline result {|default("C")|} with
  | Error e -> Alcotest.fail e
  | Ok [ e ] ->
    let report = Report.of_explanation ~title:"Stress test report" pipeline e in
    let text = Report.render ~width:60 report in
    check bool' "title present" true
      (Textutil.split_on_string ~sep:"Stress test report" text |> List.length > 1);
    check bool' "subject present" true
      (Textutil.split_on_string ~sep:{|default("C")|} text |> List.length > 1);
    (* the narrative body (everything before the appendix) is wrapped;
       the formal appendix keeps one derivation per line *)
    let body_part =
      List.hd (Textutil.split_on_string ~sep:"Appendix" text)
    in
    check bool' "body wrapped at 60" true
      (List.for_all
         (fun l -> String.length l <= 78)
         (String.split_on_char '\n' body_part));
    let md = Report.render_markdown report in
    check bool' "markdown heading" true (Textutil.starts_with ~prefix:"# " md)
  | Ok _ -> Alcotest.fail "expected one explanation"

(* --- template store (§4.4 human-in-the-loop persistence) ------------------------------ *)

let test_store_roundtrip () =
  let pipeline = pipeline_4_3 () in
  let serialized = Template_store.save pipeline in
  match Template_store.load pipeline serialized with
  | Error es -> Alcotest.fail (String.concat "; " es)
  | Ok pipeline' ->
    List.iter2
      (fun (n1, t1) (n2, t2) ->
        check string' "same names" n1 n2;
        check string' ("skeleton preserved: " ^ n1) (Template.skeleton t1)
          (Template.skeleton t2))
      pipeline.enhanced pipeline'.enhanced

let test_store_accepts_hand_edit () =
  let pipeline = pipeline_4_3 () in
  let serialized = Template_store.save pipeline in
  (* an expert rewording that keeps every token *)
  let edited =
    Textutil.replace_all serialized ~pattern:"Given that" ~by:"Considering that"
  in
  match Template_store.load pipeline edited with
  | Ok pipeline' ->
    let _, tpl = List.hd pipeline'.enhanced in
    check bool' "edit visible" true
      (Textutil.split_on_string ~sep:"Considering that" (Template.skeleton tpl)
       |> List.length > 1)
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_store_guard_rejects_token_loss () =
  let pipeline = pipeline_4_3 () in
  let serialized = Template_store.save pipeline in
  (* an expert "simplification" that deletes the capital token *)
  let butchered =
    Textutil.replace_all serialized ~pattern:"<P1#0>" ~by:"its capital"
  in
  match Template_store.load pipeline butchered with
  | Error es ->
    check bool' "guard names the token" true
      (List.exists (fun e -> Textutil.split_on_string ~sep:"P1" e |> List.length > 1) es)
  | Ok _ -> Alcotest.fail "token-losing edit accepted"

let test_store_unknown_name_rejected () =
  let pipeline = pipeline_4_3 () in
  match Template_store.load pipeline "@template Π99\nsome text\n" with
  | Error es -> check bool' "unknown name" true (es <> [])
  | Ok _ -> Alcotest.fail "unknown template name accepted"

let test_store_partial_file_keeps_generated () =
  let pipeline = pipeline_4_3 () in
  (* store only Π1; the rest must keep their generated templates *)
  let tpl_pi1 = List.assoc "Π1" pipeline.enhanced in
  let partial = "@template Π1\n" ^ Template.marker_text tpl_pi1 ^ "\n" in
  match Template_store.load pipeline partial with
  | Ok pipeline' ->
    check int' "same number of templates" (List.length pipeline.enhanced)
      (List.length pipeline'.enhanced)
  | Error es -> Alcotest.fail (String.concat "; " es)

let () =
  Alcotest.run "core"
    [
      ("depgraph", [ Alcotest.test_case "shape" `Quick test_depgraph_shape ]);
      ( "critical",
        [
          Alcotest.test_case "example 4.3" `Quick test_critical_example_4_3;
          Alcotest.test_case "company control" `Quick test_critical_company_control;
          Alcotest.test_case "stress test" `Quick test_critical_stress_test;
          Alcotest.test_case "dag diamond" `Quick test_critical_dag_diamond;
        ] );
      ( "reasoning-paths",
        [
          Alcotest.test_case "example 4.3 (Fig. 4/5)" `Quick test_paths_example_4_3;
          Alcotest.test_case "company control (Fig. 10)" `Quick test_paths_company_control;
          Alcotest.test_case "stress test (Fig. 10)" `Quick test_paths_stress_test;
          Alcotest.test_case "rule order" `Quick test_paths_rule_order;
          Alcotest.test_case "edge-once finiteness" `Quick test_paths_edge_once_finiteness;
          Alcotest.test_case "cycle terminals" `Quick test_paths_cycle_terminals;
        ] );
      ( "glossary",
        [
          Alcotest.test_case "validation" `Quick test_glossary_validation;
          Alcotest.test_case "formats" `Quick test_glossary_formats;
          Alcotest.test_case "parse spec" `Quick test_glossary_parse_spec;
          Alcotest.test_case "parse spec errors" `Quick test_glossary_parse_spec_errors;
        ] );
      ( "verbalizer",
        [
          Alcotest.test_case "atom" `Quick test_verbalize_atom;
          Alcotest.test_case "fallback" `Quick test_verbalize_atom_fallback;
          Alcotest.test_case "single vs multi aggregation" `Quick
            test_verbalize_rule_single_vs_multi;
          Alcotest.test_case "comparison words" `Quick test_verbalize_comparison_words;
          Alcotest.test_case "negation" `Quick test_verbalize_negation;
          Alcotest.test_case "arithmetic" `Quick test_verbalize_arithmetic;
          Alcotest.test_case "count/min/max phrasing" `Quick test_verbalize_count_min_max;
          Alcotest.test_case "count aggregation end to end" `Quick
            test_count_aggregation_end_to_end;
        ] );
      ( "template",
        [
          Alcotest.test_case "tokens" `Quick test_template_tokens;
          Alcotest.test_case "marker round-trip" `Quick test_template_marker_roundtrip;
          Alcotest.test_case "unknown marker rejected" `Quick
            test_template_marker_rejects_unknown;
          Alcotest.test_case "missing tokens" `Quick test_template_missing_tokens;
        ] );
      ( "enhancer",
        [
          Alcotest.test_case "token complete" `Quick test_enhancer_token_complete;
          Alcotest.test_case "drops chained clauses" `Quick
            test_enhancer_drops_chained_clauses;
          Alcotest.test_case "styles differ" `Quick test_enhancer_styles_differ;
          Alcotest.test_case "guard catches faulty rewriter" `Quick
            test_enhancer_guard_catches_faulty_rewriter;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "mapping (Example 4.7)" `Quick test_mapping_example_4_7;
          Alcotest.test_case "explanation (Example 4.8)" `Quick
            test_explanation_example_4_8;
          Alcotest.test_case "direct default" `Quick test_explanation_direct_default;
          Alcotest.test_case "horizon" `Quick test_explain_with_horizon;
          Alcotest.test_case "EDB rejected" `Quick test_explain_edb_rejected;
          Alcotest.test_case "pattern query" `Quick test_explain_pattern_query;
          Alcotest.test_case "mapping total on cascades" `Quick
            test_mapping_total_on_random_cascades;
          Alcotest.test_case "ad hoc fallback" `Quick test_ad_hoc_fallback_progresses;
        ] );
      ( "termination",
        [
          Alcotest.test_case "non-recursive" `Quick test_termination_nonrecursive;
          Alcotest.test_case "plain recursion" `Quick test_termination_plain_recursion;
          Alcotest.test_case "monotonic aggregation" `Quick
            test_termination_monotonic_aggregation;
          Alcotest.test_case "arithmetic invention" `Quick
            test_termination_arithmetic_invention;
          Alcotest.test_case "close link flagged" `Quick
            test_termination_close_link_flagged;
          Alcotest.test_case "affected positions / wardedness" `Quick
            test_affected_positions_and_wardedness;
        ] );
      ("report", [ Alcotest.test_case "render" `Quick test_report_render ]);
      ("properties", core_qsuite);
      ( "template-store",
        [
          Alcotest.test_case "round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "hand edit accepted" `Quick test_store_accepts_hand_edit;
          Alcotest.test_case "token loss rejected" `Quick
            test_store_guard_rejects_token_loss;
          Alcotest.test_case "unknown name rejected" `Quick
            test_store_unknown_name_rejected;
          Alcotest.test_case "partial file" `Quick test_store_partial_file_keeps_generated;
        ] );
    ]
