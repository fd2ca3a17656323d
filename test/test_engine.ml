(* Tests for the chase engine: fact store, body matching, fixpoint
   semantics (set semantics, monotonic aggregation with supersession,
   stratified negation, existential heads with isomorphism preemption),
   provenance well-formedness and proof extraction. *)

open Ekg_kernel
open Ekg_datalog
open Ekg_engine

let check = Alcotest.check
let bool' = Alcotest.bool
let int' = Alcotest.int
let string' = Alcotest.string

let parse_exn src =
  match Parser.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse: %s" e

let run_exn src =
  let { Parser.program; facts } = parse_exn src in
  match Chase.run program facts with
  | Ok r -> r
  | Error e -> Alcotest.failf "chase: %s" e

let actives res pred =
  Database.active res.Chase.db pred |> List.map Fact.to_string |> List.sort String.compare

(* --- database -------------------------------------------------------------- *)

let test_database_dedup () =
  let db = Database.create () in
  let t = [| Value.str "a"; Value.int 1 |] in
  (match Database.add db "p" t with
  | `Added f -> check int' "first id" 0 f.id
  | `Existing _ -> Alcotest.fail "fresh tuple reported existing");
  (match Database.add db "p" [| Value.str "a"; Value.int 1 |] with
  | `Existing f -> check int' "same id" 0 f.id
  | `Added _ -> Alcotest.fail "duplicate tuple added twice");
  check int' "size counts distinct tuples" 1 (Database.size db)

let test_database_numeric_key_equality () =
  let db = Database.create () in
  ignore (Database.add db "p" [| Value.int 2 |]);
  match Database.add db "p" [| Value.num 2.0 |] with
  | `Existing _ -> ()
  | `Added _ -> Alcotest.fail "Int 2 and Num 2.0 should be the same tuple"

let test_database_deactivation () =
  let db = Database.create () in
  let f = match Database.add db "p" [| Value.int 1 |] with `Added f -> f | `Existing f -> f in
  check int' "active before" 1 (List.length (Database.active db "p"));
  Database.deactivate db f.id;
  check int' "inactive after" 0 (List.length (Database.active db "p"));
  check int' "still addressable" f.id (Database.fact db f.id).id;
  check int' "still listed among all" 1 (List.length (Database.all_of_pred db "p"))

let test_database_matching () =
  let db = Database.create () in
  ignore (Database.add db "own" [| Value.str "a"; Value.str "b"; Value.num 0.6 |]);
  ignore (Database.add db "own" [| Value.str "a"; Value.str "c"; Value.num 0.3 |]);
  let pattern = Atom.make "own" [ Term.str "a"; Term.var "Y"; Term.var "S" ] in
  check int' "two matches" 2 (List.length (Database.matching db pattern Subst.empty));
  let bound = Subst.bind Subst.empty "Y" (Value.str "b") in
  check int' "one match under binding" 1 (List.length (Database.matching db pattern bound))

(* --- frozen bases and overlays ------------------------------------------------ *)

let added = function `Added (f : Fact.t) -> f.id | `Existing (f : Fact.t) -> -1 - f.id

let encoded db =
  let b = Buffer.create 256 in
  Database.encode b db;
  Buffer.contents b

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_database_overlay () =
  let base = Database.create () in
  ignore (Database.add base "e" [| Value.str "a"; Value.str "b" |]);
  ignore (Database.add base "e" [| Value.str "b"; Value.str "c" |]);
  check bool' "an unfrozen base cannot be overlaid" true
    (raises_invalid (fun () -> Database.overlay base));
  Database.freeze base;
  let before = encoded base in
  check bool' "frozen: add rejected" true
    (raises_invalid (fun () -> Database.add base "e" [| Value.str "x"; Value.str "y" |]));
  check bool' "frozen: deactivate rejected" true
    (raises_invalid (fun () -> Database.deactivate base 0));
  check bool' "frozen: fresh null rejected" true
    (raises_invalid (fun () -> Database.fresh_null base));
  let ov = Database.overlay base in
  (* ids and value ids continue from the base's *)
  check int' "new fact takes the next id" 2
    (added (Database.add ov "e" [| Value.str "c"; Value.str "d" |]));
  check int' "a base tuple is existing, under its base id" (-1)
    (added (Database.add ov "e" [| Value.str "a"; Value.str "b" |]));
  check int' "new predicate continues the ids" 3
    (added (Database.add ov "m" [| Value.str "a" |]));
  check bool' "new value interned past the base's" true
    (Database.value_id ov (Value.str "d") > Database.value_id ov (Value.str "c")
    && Database.value_id base (Value.str "d") = -1);
  check string' "interned values resolve through" "\"a\""
    (Value.to_string (Database.value_of_id ov (Database.value_id base (Value.str "a"))));
  (* reads merge the base's rows with the overlay's private copy *)
  let e_xy = Atom.make "e" [ Term.var "X"; Term.var "Y" ] in
  check (Alcotest.list int') "overlay matches base and own rows, by id" [ 0; 1; 2 ]
    (List.map (fun ((f : Fact.t), _) -> f.id) (Database.matching ov e_xy Subst.empty));
  check int' "the base still holds two" 2
    (List.length (Database.matching base e_xy Subst.empty));
  check int' "and its column group two rows" 2 (Database.pred_card base "e");
  check int' "pred_card resolves through" 3 (Database.pred_card ov "e");
  check bool' "find_exact on a base fact" true
    (Database.find_exact ov "e" [| Value.str "b"; Value.str "c" |] <> None);
  (* activation changes to base facts stay private *)
  Database.deactivate ov 0;
  check bool' "deactivated in the overlay" false (Database.is_active ov 0);
  check bool' "still active in the base" true (Database.is_active base 0);
  check int' "overlay active size" 3 (Database.active_size ov);
  check bool' "base all active" true (Database.all_active base);
  Database.reactivate ov 0;
  check bool' "reactivated" true (Database.is_active ov 0 && Database.all_active ov);
  (* copies share the base but not the overlay's own state *)
  let cp = Database.copy ov in
  ignore (Database.add cp "m" [| Value.str "z" |]);
  check int' "copy grew" 5 (Database.size cp);
  check int' "overlay did not" 4 (Database.size ov);
  (* the overlay encodes as the whole store: decoding gives a flat
     store holding the same facts under the same ids *)
  let flat = Database.decode (Wire.reader (encoded ov)) in
  check string' "decoded fingerprint" (Database.fingerprint ov) (Database.fingerprint flat);
  check int' "decoded size" (Database.size ov) (Database.size flat);
  check bool' "the base is byte-identical" true (encoded base = before)

let test_database_shared_index () =
  let fill () =
    let base = Database.create () in
    for i = 0 to 99 do
      ignore (Database.add base "e" [| Value.int i; Value.int (i + 1) |])
    done;
    Database.freeze base;
    (base, Option.get (Database.pred_sym base "e"))
  in
  let base, sym = fill () in
  let ov1 = Database.overlay base and ov2 = Database.overlay base in
  check int' "first overlay builds the index" 100
    (Database.ensure_index ov1 ~sym ~arity:2 ~mask:1);
  check int' "second overlay shares it" 0
    (Database.ensure_index ov2 ~sym ~arity:2 ~mask:1);
  check bool' "and can probe it" true
    (Database.index_handle (Option.get (Database.Cols.find ov2 ~sym ~arity:2)) ~mask:1
    <> None);
  (* racing domains: exactly one of them builds *)
  let base, sym = fill () in
  let build () = Database.ensure_index (Database.overlay base) ~sym ~arity:2 ~mask:2 in
  let d1 = Domain.spawn build and d2 = Domain.spawn build in
  check int' "built once across domains" 100 (Domain.join d1 + Domain.join d2)

(* --- columnar storage and hash indexes -------------------------------------- *)

let test_database_columnar_layout () =
  let db = Database.create () in
  ignore (Database.add db "e" [| Value.str "a"; Value.str "b" |]);
  ignore (Database.add db "e" [| Value.str "b"; Value.str "c" |]);
  ignore (Database.add db "e" [| Value.str "a"; Value.str "c" |]);
  let sym = Option.get (Database.pred_sym db "e") in
  let g = Option.get (Database.Cols.find db ~sym ~arity:2) in
  check int' "three rows" 3 (Database.Cols.rows g);
  (* rows are insertion order, columns hold interned ids *)
  for row = 0 to 2 do
    check int' "row maps to fact id" row (Database.Cols.fact_id g row)
  done;
  let a = Database.value_id db (Value.str "a") in
  check bool' "interned" true (a >= 0);
  check int' "col(0,0) = a" a (Database.Cols.col g 0 0);
  check int' "col(0,2) = a" a (Database.Cols.col g 0 2);
  check bool' "value round-trips" true
    (Value.equal (Database.value_of_id db a) (Value.str "a"));
  check int' "unseen value has no id" (-1)
    (Database.value_id db (Value.str "zebra"));
  (* Int/Num interning follows Value.equal, like tuple dedup *)
  ignore (Database.add db "n" [| Value.int 2 |]);
  check int' "Int 2 and Num 2.0 share an id"
    (Database.value_id db (Value.int 2))
    (Database.value_id db (Value.num 2.0))

let test_database_index_probe () =
  let db = Database.create () in
  ignore (Database.add db "e" [| Value.str "a"; Value.str "b" |]);
  ignore (Database.add db "e" [| Value.str "b"; Value.str "c" |]);
  ignore (Database.add db "e" [| Value.str "a"; Value.str "c" |]);
  let sym = Option.get (Database.pred_sym db "e") in
  let g = Option.get (Database.Cols.find db ~sym ~arity:2) in
  check bool' "no index yet" true (Database.index_handle g ~mask:1 = None);
  check int' "index build covers all rows" 3
    (Database.ensure_index db ~sym ~arity:2 ~mask:1);
  check int' "rebuild is incremental (no new rows)" 0
    (Database.ensure_index db ~sym ~arity:2 ~mask:1);
  let hash_of v = Database.key_hash_add 0 (Database.value_id db v) in
  let bucket ~mask hash =
    match Database.index_handle g ~mask with
    | Some h ->
      let b = Database.probe_handle h ~hash in
      List.init (Intvec.length b) (Intvec.get b)
    | None -> Alcotest.fail "fresh index has no handle"
  in
  check bool' "a-bucket holds rows 0 and 2, ascending" true
    (bucket ~mask:1 (hash_of (Value.str "a")) = [ 0; 2 ]);
  check bool' "b-bucket holds row 1" true
    (bucket ~mask:1 (hash_of (Value.str "b")) = [ 1 ]);
  (* staleness: a new row invalidates the handle until re-ensured *)
  ignore (Database.add db "e" [| Value.str "c"; Value.str "d" |]);
  check bool' "stale index yields no handle" true
    (Database.index_handle g ~mask:1 = None);
  check int' "extension indexes only the new row" 1
    (Database.ensure_index db ~sym ~arity:2 ~mask:1);
  check bool' "fresh again" true (Database.index_handle g ~mask:1 <> None);
  (* multi-column mask keys on both columns *)
  ignore (Database.ensure_index db ~sym ~arity:2 ~mask:3);
  let h2 =
    Database.key_hash_add
      (Database.key_hash_add 0 (Database.value_id db (Value.str "a")))
      (Database.value_id db (Value.str "c"))
  in
  check bool' "(a,c) bucket is row 2" true (bucket ~mask:3 h2 = [ 2 ])

let test_database_all_active () =
  let db = Database.create () in
  let f =
    match Database.add db "p" [| Value.int 1 |] with
    | `Added f -> f
    | `Existing f -> f
  in
  check bool' "all active initially" true (Database.all_active db);
  Database.deactivate db f.id;
  check bool' "not all active after deactivate" false (Database.all_active db);
  Database.reactivate db f.id;
  check bool' "all active after reactivate" true (Database.all_active db)

(* --- plain chase ------------------------------------------------------------- *)

let test_chase_transitive_closure () =
  let res =
    run_exn
      {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
e("a", "b"). e("b", "c"). e("c", "d").
|}
  in
  check int' "six paths" 6 (List.length (Database.active res.db "path"))

let test_chase_set_semantics () =
  let res =
    run_exn
      {|
e(X, Y) -> conn(X, Y).
e(Y, X) -> conn(X, Y).
@goal(conn).
e("a", "b"). e("b", "a").
|}
  in
  (* conn(a,b) and conn(b,a), each derivable twice, stored once *)
  check int' "no duplicates" 2 (List.length (Database.active res.db "conn"))

let test_chase_joins_and_conditions () =
  let res =
    run_exn
      {|
own(X, Y, S), S > 0.5 -> majority(X, Y).
@goal(majority).
own("a", "b", 0.6). own("a", "c", 0.5). own("b", "c", 0.51).
|}
  in
  check bool' "only strict majorities" true
    (actives res "majority" = [ {|majority("a", "b")|}; {|majority("b", "c")|} ])

let test_chase_arithmetic_assignment () =
  let res =
    run_exn
      {|
pair(X, A, B), S = A + B * 2 -> total(X, S).
@goal(total).
pair("k", 1, 3).
|}
  in
  check bool' "1 + 3*2 = 7" true (actives res "total" = [ {|total("k", 7)|} ])

(* --- aggregation --------------------------------------------------------------- *)

let test_chase_sum_groups () =
  let res =
    run_exn
      {|
sale(Shop, Amount), T = sum(Amount) -> revenue(Shop, T).
@goal(revenue).
sale("x", 10). sale("x", 20). sale("y", 5).
|}
  in
  check bool' "grouped sums" true
    (actives res "revenue" = [ {|revenue("x", 30)|}; {|revenue("y", 5)|} ])

let test_chase_agg_functions () =
  let res =
    run_exn
      {|
m(K, V), R = max(V) -> maxv(K, R).
m(K, V), R = min(V) -> minv(K, R).
m(K, V), R = count(V) -> cnt(K, R).
m(K, V), R = prod(V) -> prd(K, R).
@goal(maxv).
m("k", 2). m("k", 3). m("k", 4).
|}
  in
  check bool' "max" true (actives res "maxv" = [ {|maxv("k", 4)|} ]);
  check bool' "min" true (actives res "minv" = [ {|minv("k", 2)|} ]);
  check bool' "count" true (actives res "cnt" = [ {|cnt("k", 3)|} ]);
  check bool' "prod" true (actives res "prd" = [ {|prd("k", 24)|} ])

let test_chase_monotonic_aggregation_supersedes () =
  (* C's exposure grows across rounds: first A's 3, then (once B has
     defaulted) also B's 8.  Only the final aggregate stays active; the
     stale one is superseded but kept for provenance. *)
  let res =
    run_exn
      {|
alpha: shock(F, S), hasCapital(F, P1), S > P1 -> default(F).
beta:  default(D), debts(D, C, V), E = sum(V) -> risk(C, E).
gamma: hasCapital(C, P2), risk(C, E), P2 < E -> default(C).
@goal(default).
shock("A", 6). hasCapital("A", 5). hasCapital("B", 2). hasCapital("C", 10).
debts("A", "B", 7). debts("A", "C", 3). debts("B", "C", 8).
|}
  in
  check bool' "all defaults derived" true
    (actives res "default" = [ {|default("A")|}; {|default("B")|}; {|default("C")|} ]);
  check bool' "only final aggregates active" true
    (actives res "risk" = [ {|risk("B", 7)|}; {|risk("C", 11)|} ]);
  (* the superseded risk("C", 3) is still in the chase graph *)
  let all_risk = Database.all_of_pred res.db "risk" |> List.map Fact.to_string in
  check bool' "stale aggregate kept for provenance" true
    (List.mem {|risk("C", 3)|} all_risk);
  let stale =
    Database.all_of_pred res.db "risk"
    |> List.find (fun f -> Fact.to_string f = {|risk("C", 3)|})
  in
  (match Provenance.superseded_by res.prov stale.id with
  | Some newer ->
    check string' "superseded by the full sum" {|risk("C", 11)|}
      (Fact.to_string (Database.fact res.db newer))
  | None -> Alcotest.fail "stale aggregate not marked superseded")

let test_chase_agg_condition_on_result () =
  let res =
    run_exn
      {|
own(X, Y, S), TS = sum(S), TS > 0.5 -> jointly(X, Y).
@goal(jointly).
own("a", "t", 0.3). own("a", "t", 0.3). own("b", "t", 0.3).
|}
  in
  (* the two 0.3 facts for "a" collapse under set semantics: 0.3 each *)
  check bool' "set semantics dedups equal tuples" true (actives res "jointly" = [])

let test_chase_agg_multi_contributors () =
  let res =
    run_exn
      {|
own(X, Y, S), TS = sum(S), TS > 0.5 -> jointly(X, Y).
@goal(jointly).
own("a", "t", 0.3). own("a", "t", 0.31). own("b", "t", 0.3).
|}
  in
  check bool' "0.3 + 0.31 > 0.5" true (actives res "jointly" = [ {|jointly("a", "t")|} ]);
  let f = List.hd (Database.active res.db "jointly") in
  match Provenance.derivation res.prov f.id with
  | Some d -> check int' "two contributors recorded" 2 (List.length d.contributors)
  | None -> Alcotest.fail "no derivation for aggregated fact"

let test_chase_agg_body_vars_in_deferred_condition () =
  (* σ7-style: the deferred condition mentions a body variable (P)
     constant across the group *)
  let res =
    run_exn
      {|
exposure(C, E), capital(C, P), L = sum(E), L > P -> fail(C).
@goal(fail).
exposure("b", 4). exposure("b", 3). capital("b", 6).
exposure("s", 2). capital("s", 6).
|}
  in
  check bool' "4+3 > 6 fails b only" true (actives res "fail" = [ {|fail("b")|} ])

(* --- negation -------------------------------------------------------------------- *)

let test_chase_stratified_negation () =
  let res =
    run_exn
      {|
node(X), not hasEdge(X) -> isolated(X).
edge(X, Y) -> hasEdge(X).
@goal(isolated).
node("a"). node("b"). edge("a", "c").
|}
  in
  check bool' "only b isolated" true (actives res "isolated" = [ {|isolated("b")|} ])

let test_chase_three_strata () =
  (* negation over negation: needs three strata *)
  let res =
    run_exn
      {|
edge(X, Y) -> linked(X).
node(X), not linked(X) -> isolated(X).
node(X), not isolated(X) -> connected(X).
@goal(connected).
node("a"). node("b"). edge("a", "z").
|}
  in
  check bool' "a connected" true (actives res "connected" = [ {|connected("a")|} ]);
  check bool' "b isolated" true (actives res "isolated" = [ {|isolated("b")|} ])

let test_chase_unstratifiable_rejected () =
  let { Parser.program; facts } =
    parse_exn {|
p(X), not q(X) -> q(X).
@goal(q).
p("a").
|}
  in
  match Chase.run program facts with
  | Error msg ->
    check bool' "mentions stratification" true
      (Textutil.contains_word msg "stratifiable"
      || Textutil.contains_word msg "negation")
  | Ok _ -> Alcotest.fail "recursion through negation accepted"

(* --- existentials ------------------------------------------------------------------ *)

let test_chase_existential_nulls () =
  let res =
    run_exn {|
person(X) -> hasParent(X, Y).
@goal(hasParent).
person("a").
|}
  in
  match Database.active res.db "hasParent" with
  | [ f ] -> check bool' "second arg is a null" true (Value.is_null (Fact.arg f 1))
  | other -> Alcotest.failf "expected one fact, got %d" (List.length other)

let test_chase_isomorphism_preemption () =
  (* the recursive existential would run forever without preemption *)
  let res =
    run_exn
      {|
person(X) -> hasParent(X, Y).
hasParent(X, Y) -> person(Y).
@goal(hasParent).
person("a").
|}
  in
  (* a gets a parent ν0; ν0 is a person; ν0's parent is pre-empted by…
     itself being isomorphic to the existing hasParent(ν0, ·)? No: the
     preemption is per non-existential prefix, so hasParent(ν0, ν1) is
     blocked only when a hasParent(ν0, _) already exists.  The chain
     stops after one extra level. *)
  check bool' "terminates" true (res.rounds < 100);
  check bool' "bounded materialization" true (Database.size res.db < 20)

let test_chase_existential_satisfied_by_data () =
  let res =
    run_exn
      {|
person(X) -> hasParent(X, Y).
@goal(hasParent).
person("a"). hasParent("a", "b").
|}
  in
  (* a parent is already known: the chase step is pre-empted *)
  check int' "no null introduced" 1 (List.length (Database.active res.db "hasParent"))

(* --- termination guard --------------------------------------------------------------- *)

let test_chase_max_rounds () =
  let { Parser.program; facts } =
    parse_exn
      {|
n(X), Y = X + 1, Y < 1000000 -> n(Y).
@goal(n).
n(0).
|}
  in
  match Chase.run ~max_rounds:50 program facts with
  | Error msg -> check bool' "guard fired" true (Textutil.contains_word msg "50")
  | Ok _ -> Alcotest.fail "expected max_rounds error"

(* --- provenance and proofs ------------------------------------------------------------- *)

let example_economy =
  {|
alpha: shock(F, S), hasCapital(F, P1), S > P1 -> default(F).
beta:  default(D), debts(D, C, V), E = sum(V) -> risk(C, E).
gamma: hasCapital(C, P2), risk(C, E), P2 < E -> default(C).
@goal(default).
shock("A", 6). hasCapital("A", 5). hasCapital("B", 2). hasCapital("C", 10).
debts("A", "B", 7). debts("B", "C", 2). debts("B", "C", 9).
|}

let test_provenance_well_formed () =
  let res = run_exn example_economy in
  List.iter
    (fun id ->
      match Provenance.derivation res.prov id with
      | None -> Alcotest.fail "derived id without derivation"
      | Some d ->
        (* premises must exist and precede the conclusion *)
        List.iter
          (fun p ->
            if p >= id then Alcotest.failf "premise %d does not precede fact %d" p id)
          d.premises)
    (Provenance.derived_ids res.prov)

let test_proof_tau_order () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  match Proof.of_fact res.db res.prov f with
  | None -> Alcotest.fail "no proof"
  | Some proof ->
    check bool' "tau = alpha beta gamma beta gamma" true
      (Proof.rule_sequence proof = [ "alpha"; "beta"; "gamma"; "beta"; "gamma" ]);
    check int' "five chase steps" 5 (Proof.length proof);
    let multi_steps = List.filter (fun (s : Proof.step) -> s.multi) proof.steps in
    check int' "exactly one multi-contributor step" 1 (List.length multi_steps);
    (* premises precede conclusions in tau *)
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (s : Proof.step) ->
        List.iter
          (fun (p : Fact.t) ->
            match Provenance.derivation res.prov p.id with
            | Some _ when not (Hashtbl.mem seen p.id) ->
              Alcotest.fail "premise appears after its use"
            | _ -> ())
          s.premises;
        Hashtbl.replace seen s.fact.id ())
      proof.steps

let test_proof_constants () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  let proof = Option.get (Proof.of_fact res.db res.prov f) in
  let constants = List.map Value.to_display (Proof.constants proof) in
  List.iter
    (fun c ->
      check bool' ("proof mentions " ^ c) true (List.mem c constants))
    [ "A"; "B"; "C"; "6"; "5"; "2"; "10"; "7"; "9"; "11" ]

let test_alternative_derivations_recorded () =
  (* the goal is derivable both through a chain and directly; the
     later-arriving derivation is kept as an alternative *)
  let res =
    run_exn
      {|
chain1: a(X) -> m(X).
chain2: m(X) -> goal(X).
direct: a(X), z(X) -> goal(X).
@goal(goal).
a("k"). z("k").
|}
  in
  let f =
    match Query.parse_and_ask res.db {|goal("k")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "goal missing"
  in
  check bool' "at least two derivations" true
    (List.length (Provenance.alternatives res.prov f.id) >= 2)

let test_shortest_proof_selection () =
  (* the goal has a wide 5-step derivation (four parallel w-facts feed
     [direct]) and a narrow 3-step chain.  The wide one completes a
     round earlier — rounds match against the pre-round database, so
     the chain needs three rounds while the w-facts all land in round
     one — making it the primary; shortest-proof selection must then
     recover the chain *)
  let res =
    run_exn
      {|
chain1: a(X) -> m1(X).
chain2: m1(X) -> m2(X).
chain3: m2(X) -> goal(X).
w1: a(X) -> wa(X).
w2: a(X) -> wb(X).
w3: a(X) -> wc(X).
w4: a(X) -> wd(X).
direct: wa(X), wb(X), wc(X), wd(X) -> goal(X).
@goal(goal).
a("k").
|}
  in
  let f =
    match Query.parse_and_ask res.db {|goal("k")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "goal missing"
  in
  let primary = Option.get (Proof.of_fact res.db res.prov f) in
  let shortest = Option.get (Proof.shortest_of_fact res.db res.prov f) in
  check int' "primary is the wide derivation" 5 (Proof.length primary);
  check bool' "primary uses the direct rule" true
    (List.mem "direct" (Proof.rule_sequence primary));
  check int' "shortest follows the chain" 3 (Proof.length shortest);
  check bool' "shortest is the chain" true
    (Proof.rule_sequence shortest = [ "chain1"; "chain2"; "chain3" ])

let test_shortest_equals_primary_when_unique () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  let primary = Option.get (Proof.of_fact res.db res.prov f) in
  let shortest = Option.get (Proof.shortest_of_fact res.db res.prov f) in
  check bool' "identical when derivations are unique" true
    (Proof.rule_sequence primary = Proof.rule_sequence shortest)

let test_proof_truncate () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  let proof = Option.get (Proof.of_fact res.db res.prov f) in
  (* horizon 2: keep default(C) <- risk(C,11) <- default(B); default(B)'s
     own derivation (risk(B,7), default(A)) falls outside *)
  let truncated, assumed = Proof.truncate proof ~horizon:2 in
  check bool' "kept the last two hops" true
    (Proof.rule_sequence truncated = [ "beta"; "gamma" ]);
  check bool' "default(B) is assumed" true
    (List.exists (fun (a : Fact.t) -> Fact.to_string a = {|default("B")|}) assumed);
  (* a wide horizon is the identity *)
  let full, none = Proof.truncate proof ~horizon:100 in
  check int' "identity beyond depth" (Proof.length proof) (Proof.length full);
  check bool' "no assumptions" true (none = []);
  Alcotest.check_raises "horizon must be positive"
    (Invalid_argument "Proof.truncate: horizon must be >= 1") (fun () ->
      ignore (Proof.truncate proof ~horizon:0))

let test_proof_edb_fact_has_none () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|shock("A", 6)|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "shock missing"
  in
  check bool' "EDB facts have no proof" true (Proof.of_fact res.db res.prov f = None)

(* --- negative constraints ------------------------------------------------------------ *)

let test_constraint_violation () =
  let { Parser.program; facts } =
    parse_exn
      {|
r1: employee(X) -> person(X).
c1: person(X), robot(X) -> false.
@goal(person).
employee("ada"). robot("ada").
|}
  in
  match Chase.run program facts with
  | Error msg ->
    check bool' "names the constraint" true (Textutil.contains_word msg "c1");
    check bool' "names a triggering fact" true (Textutil.contains_word msg "robot")
  | Ok _ -> Alcotest.fail "violated constraint accepted"

let test_constraint_satisfied () =
  let { Parser.program; facts } =
    parse_exn
      {|
r1: employee(X) -> person(X).
c1: person(X), robot(X) -> false.
@goal(person).
employee("ada"). robot("hal").
|}
  in
  match Chase.run program facts with
  | Ok res -> check int' "person derived" 1 (List.length (Database.active res.db "person"))
  | Error e -> Alcotest.failf "consistent instance rejected: %s" e

let test_constraint_with_negation () =
  let { Parser.program; facts } =
    parse_exn
      {|
g: approved(X), not reviewed(X) -> false.
r: request(X) -> pending(X).
@goal(pending).
request("a"). approved("a").
|}
  in
  match Chase.run program facts with
  | Error msg -> check bool' "negation-guarded constraint fires" true (Textutil.contains_word msg "g")
  | Ok _ -> Alcotest.fail "unreviewed approval accepted"

(* --- exports --------------------------------------------------------------------------- *)

let test_export_proof_dot () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  let proof = Option.get (Proof.of_fact res.db res.prov f) in
  let dot = Export.proof_dot res.db proof in
  check bool' "dot header" true (Textutil.starts_with ~prefix:"digraph proof" dot);
  (* DOT escapes the inner quotes of fact renderings *)
  check bool' "mentions the goal" true
    (List.length (Textutil.split_on_string ~sep:{|default(\"C\")|} dot) > 1);
  check bool' "mentions rule labels" true
    (List.length (Textutil.split_on_string ~sep:"gamma" dot) > 1)

let test_export_chase_graph_dot () =
  (* staggered contributions so a superseded aggregate exists *)
  let res =
    run_exn
      {|
alpha: shock(F, S), hasCapital(F, P1), S > P1 -> default(F).
beta:  default(D), debts(D, C, V), E = sum(V) -> risk(C, E).
gamma: hasCapital(C, P2), risk(C, E), P2 < E -> default(C).
@goal(default).
shock("A", 6). hasCapital("A", 5). hasCapital("B", 2). hasCapital("C", 10).
debts("A", "B", 7). debts("A", "C", 3). debts("B", "C", 8).
|}
  in
  let dot = Export.chase_graph_dot res in
  check bool' "contains superseded aggregate too" true
    (List.length (Textutil.split_on_string ~sep:{|risk(\"C\", 3)|} dot) > 1);
  check bool' "contains the final aggregate" true
    (List.length (Textutil.split_on_string ~sep:{|risk(\"C\", 11)|} dot) > 1)

let test_export_instance_dot () =
  let res = run_exn example_economy in
  let dot = Export.instance_dot ~preds:[ "debts" ] res.db in
  check bool' "binary-with-value edge" true
    (List.length (Textutil.split_on_string ~sep:"debts(7)" dot) > 1
    || List.length (Textutil.split_on_string ~sep:"debts" dot) > 1);
  check bool' "filtered predicates only" true
    (List.length (Textutil.split_on_string ~sep:"hasCapital" dot) = 1)

(* --- why-provenance -------------------------------------------------------------------- *)

let test_why_single_witness () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  match Why.why res.db res.prov f with
  | [ witness ] ->
    (* the single witness is exactly the proof's extensional support *)
    let names = List.map Fact.to_string witness in
    List.iter
      (fun w -> check bool' ("witness contains " ^ w) true (List.mem w names))
      [ {|shock("A", 6)|}; {|debts("A", "B", 7)|}; {|hasCapital("C", 10)|} ];
    check bool' "only extensional facts" true
      (List.for_all (fun (w : Fact.t) -> Provenance.is_edb res.prov w.id) witness)
  | ws -> Alcotest.failf "expected one witness, got %d" (List.length ws)

let test_why_alternative_witnesses () =
  let res =
    run_exn
      {|
chain1: a(X) -> m(X).
chain2: m(X) -> goal(X).
direct: b(X) -> goal(X).
@goal(goal).
a("k"). b("k").
|}
  in
  let f =
    match Query.parse_and_ask res.db {|goal("k")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "goal missing"
  in
  let witnesses = Why.why res.db res.prov f in
  check int' "two independent witnesses" 2 (List.length witnesses);
  let poly = Why.polynomial res.db res.prov f in
  check bool' "polynomial is a sum" true
    (List.length (Textutil.split_on_string ~sep:" + " poly) = 2)

let test_why_minimality () =
  (* goal via b alone and via a·b: only the minimal witness {b} remains *)
  let res =
    run_exn
      {|
both: a(X), b(X) -> goal(X).
single: b(X) -> goal(X).
@goal(goal).
a("k"). b("k").
|}
  in
  let f =
    match Query.parse_and_ask res.db {|goal("k")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "goal missing"
  in
  match Why.why res.db res.prov f with
  | [ [ w ] ] -> check string' "minimal witness is b" {|b("k")|} (Fact.to_string w)
  | ws -> Alcotest.failf "expected the single minimal witness, got %d" (List.length ws)

let test_why_edb_is_itself () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|shock("A", 6)|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "shock missing"
  in
  match Why.why res.db res.prov f with
  | [ [ w ] ] -> check int' "its own witness" f.id w.id
  | _ -> Alcotest.fail "EDB fact must be its own single witness"

(* --- magic sets ----------------------------------------------------------------------- *)

let tc_program =
  {|
base: e(X, Y) -> path(X, Y).
step: path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}

let chain_edb n =
  List.init n (fun i ->
      Atom.make "e"
        [
          Term.str (Printf.sprintf "n%d" i); Term.str (Printf.sprintf "n%d" (i + 1));
        ])

let test_magic_prunes () =
  let { Parser.program; _ } = parse_exn tc_program in
  let edb = chain_edb 20 in
  let q =
    Atom.make "path" [ Term.str "n0"; Term.var "Y" ]
  in
  match Magic.answer program edb q, Chase.run program edb with
  | Ok a, Ok full ->
    check bool' "goal-directed path taken" true a.pruned;
    check int' "answers match the full chase" 20 (List.length a.facts);
    check bool' "fewer facts materialized" true (a.derived_count < full.derived_count)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_magic_adornments () =
  check Alcotest.string "bf" "bf"
    (Magic.adornment (Atom.make "p" [ Term.str "c"; Term.var "X" ]));
  check Alcotest.string "ff" "ff"
    (Magic.adornment (Atom.make "p" [ Term.var "X"; Term.var "Y" ]));
  check Alcotest.string "bb" "bb"
    (Magic.adornment (Atom.make "p" [ Term.int 1; Term.str "c" ]))

let test_magic_rejects_bad_queries () =
  let { Parser.program; _ } = parse_exn tc_program in
  (match Magic.rewrite program (Atom.make "nosuch" [ Term.var "X" ]) with
  | Error msg -> check bool' "unknown predicate" true (Textutil.contains_word msg "nosuch")
  | Ok _ -> Alcotest.fail "unknown predicate accepted");
  match Magic.rewrite program (Atom.make "e" [ Term.var "X"; Term.var "Y" ]) with
  | Error msg -> check bool' "extensional query" true (Textutil.contains_word msg "extensional")
  | Ok _ -> Alcotest.fail "extensional query rewritten"

let test_magic_prunes_aggregation () =
  let { Parser.program; facts } =
    parse_exn
      {|
sale(Shop, V), T = sum(V) -> revenue(Shop, T).
@goal(revenue).
sale("x", 1). sale("x", 2). sale("y", 5).
|}
  in
  (match Magic.answer program facts (Atom.make "revenue" [ Term.str "x"; Term.var "T" ]) with
  | Ok a ->
    check bool' "aggregation is in the magic fragment now" true a.pruned;
    (match a.facts with
    | [ f ] -> check string' "sum restricted to the demanded group" {|revenue("x", 3)|} (Fact.to_string f)
    | fs -> Alcotest.failf "expected one answer, got %d" (List.length fs))
  | Error e -> Alcotest.fail e);
  (* binding the aggregate result itself is outside the fragment *)
  match Magic.answer program facts (Atom.make "revenue" [ Term.str "x"; Term.int 3 ]) with
  | Ok a ->
    check bool' "bound aggregate result falls back" true (not a.pruned);
    check int' "still answers" 1 (List.length a.facts)
  | Error e -> Alcotest.fail e

let gp_program =
  {|
g1: acquisition(B, T, S), strategic(T), S > 0.1, not euEntity(B) -> goldenPower(B, T).
g2: goldenPower(B, T), not vetted(B, T) -> blockedDeal(B, T).
c1: vetted(B, T), not goldenPower(B, T) -> false.
@goal(blockedDeal).
|}

let gp_edb =
  (* a crowd of unrelated buyers: the full chase derives a golden-power
     and blocked-deal fact per buyer, the buyerA-scoped chase only its
     own slice *)
  List.concat
    (List.init 20 (fun i ->
         let b = Printf.sprintf "crowd%d" i in
         [
           Atom.make "acquisition" [ Term.str b; Term.str "gridCo"; Term.num 0.2 ];
         ]))
  @ [
      Atom.make "acquisition" [ Term.str "buyerA"; Term.str "gridCo"; Term.num 0.2 ];
      Atom.make "acquisition" [ Term.str "buyerB"; Term.str "gridCo"; Term.num 0.3 ];
      Atom.make "acquisition" [ Term.str "buyerC"; Term.str "railCo"; Term.num 0.4 ];
      Atom.make "strategic" [ Term.str "gridCo" ];
      Atom.make "strategic" [ Term.str "railCo" ];
      Atom.make "euEntity" [ Term.str "buyerB" ];
      Atom.make "vetted" [ Term.str "buyerC"; Term.str "railCo" ];
    ]

let test_magic_negation () =
  let { Parser.program; _ } = parse_exn gp_program in
  let q = Atom.make "blockedDeal" [ Term.str "buyerA"; Term.var "T" ] in
  match Magic.answer program gp_edb q, Chase.run program gp_edb with
  | Ok a, Ok full ->
    check bool' "negation is in the magic fragment now" true a.pruned;
    let magic_answers = List.map Fact.to_string a.facts |> List.sort String.compare in
    let full_answers =
      Query.ask full.db q |> List.map (fun (f, _) -> Fact.to_string f)
      |> List.sort String.compare
    in
    check Alcotest.(list string) "answers match the full chase" full_answers magic_answers;
    check bool' "fewer facts materialized" true (a.derived_count < full.derived_count)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_magic_detects_inconsistency () =
  let { Parser.program; _ } = parse_exn gp_program in
  (* vetted without golden power: c1 fires on the full instance even
     though the queried slice (buyerA) never touches it *)
  let bad =
    Atom.make "vetted" [ Term.str "buyerD"; Term.str "gridCo" ] :: gp_edb
  in
  let q = Atom.make "blockedDeal" [ Term.str "buyerA"; Term.var "T" ] in
  (match Chase.run program bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "full chase accepted an inconsistent base");
  match Magic.answer program bad q with
  | Error e ->
    check bool' "scoped chase reports the same inconsistency" true
      (Ekg_kernel.Textutil.contains_word e "constraint"
      || Ekg_kernel.Textutil.contains_word e "inconsistent")
  | Ok _ -> Alcotest.fail "scoped chase missed the constraint violation"

let test_magic_free_mask () =
  let { Parser.program; _ } = parse_exn tc_program in
  let edb = chain_edb 8 in
  let q = Atom.make "path" [ Term.var "X"; Term.var "Y" ] in
  match Magic.answer program edb q, Chase.run program edb with
  | Ok a, Ok full ->
    check bool' "all-free mask still rewrites (0-ary demand)" true a.pruned;
    check int' "same answers as the full chase"
      (List.length (Query.ask full.db q))
      (List.length a.facts)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_magic_existential_falls_back () =
  let { Parser.program; facts } =
    parse_exn
      {|
company(X) -> keyPerson(X, P).
@goal(keyPerson).
company("a").
|}
  in
  match Magic.answer program facts (Atom.make "keyPerson" [ Term.str "a"; Term.var "P" ]) with
  | Ok a ->
    check bool' "existential heads fall back" true (not a.pruned);
    check int' "still answers" 1 (List.length a.facts)
  | Error e -> Alcotest.fail e

let test_magic_unadorn_proof () =
  let { Parser.program; _ } = parse_exn tc_program in
  let edb = chain_edb 6 in
  let q = Atom.make "path" [ Term.str "n0"; Term.str "n3" ] in
  match Magic.specialize program ~pred:"path" ~mask:"bb" with
  | Error e -> Alcotest.fail e
  | Ok sp -> (
    match Chase.run sp.Magic.sp_program (edb @ Magic.seeds sp q) with
    | Error e -> Alcotest.fail e
    | Ok res -> (
      match Query.ask res.db (Magic.goal_atom sp q) with
      | [] -> Alcotest.fail "no scoped answer"
      | (f, _) :: _ -> (
        match Proof.of_fact res.db res.prov f with
        | None -> Alcotest.fail "scoped answer has no proof"
        | Some proof ->
          let plain = Magic.unadorn_proof sp proof in
          check string' "goal renamed" {|path("n0", "n3")|}
            (Fact.to_string plain.Proof.goal);
          let ids = Program.rule_ids program in
          List.iteri
            (fun i (s : Proof.step) ->
              check int' "steps re-indexed" i s.Proof.index;
              check bool'
                ("rule id restored: " ^ s.Proof.rule_id)
                true (List.mem s.Proof.rule_id ids);
              List.iter
                (fun (p : Fact.t) ->
                  check bool' "no magic premises" false
                    (List.mem p.Fact.pred sp.Magic.sp_magic_preds))
                (s.Proof.fact :: s.Proof.premises))
            plain.Proof.steps)))

(* Company control plus a rule deriving [company], which the EDB also
   holds: the magic query must still see the EDB's [company("c0")] *)
let derived_edb_program =
  {|
sigma0: own(X, Y, S), S > 0.9 -> company(X).
sigma1: own(X, Y, S), S > 0.5 -> control(X, Y).
sigma2: company(X) -> control(X, X).
sigma3: control(X, Z), own(Z, Y, S), TS = sum(S), TS > 0.5 -> control(X, Y).
@goal(control).
|}

let test_magic_edb_of_derived_pred () =
  let { Parser.program; _ } = parse_exn derived_edb_program in
  let edb =
    [
      Ekg_apps.Company_control.company "c0";
      Ekg_apps.Company_control.own "c1" "c2" 0.95;
    ]
  in
  let answers q =
    match Magic.answer program edb q, Chase.run program edb with
    | Ok a, Ok full ->
      check bool' "goal-directed path taken" true a.pruned;
      let sorted l = List.sort String.compare (List.map Fact.to_string l) in
      let full_answers = sorted (List.map fst (Query.ask full.db q)) in
      check (Alcotest.list string') ("magic = full for " ^ Atom.to_string q)
        full_answers (sorted a.facts);
      full_answers
    | Error e, _ | _, Error e -> Alcotest.fail e
  in
  check (Alcotest.list string') "the EDB's company fact reaches control"
    [ {|control("c0", "c0")|} ]
    (answers (Atom.make "control" [ Term.str "c0"; Term.var "X" ]));
  check int' "derived and EDB company facts both answer" 2
    (List.length (answers (Atom.make "company" [ Term.var "X" ])));
  (* the proof: the copied fact is an extensional leaf, as in the full
     chase, and a copied goal has nothing to explain *)
  let proof_of q =
    match Magic.specialize program ~pred:q.Atom.pred ~mask:(Magic.adornment q) with
    | Error e -> Alcotest.fail e
    | Ok sp -> (
      match Chase.run sp.Magic.sp_program (edb @ Magic.seeds sp q) with
      | Error e -> Alcotest.fail e
      | Ok res -> (
        match Query.ask res.db (Magic.goal_atom sp q) with
        | [ (f, _) ] -> (
          match Proof.of_fact res.db res.prov f with
          | Some proof -> Magic.unadorn_proof sp proof
          | None -> Alcotest.fail "the scoped answer has no proof")
        | l -> Alcotest.failf "%d scoped answers" (List.length l)))
  in
  let control = proof_of (Atom.make "control" [ Term.str "c0"; Term.str "c0" ]) in
  check (Alcotest.list string') "one sigma2 step over the EDB fact"
    [ {|sigma2: control("c0", "c0") <= company("c0")|} ]
    (List.map
       (fun (s : Proof.step) ->
         Printf.sprintf "%s: %s <= %s" s.Proof.rule_id (Fact.to_string s.Proof.fact)
           (String.concat ", " (List.map Fact.to_string s.Proof.premises)))
       control.Proof.steps);
  check int' "a copied goal has no step" 0
    (Proof.length (proof_of (Atom.make "company" [ Term.str "c0" ])))

let prop_magic_equals_full_chase =
  QCheck2.Test.make ~name:"magic answers = full-chase answers" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 15) (pair (int_range 0 5) (int_range 0 5)))
        (int_range 0 5))
    (fun (raw, start) ->
      let edb =
        List.map
          (fun (i, j) ->
            Atom.make "e"
              [ Term.str (Printf.sprintf "n%d" i); Term.str (Printf.sprintf "n%d" j) ])
          raw
      in
      let { Parser.program; _ } = parse_exn tc_program in
      let q =
        Atom.make "path" [ Term.str (Printf.sprintf "n%d" start); Term.var "Y" ]
      in
      match Magic.answer program edb q, Chase.run program edb with
      | Ok a, Ok full ->
        let magic_answers =
          List.map Fact.to_string a.facts |> List.sort String.compare
        in
        let full_answers =
          Query.ask full.db q
          |> List.map (fun (f, _) -> Fact.to_string f)
          |> List.sort String.compare
        in
        a.pruned && magic_answers = full_answers
        && a.derived_count <= full.derived_count
      | _ -> false)

(* The serving property behind the query lane: specializing for a
   bound/free pattern, seeding with the query constants and chasing the
   rewritten program answers exactly what filtering
   the full materialization answers — for plain, negated and
   aggregating programs alike, inconsistency detection included. *)
let ql_plain =
  {|
base: e(X, Y) -> path(X, Y).
step: path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}

let ql_negation =
  {|
n1: e(X, Y) -> path(X, Y).
n2: path(X, Z), e(Z, Y) -> path(X, Y).
n3: node(X), node(Y), not path(X, Y) -> unreachable(X, Y).
@goal(unreachable).
|}

let ql_aggregation =
  {|
a1: e(X, Y) -> reach(X, Y).
a2: reach(X, Z), e(Z, Y) -> reach(X, Y).
a3: reach(X, Y), w(Y, V), T = sum(V) -> inflow(X, T).
@goal(inflow).
|}

let prop_query_lane_equals_materialization =
  QCheck2.Test.make
    ~name:"query lane = filtered materialization (plain/neg/agg, any mask)"
    ~count:120
    QCheck2.Gen.(
      tup4 (int_range 0 2)
        (list_size (int_range 0 12) (pair (int_range 0 4) (int_range 0 4)))
        (pair bool bool)
        (pair (int_range 0 4) (int_range 0 4)))
    (fun (which, raw, (b1, b2), (c1, c2)) ->
      let node i = Printf.sprintf "n%d" i in
      let edb =
        List.concat_map
          (fun (i, j) ->
            [
              Atom.make "e" [ Term.str (node i); Term.str (node j) ];
              Atom.make "w" [ Term.str (node j); Term.int (1 + ((i + j) mod 3)) ];
            ])
          raw
        @ List.init 5 (fun i -> Atom.make "node" [ Term.str (node i) ])
      in
      let source, pred =
        match which with
        | 0 -> ql_plain, "path"
        | 1 -> ql_negation, "unreachable"
        | _ -> ql_aggregation, "inflow"
      in
      let { Parser.program; _ } = parse_exn source in
      let arg bound c name = if bound then Term.str (node c) else Term.var name in
      let q =
        if which = 2 then
          (* inflow's second column is the aggregate result: only its
             first column admits a bound position *)
          Atom.make pred [ arg b1 c1 "X"; Term.var "T" ]
        else Atom.make pred [ arg b1 c1 "X"; arg b2 c2 "Y" ]
      in
      let full = Chase.run_checked program edb in
      let scoped =
        match Magic.specialize program ~pred ~mask:(Magic.adornment q) with
        | Error e -> Error ("specialize: " ^ e)
        | Ok sp -> (
          match
            Chase.run_checked sp.Magic.sp_program
              (edb @ Magic.seeds sp q)
          with
          | Error err -> Error (Chase.error_to_string err)
          | Ok res ->
            Ok
              (Query.ask res.db (Magic.goal_atom sp q)
              |> List.map (fun (f, _) ->
                     Fact.to_string (Magic.original_fact sp f))
              |> List.sort String.compare))
      in
      match full, scoped with
      | Error _, Error _ -> true
      | Ok full, Ok scoped ->
        let filtered =
          Query.ask full.db q
          |> List.map (fun (f, _) -> Fact.to_string f)
          |> List.sort String.compare
        in
        scoped = filtered
      | Ok _, Error e -> QCheck2.Test.fail_reportf "scoped failed: %s" e
      | Error e, Ok _ ->
        QCheck2.Test.fail_reportf "full failed where scoped succeeded: %s"
          (Chase.error_to_string e))

(* --- io ---------------------------------------------------------------------------- *)

let test_csv_parsing () =
  let csv = {|# comment
"A",14000000
"B, Inc.",2.5
"quote""inside",true
|} in
  match Io.facts_of_csv ~pred:"p" csv with
  | Error e -> Alcotest.fail e
  | Ok facts ->
    check int' "three facts" 3 (List.length facts);
    (match facts with
    | [ a; b; c ] ->
      check string' "plain string + int" {|p("A", 14000000)|} (Atom.to_string a);
      check string' "comma inside quotes" {|p("B, Inc.", 2.5)|} (Atom.to_string b);
      check string' "escaped quote + bool" {|p("quote\"inside", true)|} (Atom.to_string c)
    | _ -> Alcotest.fail "unexpected shape")

let test_csv_arity_mismatch () =
  match Io.facts_of_csv ~pred:"p" "\"A\",1\n\"B\"\n" with
  | Error msg -> check bool' "line reported" true (Textutil.contains_word msg "2")
  | Ok _ -> Alcotest.fail "ragged CSV accepted"

let test_csv_roundtrip () =
  let res = run_exn example_economy in
  let facts = Database.active res.db "debts" in
  let csv = Io.facts_to_csv facts in
  match Io.facts_of_csv ~pred:"debts" csv with
  | Error e -> Alcotest.fail e
  | Ok atoms ->
    check bool' "round-trip preserves facts" true
      (List.map Atom.to_string atoms
      = List.map (fun f -> Fact.to_string f) facts)

let test_load_directory () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ekg_io_test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name content =
    let oc = open_out (Filename.concat dir name) in
    output_string oc content;
    close_out oc
  in
  write "shock.csv" "\"A\",6\n";
  write "hasCapital.csv" "\"A\",5\n\"B\",2\n";
  write "ignored.txt" "not csv";
  (match Io.load_directory dir with
  | Error e -> Alcotest.fail e
  | Ok facts ->
    check int' "three facts from two files" 3 (List.length facts);
    check bool' "predicate from file name" true
      (List.exists (fun (a : Atom.t) -> a.pred = "shock") facts));
  Sys.remove (Filename.concat dir "shock.csv");
  Sys.remove (Filename.concat dir "hasCapital.csv");
  Sys.remove (Filename.concat dir "ignored.txt");
  Sys.rmdir dir

let test_json_export () =
  let res = run_exn example_economy in
  let json = Io.result_to_json res in
  check bool' "facts array" true (Textutil.starts_with ~prefix:"{\"facts\": [" json);
  check bool' "derived facts carry their rule" true
    (List.length (Textutil.split_on_string ~sep:{|"rule": "gamma"|} json) > 1);
  check bool' "premise ids present" true
    (List.length (Textutil.split_on_string ~sep:{|"premises"|} json) > 1);
  (* escaping: a value with a quote must stay valid *)
  let f = { Fact.id = 0; pred = "p"; args = [| Value.str {|a"b|} |] } in
  check bool' "quotes escaped" true
    (List.length (Textutil.split_on_string ~sep:{|a\"b|} (Io.fact_to_json f)) > 1)

(* --- queries ------------------------------------------------------------------------ *)

let test_query_patterns () =
  let res = run_exn example_economy in
  (match Query.parse_and_ask res.db "default(X)" with
  | Ok matches -> check int' "three defaults" 3 (List.length matches)
  | Error e -> Alcotest.fail e);
  check bool' "holds" true (Query.holds res.db (Atom.make "default" [ Term.str "B" ]));
  check bool' "not holds" false
    (Query.holds res.db (Atom.make "default" [ Term.str "Z" ]))

(* --- properties ----------------------------------------------------------------------- *)

(* reference transitive closure *)
module SPair = Set.Make (struct
  type t = string * string

  let compare = compare
end)

let ref_closure edges =
  let step set =
    SPair.fold
      (fun (x, z) acc ->
        List.fold_left
          (fun acc (z', y) -> if z = z' then SPair.add (x, y) acc else acc)
          acc edges)
      set set
  in
  let rec fix set =
    let set' = step set in
    if SPair.equal set set' then set else fix set'
  in
  fix (SPair.of_list edges)

let edges_gen =
  QCheck2.Gen.(list_size (int_range 0 15) (pair (int_range 0 5) (int_range 0 5)))

let prop_closure_matches_reference =
  QCheck2.Test.make ~name:"chase computes reference transitive closure" ~count:100
    edges_gen (fun raw ->
      let edges =
        List.map (fun (i, j) -> (Printf.sprintf "n%d" i, Printf.sprintf "n%d" j)) raw
      in
      let facts =
        List.map (fun (x, y) -> Atom.make "e" [ Term.str x; Term.str y ]) edges
      in
      let { Parser.program; _ } =
        parse_exn {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}
      in
      match Chase.run program facts with
      | Error _ -> false
      | Ok res ->
        let got =
          Database.active res.db "path"
          |> List.map (fun (f : Fact.t) ->
                 (Value.to_display f.args.(0), Value.to_display f.args.(1)))
          |> List.sort compare
        in
        got = SPair.elements (ref_closure edges))

let prop_chase_deterministic =
  QCheck2.Test.make ~name:"chase is deterministic" ~count:50 edges_gen (fun raw ->
      let facts =
        List.map
          (fun (i, j) ->
            Atom.make "e" [ Term.str (string_of_int i); Term.str (string_of_int j) ])
          raw
      in
      let { Parser.program; _ } =
        parse_exn {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}
      in
      match Chase.run program facts, Chase.run program facts with
      | Ok a, Ok b ->
        let dump r =
          Database.active_all r.Chase.db |> List.map Fact.to_string
        in
        dump a = dump b
      | _ -> false)

(* --- parallel chase, join planning and interning --------------------------- *)

let test_intvec () =
  let v = Intvec.create ~capacity:2 () in
  check int' "empty" 0 (Intvec.length v);
  for i = 0 to 99 do
    Intvec.push v (i * 3)
  done;
  check int' "length after growth" 100 (Intvec.length v);
  check int' "get" 21 (Intvec.get v 7);
  check bool' "to_list is insertion order" true
    (Intvec.to_list v = List.init 100 (fun i -> i * 3))

let test_symtab () =
  let t = Symtab.create () in
  let a = Symtab.intern t "own" in
  let b = Symtab.intern t "control" in
  check bool' "distinct symbols" true (a <> b);
  check int' "re-interning is stable" a (Symtab.intern t "own");
  check int' "size" 2 (Symtab.size t);
  check string' "name round-trip" "control" (Symtab.name t b);
  check bool' "find known" true (Symtab.find t "own" = Some a);
  check bool' "find unknown" true (Symtab.find t "missing" = None)

let test_plan_ordering () =
  let rule src =
    match Parser.parse_rule src with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse_rule: %s" e
  in
  let card = function "big" -> 1000 | "small" -> 5 | _ -> 0 in
  let r = rule "r: big(X, Y), small(Y, Z) -> out(X, Z)." in
  let plan = Plan.compile ~card r in
  check bool' "small atom seeds the join" true (plan.Plan.order = [| 1; 0 |]);
  check bool' "reordered flag" true plan.Plan.reordered;
  (* equal cardinalities: ties keep textual order *)
  let tie = Plan.compile ~card:(fun _ -> 7) r in
  check bool' "ties keep textual order" true (tie.Plan.order = [| 0; 1 |]);
  check bool' "identity not reordered" false tie.Plan.reordered;
  (* a bound variable makes a huge predicate cheap: after small(Y,Z),
     big(Y,W) has one bound position and beats an unbound mid(..) *)
  let r3 = rule "r3: big(Y, W), mid(A, B), small(Y, Z) -> out(W, A)." in
  let card3 = function "big" -> 1000 | "mid" -> 600 | "small" -> 5 | _ -> 0 in
  let plan3 = Plan.compile ~card:card3 r3 in
  check bool' "bound-variable discount orders big before mid" true
    (plan3.Plan.order = [| 2; 0; 1 |])

let test_exists_matching () =
  let db = Database.create () in
  ignore (Database.add db "e" [| Value.str "a"; Value.str "b" |]);
  ignore (Database.add db "e" [| Value.str "b"; Value.str "c" |]);
  let pat args = Atom.make "e" args in
  check bool' "ground hit" true
    (Database.exists_matching db (pat [ Term.str "a"; Term.str "b" ]) Subst.empty);
  check bool' "variable hit" true
    (Database.exists_matching db (pat [ Term.var "X"; Term.str "c" ]) Subst.empty);
  check bool' "miss" false
    (Database.exists_matching db (pat [ Term.str "c"; Term.var "X" ]) Subst.empty);
  check bool' "unknown predicate" false
    (Database.exists_matching db (Atom.make "q" [ Term.var "X" ]) Subst.empty);
  (* agrees with [matching] on emptiness *)
  let probe = pat [ Term.var "X"; Term.var "Y" ] in
  check bool' "consistent with matching" true
    (Database.exists_matching db probe Subst.empty
    = (Database.matching db probe Subst.empty <> []))

let test_pred_card () =
  let db = Database.create () in
  check int' "unknown predicate" 0 (Database.pred_card db "p");
  let id =
    match Database.add db "p" [| Value.int 1 |] with
    | `Added f -> f.Fact.id
    | `Existing _ -> Alcotest.fail "fresh"
  in
  ignore (Database.add db "p" [| Value.int 2 |]);
  ignore (Database.add db "q" [| Value.int 3 |]);
  check int' "counts facts" 2 (Database.pred_card db "p");
  Database.deactivate db id;
  check int' "deactivation does not shrink the estimate" 2
    (Database.pred_card db "p")

(* the full externally visible result: facts, ids, provenance and the
   chase graph — byte equality is the determinism contract *)
let chase_fingerprint (r : Chase.result) =
  Io.result_to_json r ^ Export.chase_graph_dot r

let test_naive_matches_seminaive_under_planner () =
  (* multi-predicate joins so the planner actually reorders; negation
     and an aggregate so every evaluation path is covered *)
  let src = {|
base1: e(X, Y) -> path(X, Y).
step: path(X, Z), e(Z, Y) -> path(X, Y).
tag: path(X, Y), label(Y, L), not blocked(X) -> tagged(X, L).
score: path(X, Y), weight(Y, W), T = sum(W) -> total(X, T).
@goal(tagged).
e("a", "b"). e("b", "c"). e("c", "d"). e("a", "c").
label("c", "mid"). label("d", "end").
weight("b", 2). weight("c", 3). weight("d", 5).
blocked("b").
|}
  in
  let { Parser.program; facts } = parse_exn src in
  let semi = Chase.run_exn program facts in
  let naive = Chase.run_exn ~naive:true program facts in
  let dump (r : Chase.result) =
    Database.active_all r.db |> List.map Fact.to_string
    |> List.sort String.compare
  in
  check bool' "same fixpoint" true (dump semi = dump naive)

(* --- join engine -------------------------------------------------------------

   The columnar hash-join matcher must enumerate exactly the match
   sequence of the nested-loop reference matcher ({!Nested_ref}) — same
   bindings, same premises, same order — on full passes, delta-seeded
   passes, negation and aggregation bodies.  Equal sequences are what
   make fact ids, labelled nulls and provenance engine-independent. *)

let same_matches (a : Matcher.match_result list) (b : Matcher.match_result list) =
  List.equal
    (fun (x : Matcher.match_result) (y : Matcher.match_result) ->
      Subst.equal x.binding y.binding && x.used_facts = y.used_facts)
    a b

let same_groups (a : Matcher.agg_result list) (b : Matcher.agg_result list) =
  List.equal
    (fun (x : Matcher.agg_result) (y : Matcher.agg_result) ->
      Subst.equal x.group_binding y.group_binding
      && Value.equal x.value y.value
      && List.equal
           (fun (c : Provenance.contributor) (d : Provenance.contributor) ->
             c.facts = d.facts && Subst.equal c.binding d.binding)
           x.contributors y.contributors)
    a b

(* Compare both engines on every rule of [program] over [db], under the
   cost-based plan, optionally delta-seeded; [prepare] decides whether
   the hash side probes fresh indexes or falls back to scanning where
   an index is missing or stale. *)
let engines_agree ?(prepare = true) ?delta (program : Program.t) db =
  let card = Database.pred_card db in
  List.for_all
    (fun (r : Rule.t) ->
      let plan = Plan.compile ~card r in
      if Rule.has_agg r then begin
        if prepare then ignore (Matcher.prepare db (Matcher.agg_body r) plan);
        same_groups
          (Matcher.match_agg_rule ~plan db r)
          (Nested_ref.match_agg_rule ~plan db r)
      end
      else begin
        if prepare then ignore (Matcher.prepare db r plan);
        same_matches
          (Matcher.match_rule ?delta ~plan db r)
          (Nested_ref.match_rule ?delta ~plan db r)
      end)
    program.Program.rules

let test_join_engines_identical_all_features () =
  (* negation, aggregation, arithmetic conditions and an existential
     head in one program: every matcher path, checked on the fixpoint
     (superseded aggregate facts included, so inactive rows too) *)
  let src = {|
base: e(X, Y) -> path(X, Y).
step: path(X, Z), e(Z, Y) -> path(X, Y).
tag: path(X, Y), label(Y, L), not blocked(X) -> tagged(X, L).
score: path(X, Y), weight(Y, W), T = sum(W) -> total(X, T).
big: path(X, Y), weight(Y, W), W > 2, T = sum(W), T > 4 -> heavy(X, T).
spawn: tagged(X, L) -> handler(X, H).
@goal(tagged).
e("a", "b"). e("b", "c"). e("c", "d"). e("a", "c"). e("d", "a").
label("c", "mid"). label("d", "end").
weight("b", 2). weight("c", 3). weight("d", 5).
blocked("b").
|}
  in
  let { Parser.program; facts } = parse_exn src in
  let res = Chase.run_exn program facts in
  check bool' "some aggregate fact superseded" true
    (Database.active_size res.db < Database.size res.db);
  check bool' "indexes as the chase left them: hash = nested" true
    (engines_agree ~prepare:false program res.db);
  check bool' "indexes prepared: hash = nested" true
    (engines_agree program res.db);
  let path_ids =
    List.map (fun (f : Fact.t) -> f.Fact.id) (Database.active res.db "path")
  in
  let delta =
    {
      Matcher.mem = (fun id -> List.mem id path_ids);
      has_pred = (fun sym -> Database.pred_sym res.db "path" = Some sym);
    }
  in
  check bool' "delta passes: hash = nested" true
    (engines_agree ~delta program res.db)

let test_join_stats_charge_aggregates () =
  match Ekg_apps.Bundled.load "company-control" with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok loaded -> (
    let program = loaded.Ekg_apps.Apps_util.pipeline.Ekg_core.Pipeline.program in
    let sink = Ekg_obs.Metrics.create () in
    match
      (Chase.run_exn ~stats:sink program loaded.Ekg_apps.Apps_util.edb).Chase.stats
    with
    | None -> Alcotest.fail "no stats collected"
    | Some stats -> (
      match
        List.find_opt
          (fun (r : Chase.rule_stat) -> r.rule_id = "sigma3")
          stats.per_rule
      with
      | None -> Alcotest.fail "no sigma3 stats"
      | Some s ->
        check bool' "sigma3 probe time charged" true (s.probe_s > 0.);
        check bool' "sigma3 evaluated" true (s.evals > 0);
        check bool' "probe hits counted" true (stats.join_probe_hits > 0)))

(* digests of each bundled app's full chase output, as printed by
   [ekg-profile <app> --fingerprint]: the engine must not move a byte *)
let recorded_fingerprints =
  [
    ("company-control", "06d605798e09d92f2dec9ac0bb5f700b");
    ("stress-test", "8d3feae6656b709cf8f620b55fa5c098");
    ("close-link", "bea5782cff97f2fb012a6ad6f8633ffa");
    ("golden-power", "f038631ca1d42d5a1d551ae64f670477");
  ]

let test_bundled_fingerprints_recorded () =
  List.iter
    (fun (app, expected) ->
      match Ekg_apps.Bundled.load app with
      | Error e -> Alcotest.failf "load %s: %s" app e
      | Ok loaded ->
        let res =
          Chase.run_exn
            loaded.Ekg_apps.Apps_util.pipeline.Ekg_core.Pipeline.program
            loaded.Ekg_apps.Apps_util.edb
        in
        check string' app expected
          (Digest.to_hex (Digest.string (chase_fingerprint res))))
    recorded_fingerprints

(* Random databases for the matcher oracle: edges, a partial path
   relation, weights and labels over six nodes; some facts deactivated
   (as superseded aggregates are) and a random subset marked as the
   delta.  Facts are added directly, not chased, so the relations are
   arbitrary rather than closed. *)
let oracle_db_gen =
  QCheck2.Gen.(
    let fact =
      pair (int_range 0 3) (pair (int_range 0 5) (int_range 0 5))
    in
    pair
      (list_size (int_range 0 30) (pair fact (pair bool bool)))
      bool)

let oracle_db (raw, _) =
  let db = Database.create () in
  let node i = Value.str (Printf.sprintf "n%d" i) in
  let delta = Hashtbl.create 16 in
  List.iter
    (fun ((kind, (i, j)), (inactive, in_delta)) ->
      let pred, args =
        match kind with
        | 0 -> ("e", [| node i; node j |])
        | 1 -> ("path", [| node i; node j |])
        | 2 -> ("w", [| node i; Value.int (1 + j) |])
        | _ -> ("label", [| node i; Value.str (if j < 3 then "low" else "high") |])
      in
      match Database.add db pred args with
      | `Added f ->
        if in_delta then Hashtbl.replace delta f.Fact.id ();
        if inactive then Database.deactivate db f.Fact.id
      | `Existing _ -> ())
    raw;
  let delta =
    {
      Matcher.mem = Hashtbl.mem delta;
      has_pred =
        (fun sym ->
          Hashtbl.fold
            (fun id () acc -> acc || Database.pred_sym_of_fact db id = sym)
            delta false);
    }
  in
  (db, delta)

let prop_matcher_agrees ~name ~count src ~with_delta =
  let { Parser.program; _ } = parse_exn src in
  QCheck2.Test.make ~name ~count oracle_db_gen (fun ((_, prepare) as input) ->
      let db, delta = oracle_db input in
      engines_agree ~prepare program db
      && ((not with_delta) || engines_agree ~prepare ~delta program db))

let prop_join_engines_agree_naive =
  prop_matcher_agrees ~name:"hash join = nested loop (naive full passes)"
    ~count:100 ~with_delta:false {|
path(X, Z), e(Z, Y) -> path(X, Y).
e("n0", Y), e(Y, Z), e(Z, X) -> tri(X).
e(X, Y), w(Y, W), W > 3, V = W * 2 -> heavy(X, V).
@goal(path).
|}

let prop_join_engines_agree_plain =
  prop_matcher_agrees
    ~name:"hash join = nested loop (recursive closure, semi-naive deltas)"
    ~count:100 ~with_delta:true {|
path(X, Z), e(Z, Y) -> path(X, Y).
path(X, Y), path(Y, Z), e(Z, X) -> cycle(X).
@goal(path).
|}

let prop_join_engines_agree_negation =
  prop_matcher_agrees ~name:"hash join = nested loop (stratified negation)"
    ~count:100 ~with_delta:true {|
e(X, Y), not path(Y, X) -> oneway(X, Y).
e(X, Y), label(Y, L), not w(X, 2) -> tagged(X, L).
@goal(oneway).
|}

let prop_join_engines_agree_aggregation =
  prop_matcher_agrees ~name:"hash join = nested loop (aggregation bodies)"
    ~count:100 ~with_delta:false {|
path(X, Y), w(Y, W), T = sum(W) -> total(X, T).
e(X, Y), w(Y, W), W > 2, T = sum(W), T > 5 -> big(X, T).
e(X, Y), not path(Y, X), C = count(Y) -> fanout(X, C).
e(X, Y), label(Y, L), w(Y, W), M = max(W) -> peak(X, L, M).
@goal(total).
|}

(* --- budgets and cooperative cancellation ----------------------------------- *)

(* one new fact per round, for a million rounds: the shape a runaway
   recursive program takes in production *)
let divergent_src = {|
n(X), Y = X + 1, Y < 1000000 -> n(Y).
@goal(n).
n(0).
|}

let test_budget_rounds () =
  let { Parser.program; facts } = parse_exn divergent_src in
  match Chase.run_checked ~budget:(Chase.budget ~rounds:5 ()) program facts with
  | Error (Chase.Budget_exceeded (`Rounds, p)) ->
    check int' "stopped at the round budget" 5 p.Chase.partial_rounds;
    check int' "one fact per round" 5 p.Chase.partial_derived;
    check bool' "diagnostic names the resource" true
      (Textutil.contains_word
         (Chase.error_to_string (Chase.Budget_exceeded (`Rounds, p)))
         "budget")
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "divergent program converged?"

let test_budget_facts () =
  let { Parser.program; facts } = parse_exn divergent_src in
  match Chase.run_checked ~budget:(Chase.budget ~facts:10 ()) program facts with
  | Error (Chase.Budget_exceeded (`Facts, p)) ->
    check bool' "at least the budgeted facts" true (p.Chase.partial_derived >= 10);
    (* checked at round boundaries: one round's worth of overshoot max *)
    check bool' "no runaway overshoot" true (p.Chase.partial_derived <= 11);
    check bool' "resource exhaustion is not a client error" false
      (Chase.client_error (Chase.Budget_exceeded (`Facts, p)))
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "divergent program converged?"

let test_budget_cancel () =
  let { Parser.program; facts } = parse_exn divergent_src in
  let polls = ref 0 in
  let cancel () =
    incr polls;
    !polls > 3
  in
  match Chase.run_checked ~budget:(Chase.budget ~cancel ()) program facts with
  | Error (Chase.Cancelled p) ->
    check bool' "made some progress first" true (p.Chase.partial_rounds > 0);
    check bool' "partial stats stringify" true
      (String.length (Chase.partial_to_string p) > 0)
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "cancel hook ignored"

let test_budget_deadline_trips_mid_match () =
  (* a single cross-join round too big to finish: only the in-match
     interrupt (polled every few thousand join nodes) can stop it *)
  let n = 150 in
  let facts =
    List.concat_map
      (fun i ->
        let v = Value.int i in
        [ Atom.make "a" [ Term.Cst v ]; Atom.make "b" [ Term.Cst v ];
          Atom.make "c" [ Term.Cst v ] ])
      (List.init n (fun i -> i))
  in
  let { Parser.program; _ } =
    parse_exn {|
a(X), b(Y), c(Z) -> t(X, Y, Z).
@goal(t).
|}
  in
  let t0 = Unix.gettimeofday () in
  match
    Chase.run_checked ~budget:(Chase.within_ms 30.) program facts
  with
  | Error (Chase.Budget_exceeded (`Deadline, p)) ->
    let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    (* 150^3 insertions would take far longer than the deadline; the
       interrupt must fire well before the round completes *)
    check bool' "stopped promptly (within ~2x deadline or so)" true
      (elapsed_ms < 1000.);
    check bool' "partial wall-clock recorded" true (p.Chase.partial_wall_s > 0.)
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "join finished under an immediate deadline?"

let test_budget_converging_run_unaffected () =
  let src = {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
e("a", "b"). e("b", "c").
|}
  in
  let { Parser.program; facts } = parse_exn src in
  let far = Ekg_obs.Clock.now_s () +. 3600. in
  match
    Chase.run_checked
      ~budget:(Chase.budget ~deadline_s:far ~rounds:1000 ~facts:100000 ())
      program facts
  with
  | Ok r -> check int' "full closure derived" 3 r.Chase.derived_count
  | Error e -> Alcotest.failf "roomy budget tripped: %s" (Chase.error_to_string e)

(* the tentpole invariant: an unlimited budget is free — byte-identical
   output (facts, ids, nulls, provenance, chase graph) to no budget *)
let prop_unlimited_budget_is_identity =
  QCheck2.Test.make ~name:"unlimited budget is byte-identical to no budget"
    ~count:50 edges_gen (fun raw ->
      let facts =
        List.map
          (fun (i, j) ->
            Atom.make "e" [ Term.str (string_of_int i); Term.str (string_of_int j) ])
          raw
      in
      let { Parser.program; _ } =
        parse_exn {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}
      in
      match
        Chase.run program facts, Chase.run ~budget:Chase.unlimited program facts
      with
      | Ok a, Ok b -> chase_fingerprint a = chase_fingerprint b
      | _ -> false)

(* --- incremental maintenance ----------------------------------------------- *)

let tc_src = {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}

let edge x y = Atom.make "e" [ Term.str x; Term.str y ]

let run_atoms src facts =
  let { Parser.program; _ } = parse_exn src in
  match Chase.run program facts with
  | Ok r -> (program, r)
  | Error e -> Alcotest.failf "chase: %s" e

let update_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "update: %s" (Chase.error_to_string e)

(* content identity with an independently cold-chased fact base *)
let check_matches_cold msg program res base =
  match Chase.run program base with
  | Error e -> Alcotest.failf "cold reference chase: %s" e
  | Ok cold ->
    check string' msg
      (Database.fingerprint cold.Chase.db)
      (Database.fingerprint res.Chase.db)

let test_incr_add_warm_start () =
  let program, res = run_atoms tc_src [ edge "a" "b"; edge "b" "c" ] in
  let res', upd = update_exn (Chase.add_facts program res [ edge "c" "d" ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check bool' "ran at least one round" true (upd.Chase.upd_rounds >= 1);
  check bool' "path pred reported changed" true
    (List.mem "path" upd.Chase.upd_changed_preds);
  check_matches_cold "addition = cold chase" program res'
    [ edge "a" "b"; edge "b" "c"; edge "c" "d" ];
  check bool' "new closure fact present" true
    (List.mem {|path("a", "d")|} (actives res' "path"))

let test_incr_retract_cone () =
  let program, res = run_atoms tc_src [ edge "a" "b"; edge "b" "c"; edge "c" "d" ] in
  let res', upd = update_exn (Chase.retract_facts program res [ edge "b" "c" ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check bool' "cone retracted" true (upd.Chase.upd_retracted >= 3);
  check_matches_cold "retraction = cold chase" program res'
    [ edge "a" "b"; edge "c" "d" ];
  check bool' "downstream closure gone" true
    (not (List.mem {|path("a", "d")|} (actives res' "path")))

let test_incr_retract_alternative_derivation_survives () =
  (* two disjoint supports for reach("a"): losing one must not lose the fact *)
  let src = {|
e1(X) -> reach(X).
e2(X) -> reach(X).
reach(X) -> seen(X).
@goal(seen).
|}
  in
  let a1 = Atom.make "e1" [ Term.str "a" ] and a2 = Atom.make "e2" [ Term.str "a" ] in
  let program, res = run_atoms src [ a1; a2 ] in
  let res', upd = update_exn (Chase.retract_facts program res [ a1 ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check bool' "over-deleted facts re-derived" true (upd.Chase.upd_rederived >= 1);
  check bool' "reach survives via e2" true (List.mem {|reach("a")|} (actives res' "reach"));
  check bool' "downstream seen survives" true (List.mem {|seen("a")|} (actives res' "seen"));
  check_matches_cold "survival = cold chase" program res' [ a2 ];
  (* the surviving fact's proof must now bottom out in e2, not the
     retracted e1 *)
  match Database.find_exact res'.Chase.db "reach" [| Value.str "a" |] with
  | None -> Alcotest.fail "reach(a) lost"
  | Some f -> (
    match Proof.of_fact res'.Chase.db res'.Chase.prov f with
    | None -> Alcotest.fail "no proof for surviving fact"
    | Some p ->
      let leaves = Proof.facts_used p |> List.map Fact.to_string in
      check bool' "proof grounded in surviving support" true
        (List.mem {|e2("a")|} leaves && not (List.mem {|e1("a")|} leaves)))

let test_incr_retraction_enables_negation () =
  (* deleting blocker(x) must enable the later-stratum candidate *)
  let src = {|
cand(X), not blocked(X) -> winner(X).
block(X) -> blocked(X).
@goal(winner).
|}
  in
  let cand = Atom.make "cand" [ Term.str "x" ]
  and block = Atom.make "block" [ Term.str "x" ] in
  let program, res = run_atoms src [ cand; block ] in
  check int' "blocked initially" 0 (List.length (actives res "winner"));
  let res', upd = update_exn (Chase.retract_facts program res [ block ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check bool' "winner now derived" true (List.mem {|winner("x")|} (actives res' "winner"));
  check_matches_cold "negation enablement = cold chase" program res' [ cand ]

let test_incr_addition_disables_negation () =
  let src = {|
cand(X), not blocked(X) -> winner(X).
block(X) -> blocked(X).
@goal(winner).
|}
  in
  let cand = Atom.make "cand" [ Term.str "x" ]
  and block = Atom.make "block" [ Term.str "x" ] in
  let program, res = run_atoms src [ cand ] in
  check bool' "winner before" true (List.mem {|winner("x")|} (actives res "winner"));
  let res', upd = update_exn (Chase.add_facts program res [ block ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check int' "winner withdrawn" 0 (List.length (actives res' "winner"));
  check_matches_cold "negation disablement = cold chase" program res' [ cand; block ]

let test_incr_add_then_retract_roundtrip () =
  let base = [ edge "a" "b"; edge "b" "c" ] in
  let program, res = run_atoms tc_src base in
  let original = Database.fingerprint res.Chase.db in
  let res', _ = update_exn (Chase.add_facts program res [ edge "c" "a"; edge "b" "d" ]) in
  check bool' "grew" true (Database.fingerprint res'.Chase.db <> original);
  let res'', _ =
    update_exn (Chase.retract_facts program res' [ edge "c" "a"; edge "b" "d" ])
  in
  check string' "exact original fingerprint restored" original
    (Database.fingerprint res''.Chase.db)

let test_incr_retract_unknown_fact () =
  let program, res = run_atoms tc_src [ edge "a" "b" ] in
  let before = Database.fingerprint res.Chase.db in
  (match Chase.retract_facts program res [ edge "z" "q" ] with
  | Error (Chase.Unknown_fact _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "retracting an absent fact succeeded");
  check string' "state untouched by rejected update" before
    (Database.fingerprint res.Chase.db)

let test_incr_retract_derived_rejected () =
  let program, res = run_atoms tc_src [ edge "a" "b" ] in
  match Chase.retract_facts program res [ Atom.make "path" [ Term.str "a"; Term.str "b" ] ] with
  | Error (Chase.Invalid_edb _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "retracting a derived fact succeeded"

let test_incr_aggregation_falls_back () =
  let src = {|
own(X, Y, W), T = sum(W) -> total(Y, T).
@goal(total).
|}
  in
  let own x y w = Atom.make "own" [ Term.str x; Term.str y; Term.num w ] in
  let program, res = run_atoms src [ own "a" "c" 0.3; own "b" "c" 0.4 ] in
  let before = Database.fingerprint res.Chase.db in
  let res', upd = update_exn (Chase.retract_facts program res [ own "b" "c" 0.4 ]) in
  check bool' "fell back to full recompute" false upd.Chase.upd_incremental;
  check string' "input result untouched by fallback" before
    (Database.fingerprint res.Chase.db);
  check_matches_cold "fallback = cold chase" program res' [ own "a" "c" 0.3 ]

let test_incr_readd_makes_extensional () =
  (* asserting a tuple that is currently derived turns it extensional:
     retracting its former support no longer deletes it *)
  let program, res = run_atoms tc_src [ edge "a" "b"; edge "b" "c" ] in
  let path_ac = Atom.make "path" [ Term.str "a"; Term.str "c" ] in
  let res', _ = update_exn (Chase.add_facts program res [ path_ac ]) in
  let res'', _ = update_exn (Chase.retract_facts program res' [ edge "a" "b" ]) in
  check bool' "asserted fact survives support loss" true
    (List.mem {|path("a", "c")|} (actives res'' "path"));
  check bool' "dependent closure gone" true
    (not (List.mem {|path("a", "b")|} (actives res'' "path")))

let test_incr_update_budget_respected () =
  let program, res = run_atoms tc_src [ edge "a" "b" ] in
  let chain = List.init 60 (fun i -> edge (string_of_int i) (string_of_int (i + 1))) in
  match
    Chase.add_facts ~budget:(Chase.budget ~rounds:2 ()) program res chain
  with
  | Error (Chase.Budget_exceeded (`Rounds, p)) ->
    check bool' "partial rounds recorded" true (p.Chase.partial_rounds >= 1)
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "2-round budget survived a 60-edge chain closure"

let test_incr_inconsistent_detected () =
  let src = {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
path(X, X) -> false.
@goal(path).
|}
  in
  let program, res = run_atoms src [ edge "a" "b" ] in
  match Chase.add_facts program res [ edge "b" "a"; edge "b" "c" ] with
  | Error (Chase.Inconsistent _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "cycle admitted despite acyclicity constraint"

let test_copy_result_isolated () =
  (* the copy-on-write primitive the concurrent server builds on:
     updates through either side never show through the other *)
  let program, res = run_atoms tc_src [ edge "a" "b"; edge "b" "c" ] in
  let before = Database.fingerprint res.Chase.db in
  let copy = Chase.copy_result res in
  check string' "copy starts content-identical" before
    (Database.fingerprint copy.Chase.db);
  let copy', _ = update_exn (Chase.add_facts program copy [ edge "c" "d" ]) in
  check bool' "update visible through the copy" true
    (List.mem {|path("a", "d")|} (actives copy' "path"));
  check string' "original untouched by the copy's update" before
    (Database.fingerprint res.Chase.db);
  let copy_fp = Database.fingerprint copy'.Chase.db in
  let res', _ = update_exn (Chase.retract_facts program res [ edge "b" "c" ]) in
  check string' "copy untouched by the original's update" copy_fp
    (Database.fingerprint copy'.Chase.db);
  check_matches_cold "original's update = cold chase" program res'
    [ edge "a" "b" ];
  check_matches_cold "copy's update = cold chase" program copy'
    [ edge "a" "b"; edge "b" "c"; edge "c" "d" ]

let test_copy_result_isolates_inconsistency () =
  (* Inconsistent is detected only after mutation — the copy absorbs
     that mutation, the original stays servable *)
  let src = {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
path(X, X) -> false.
@goal(path).
|}
  in
  let program, res = run_atoms src [ edge "a" "b" ] in
  let before = Database.fingerprint res.Chase.db in
  (match Chase.add_facts program (Chase.copy_result res) [ edge "b" "a" ] with
  | Error (Chase.Inconsistent _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "cycle admitted despite acyclicity constraint");
  check string' "original untouched by the rejected update" before
    (Database.fingerprint res.Chase.db)

(* every active derived fact of an updated result must still carry a
   well-founded proof over active facts, grounded in the EDB *)
let proofs_well_founded (res : Chase.result) =
  List.for_all
    (fun (f : Fact.t) ->
      Provenance.is_edb res.Chase.prov f.Fact.id
      ||
      match Proof.of_fact res.Chase.db res.Chase.prov f with
      | None -> false
      | Some p ->
        let concluded = Hashtbl.create 16 in
        List.iter
          (fun (s : Proof.step) -> Hashtbl.replace concluded s.Proof.fact.Fact.id ())
          p.Proof.steps;
        List.for_all
          (fun (used : Fact.t) ->
            Database.is_active res.Chase.db used.Fact.id
            && (Hashtbl.mem concluded used.Fact.id
               || Provenance.is_edb res.Chase.prov used.Fact.id))
          (Proof.facts_used p))
    (Database.active_all res.Chase.db)

(* random edge set, then a random add/retract sequence: the maintained
   state must stay byte-identical (content fingerprint) to a cold chase
   of the final fact base, with well-founded provenance throughout *)
let prop_incremental_equals_cold =
  let gen =
    QCheck2.Gen.(pair edges_gen (list_size (int_range 1 6) (pair bool (pair (int_range 0 5) (int_range 0 5)))))
  in
  let print (raw, ops) =
    Printf.sprintf "base=[%s] ops=[%s]"
      (String.concat ";" (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) raw))
      (String.concat ";"
         (List.map
            (fun (b, (i, j)) ->
              Printf.sprintf "%s(%d,%d)" (if b then "add" else "del") i j)
            ops))
  in
  QCheck2.Test.make ~print
    ~name:"incremental updates are byte-identical to cold chase"
    ~count:60 gen (fun (raw, ops) ->
      let atom (i, j) = edge (string_of_int i) (string_of_int j) in
      let { Parser.program; _ } = parse_exn tc_src in
      let base = List.map atom raw in
      match Chase.run program base with
      | Error _ -> false
      | Ok res ->
        let keys = Hashtbl.create 16 in
        List.iter (fun (i, j) -> Hashtbl.replace keys (i, j) ()) raw;
        let res = ref res and ok = ref true in
        List.iter
          (fun (is_add, ij) ->
            if !ok then
              if is_add || not (Hashtbl.mem keys ij) then begin
                Hashtbl.replace keys ij ();
                match Chase.add_facts program !res [ atom ij ] with
                | Ok (r, _) -> res := r
                | Error _ -> ok := false
              end
              else begin
                Hashtbl.remove keys ij;
                match Chase.retract_facts program !res [ atom ij ] with
                | Ok (r, _) -> res := r
                | Error _ -> ok := false
              end)
          ops;
        !ok
        &&
        let final_base =
          Hashtbl.fold (fun ij () acc -> atom ij :: acc) keys []
        in
        match Chase.run program final_base with
        | Error _ -> false
        | Ok cold ->
          Database.fingerprint cold.Chase.db = Database.fingerprint !res.Chase.db
          && proofs_well_founded !res)

(* same invariant through the stratified-negation path *)
let prop_incremental_negation_equals_cold =
  let gen =
    QCheck2.Gen.(pair edges_gen (list_size (int_range 1 5) (pair bool (int_range 0 5))))
  in
  QCheck2.Test.make
    ~name:"incremental updates respect stratified negation" ~count:60 gen
    (fun (raw, ops) ->
      let src = {|
e(X, Y) -> linked(X).
node(X), not linked(X) -> isolated(X).
@goal(isolated).
|}
      in
      let { Parser.program; _ } = parse_exn src in
      let node i = Atom.make "node" [ Term.str (string_of_int i) ] in
      let atom (i, j) = edge (string_of_int i) (string_of_int j) in
      let base = List.init 6 node @ List.map atom raw in
      match Chase.run program base with
      | Error _ -> false
      | Ok res ->
        let keys = Hashtbl.create 16 in
        List.iter (fun ij -> Hashtbl.replace keys ij ()) raw;
        let res = ref res and ok = ref true in
        List.iter
          (fun (is_add, i) ->
            if !ok then begin
              let ij = (i, (i + 1) mod 6) in
              if is_add || not (Hashtbl.mem keys ij) then begin
                Hashtbl.replace keys ij ();
                match Chase.add_facts program !res [ atom ij ] with
                | Ok (r, _) -> res := r
                | Error _ -> ok := false
              end
              else begin
                Hashtbl.remove keys ij;
                match Chase.retract_facts program !res [ atom ij ] with
                | Ok (r, _) -> res := r
                | Error _ -> ok := false
              end
            end)
          ops;
        !ok
        &&
        let final_base =
          List.init 6 node @ Hashtbl.fold (fun ij () acc -> atom ij :: acc) keys []
        in
        match Chase.run program final_base with
        | Error _ -> false
        | Ok cold ->
          Database.fingerprint cold.Chase.db = Database.fingerprint !res.Chase.db)

(* --- store vs list model ------------------------------------------------------ *)

(* The store against a plain list model: facts in id order, each with
   an activation flag, deduplicated on (predicate, arity, Value.equal
   tuple) — so Int 1 and Num 1.0 are one tuple.  One predicate is used
   at two arities and one is nullary; "q" is never inserted and "zz"
   never stored. *)
type model_fact = {
  m_id : int;
  m_pred : string;
  m_args : Value.t array;
  mutable m_active : bool;
}

type store_op =
  | Op_add of string * Value.t array
  | Op_deactivate of int
  | Op_reactivate of int

let store_values =
  [| Value.int 1; Value.num 1.0; Value.int 2; Value.num 2.0; Value.num 2.5;
     Value.str "a"; Value.str "b" |]

let unknown_value = Value.str "zz"

let store_value_gen =
  QCheck2.Gen.map
    (fun i -> store_values.(i))
    (QCheck2.Gen.int_bound (Array.length store_values - 1))

let store_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun v -> Op_add ("p", [| v |])) store_value_gen);
        (4, map2 (fun a b -> Op_add ("p", [| a; b |])) store_value_gen store_value_gen);
        (1, pure (Op_add ("z", [||])));
        (1, map (fun i -> Op_deactivate i) (int_bound 30));
        (1, map (fun i -> Op_reactivate i) (int_bound 30));
      ])

(* a pattern over p/1, p/2, z/0 or q/1 with constants (some never
   stored), free and repeated variables, under a substitution that may
   bind X — to an unknown value too *)
let store_pattern_gen =
  QCheck2.Gen.(
    let term =
      frequency
        [
          (3, map Term.cst store_value_gen);
          (1, pure (Term.cst unknown_value));
          (2, pure (Term.var "X"));
          (2, pure (Term.var "Y"));
        ]
    in
    let pattern =
      oneof
        [
          map (fun t -> Atom.make "p" [ t ]) term;
          map2 (fun a b -> Atom.make "p" [ a; b ]) term term;
          pure (Atom.make "z" []);
          map (fun t -> Atom.make "q" [ t ]) term;
        ]
    in
    let subst =
      frequency
        [
          (2, pure Subst.empty);
          (2, map (Subst.bind Subst.empty "X") store_value_gen);
          (1, pure (Subst.bind Subst.empty "X" unknown_value));
        ]
    in
    pair pattern subst)

let print_store_case (ops, patterns) =
  let fact pred args = Fact.to_string { Fact.id = 0; pred; args } in
  let op = function
    | Op_add (pred, args) -> "add " ^ fact pred args
    | Op_deactivate i -> Printf.sprintf "deactivate %d" i
    | Op_reactivate i -> Printf.sprintf "reactivate %d" i
  in
  let pattern (a, s) =
    Atom.to_string a ^ " under "
    ^ String.concat ","
        (List.map (fun (v, x) -> v ^ "=" ^ Value.to_string x) (Subst.to_list s))
  in
  String.concat "; " (List.map op ops) ^ "\npatterns: "
  ^ String.concat "; " (List.map pattern patterns)

(* every tuple find_exact is asked about: each predicate at each arity
   over every value, the unknown one included *)
let store_probe_tuples =
  let vals = Array.to_list store_values @ [ unknown_value ] in
  (("z", [||]) :: List.map (fun v -> ("p", [| v |])) vals)
  @ List.map (fun v -> ("q", [| v |])) vals
  @ List.concat_map (fun a -> List.map (fun b -> ("p", [| a; b |])) vals) vals

let prop_store_equals_model =
  QCheck2.Test.make ~name:"store equals a list model" ~count:200
    ~print:print_store_case
    QCheck2.Gen.(
      pair (list_size (int_range 1 30) store_op_gen)
        (list_size (int_range 1 8) store_pattern_gen))
    (fun (ops, patterns) ->
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let db = Database.create () in
      let model = ref [] in (* newest first *)
      let facts () = List.rev !model in
      let model_find pred args =
        List.find_opt
          (fun m ->
            m.m_pred = pred
            && Array.length m.m_args = Array.length args
            && Array.for_all2 Value.equal m.m_args args)
          !model
      in
      let ids keep pred =
        List.filter_map
          (fun m -> if m.m_pred = pred && keep m then Some m.m_id else None)
          (facts ())
      in
      let fact_ids = List.map (fun (f : Fact.t) -> f.id) in
      let agrees db =
        List.iter
          (fun (pred, args) ->
            let got = Option.map (fun (f : Fact.t) -> f.id) (Database.find_exact db pred args) in
            if got <> Option.map (fun m -> m.m_id) (model_find pred args) then
              fail "find_exact %s" (Fact.to_string { Fact.id = 0; pred; args }))
          store_probe_tuples;
        List.iter
          (fun ((pattern : Atom.t), subst) ->
            let want =
              List.filter_map
                (fun m ->
                  if
                    m.m_active && m.m_pred = pattern.pred
                    && Array.length m.m_args = List.length pattern.args
                  then
                    Option.map
                      (fun s -> (m.m_id, Subst.to_list s))
                      (Subst.match_atom subst ~pattern m.m_args)
                  else None)
                (facts ())
            in
            let got =
              List.map
                (fun ((f : Fact.t), s) -> (f.id, Subst.to_list s))
                (Database.matching db pattern subst)
            in
            if got <> want then fail "matching %s" (Atom.to_string pattern);
            if Database.exists_matching db pattern subst <> (want <> []) then
              fail "exists_matching %s" (Atom.to_string pattern))
          patterns;
        List.iter
          (fun pred ->
            if fact_ids (Database.active db pred) <> ids (fun m -> m.m_active) pred
            then fail "active %s" pred;
            if fact_ids (Database.all_of_pred db pred) <> ids (fun _ -> true) pred
            then fail "all_of_pred %s" pred;
            if Database.pred_card db pred <> List.length (ids (fun _ -> true) pred)
            then fail "pred_card %s" pred)
          [ "p"; "z"; "q" ];
        if Database.size db <> List.length !model then fail "size";
        if
          Database.active_size db
          <> List.length (List.filter (fun m -> m.m_active) !model)
        then fail "active_size"
      in
      let set_active i flag =
        List.iter (fun m -> if m.m_id = i then m.m_active <- flag) !model
      in
      List.iter
        (fun op ->
          (match op with
          | Op_add (pred, args) -> (
            match (Database.add db pred args, model_find pred args) with
            | `Existing f, Some m when f.id = m.m_id -> ()
            | `Added f, None when f.id = List.length !model ->
              model := { m_id = f.id; m_pred = pred; m_args = args; m_active = true } :: !model
            | (`Existing _ | `Added _), _ ->
              fail "add %s" (Fact.to_string { Fact.id = 0; pred; args }))
          | Op_deactivate i ->
            Database.deactivate db i;
            set_active i false
          | Op_reactivate i ->
            Database.reactivate db i;
            set_active i true);
          agrees db)
        ops;
      (* a copy mutated afterwards leaves the original untouched *)
      let fp = Database.fingerprint db in
      let c = Database.copy db in
      ignore (Database.add c "p" [| Value.str "copy-only" |]);
      ignore (Database.add c "z" [||]);
      for id = 0 to Database.size c - 1 do
        Database.deactivate c id
      done;
      if Database.fingerprint db <> fp then fail "copy leaked into the original";
      agrees db;
      (* the snapshot codec replays the same ids, activation and answers *)
      let b = Buffer.create 256 in
      Database.encode b db;
      let d = Database.decode (Wire.reader (Buffer.contents b)) in
      List.iter
        (fun m ->
          let f = Database.fact d m.m_id in
          if
            f.pred <> m.m_pred
            || Fact.to_string f <> Fact.to_string { Fact.id = m.m_id; pred = m.m_pred; args = m.m_args }
            || Database.is_active d m.m_id <> m.m_active
          then fail "decode changed fact %d" m.m_id)
        !model;
      if Database.fingerprint d <> fp then fail "decode changed the fingerprint";
      agrees d;
      true)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_store_equals_model;
      prop_closure_matches_reference;
      prop_chase_deterministic;
      prop_magic_equals_full_chase;
      prop_query_lane_equals_materialization;
      prop_join_engines_agree_plain;
      prop_join_engines_agree_negation;
      prop_join_engines_agree_naive;
      prop_join_engines_agree_aggregation;
      prop_unlimited_budget_is_identity;
      prop_incremental_equals_cold;
      prop_incremental_negation_equals_cold;
    ]

let () =
  Alcotest.run "engine"
    [
      ( "database",
        [
          Alcotest.test_case "dedup" `Quick test_database_dedup;
          Alcotest.test_case "numeric key equality" `Quick
            test_database_numeric_key_equality;
          Alcotest.test_case "deactivation" `Quick test_database_deactivation;
          Alcotest.test_case "matching" `Quick test_database_matching;
          Alcotest.test_case "columnar layout" `Quick
            test_database_columnar_layout;
          Alcotest.test_case "index build and probe" `Quick
            test_database_index_probe;
          Alcotest.test_case "all-active fast path" `Quick
            test_database_all_active;
          Alcotest.test_case "overlay of a frozen base" `Quick test_database_overlay;
          Alcotest.test_case "shared index on a frozen group" `Quick
            test_database_shared_index;
        ] );
      ( "chase",
        [
          Alcotest.test_case "transitive closure" `Quick test_chase_transitive_closure;
          Alcotest.test_case "set semantics" `Quick test_chase_set_semantics;
          Alcotest.test_case "joins and conditions" `Quick test_chase_joins_and_conditions;
          Alcotest.test_case "arithmetic assignment" `Quick
            test_chase_arithmetic_assignment;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "grouped sums" `Quick test_chase_sum_groups;
          Alcotest.test_case "all functions" `Quick test_chase_agg_functions;
          Alcotest.test_case "monotonic supersession" `Quick
            test_chase_monotonic_aggregation_supersedes;
          Alcotest.test_case "condition on result" `Quick
            test_chase_agg_condition_on_result;
          Alcotest.test_case "multiple contributors" `Quick
            test_chase_agg_multi_contributors;
          Alcotest.test_case "deferred condition body vars" `Quick
            test_chase_agg_body_vars_in_deferred_condition;
        ] );
      ( "negation",
        [
          Alcotest.test_case "stratified" `Quick test_chase_stratified_negation;
          Alcotest.test_case "three strata" `Quick test_chase_three_strata;
          Alcotest.test_case "unstratifiable rejected" `Quick
            test_chase_unstratifiable_rejected;
        ] );
      ( "existentials",
        [
          Alcotest.test_case "labelled nulls" `Quick test_chase_existential_nulls;
          Alcotest.test_case "isomorphism preemption" `Quick
            test_chase_isomorphism_preemption;
          Alcotest.test_case "satisfied by data" `Quick
            test_chase_existential_satisfied_by_data;
        ] );
      ( "termination",
        [ Alcotest.test_case "max rounds guard" `Quick test_chase_max_rounds ] );
      ( "budgets",
        [
          Alcotest.test_case "round budget" `Quick test_budget_rounds;
          Alcotest.test_case "fact budget" `Quick test_budget_facts;
          Alcotest.test_case "cancel hook" `Quick test_budget_cancel;
          Alcotest.test_case "deadline trips mid-match" `Quick
            test_budget_deadline_trips_mid_match;
          Alcotest.test_case "converging run unaffected" `Quick
            test_budget_converging_run_unaffected;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "add warm-starts semi-naive" `Quick
            test_incr_add_warm_start;
          Alcotest.test_case "retract deletes the cone" `Quick test_incr_retract_cone;
          Alcotest.test_case "alternative derivation survives" `Quick
            test_incr_retract_alternative_derivation_survives;
          Alcotest.test_case "retraction enables negation" `Quick
            test_incr_retraction_enables_negation;
          Alcotest.test_case "addition disables negation" `Quick
            test_incr_addition_disables_negation;
          Alcotest.test_case "add-then-retract round trip" `Quick
            test_incr_add_then_retract_roundtrip;
          Alcotest.test_case "unknown fact rejected" `Quick
            test_incr_retract_unknown_fact;
          Alcotest.test_case "derived fact rejected" `Quick
            test_incr_retract_derived_rejected;
          Alcotest.test_case "aggregation falls back" `Quick
            test_incr_aggregation_falls_back;
          Alcotest.test_case "re-add makes extensional" `Quick
            test_incr_readd_makes_extensional;
          Alcotest.test_case "update budget respected" `Quick
            test_incr_update_budget_respected;
          Alcotest.test_case "inconsistency detected" `Quick
            test_incr_inconsistent_detected;
          Alcotest.test_case "copy_result isolates updates" `Quick
            test_copy_result_isolated;
          Alcotest.test_case "copy_result isolates inconsistency" `Quick
            test_copy_result_isolates_inconsistency;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "violation rejected" `Quick test_constraint_violation;
          Alcotest.test_case "satisfied accepted" `Quick test_constraint_satisfied;
          Alcotest.test_case "with negation" `Quick test_constraint_with_negation;
        ] );
      ( "export",
        [
          Alcotest.test_case "proof dot" `Quick test_export_proof_dot;
          Alcotest.test_case "chase graph dot" `Quick test_export_chase_graph_dot;
          Alcotest.test_case "instance dot" `Quick test_export_instance_dot;
        ] );
      ( "why-provenance",
        [
          Alcotest.test_case "single witness" `Quick test_why_single_witness;
          Alcotest.test_case "alternative witnesses" `Quick
            test_why_alternative_witnesses;
          Alcotest.test_case "minimality" `Quick test_why_minimality;
          Alcotest.test_case "EDB is its own witness" `Quick test_why_edb_is_itself;
        ] );
      ( "magic",
        [
          Alcotest.test_case "prunes" `Quick test_magic_prunes;
          Alcotest.test_case "adornments" `Quick test_magic_adornments;
          Alcotest.test_case "bad queries rejected" `Quick test_magic_rejects_bad_queries;
          Alcotest.test_case "aggregation prunes" `Quick test_magic_prunes_aggregation;
          Alcotest.test_case "negation prunes" `Quick test_magic_negation;
          Alcotest.test_case "constraints fire on the scoped instance" `Quick
            test_magic_detects_inconsistency;
          Alcotest.test_case "all-free mask" `Quick test_magic_free_mask;
          Alcotest.test_case "existential heads fall back" `Quick
            test_magic_existential_falls_back;
          Alcotest.test_case "unadorn proof" `Quick test_magic_unadorn_proof;
          Alcotest.test_case "EDB facts of a derived predicate" `Quick
            test_magic_edb_of_derived_pred;
        ] );
      ( "io",
        [
          Alcotest.test_case "csv parsing" `Quick test_csv_parsing;
          Alcotest.test_case "csv arity mismatch" `Quick test_csv_arity_mismatch;
          Alcotest.test_case "csv round-trip" `Quick test_csv_roundtrip;
          Alcotest.test_case "load directory" `Quick test_load_directory;
          Alcotest.test_case "json export" `Quick test_json_export;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "well-formed" `Quick test_provenance_well_formed;
          Alcotest.test_case "tau order" `Quick test_proof_tau_order;
          Alcotest.test_case "constants" `Quick test_proof_constants;
          Alcotest.test_case "alternative derivations" `Quick
            test_alternative_derivations_recorded;
          Alcotest.test_case "shortest proof selection" `Quick
            test_shortest_proof_selection;
          Alcotest.test_case "shortest = primary when unique" `Quick
            test_shortest_equals_primary_when_unique;
          Alcotest.test_case "truncate" `Quick test_proof_truncate;
          Alcotest.test_case "EDB has no proof" `Quick test_proof_edb_fact_has_none;
        ] );
      ("query", [ Alcotest.test_case "patterns" `Quick test_query_patterns ]);
      ( "parallel",
        [
          Alcotest.test_case "intvec" `Quick test_intvec;
          Alcotest.test_case "symtab" `Quick test_symtab;
          Alcotest.test_case "plan ordering" `Quick test_plan_ordering;
          Alcotest.test_case "exists_matching" `Quick test_exists_matching;
          Alcotest.test_case "pred_card" `Quick test_pred_card;
          Alcotest.test_case "naive = semi-naive under planner" `Quick
            test_naive_matches_seminaive_under_planner;
          Alcotest.test_case "join engines byte-identical" `Quick
            test_join_engines_identical_all_features;
        ] );
      ( "join engine",
        [
          Alcotest.test_case "join stats charge aggregate rules" `Quick
            test_join_stats_charge_aggregates;
          Alcotest.test_case "bundled app fingerprints recorded" `Quick
            test_bundled_fingerprints_recorded;
        ] );
      ("properties", qsuite);
    ]
