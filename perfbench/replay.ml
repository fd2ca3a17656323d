(* The traced, in-process replay.  It sends a workload's generated
   operations through the same public functions the server's request
   path calls, in the same order, with a span around each call:

     http.parse          Http.parse_request_string on the request text
     json.decode         Json.parse + Parser.parse_atom of a /facts body
     registry.copy       Chase.copy_result (only for incrementable programs,
                         as Registry.update_facts does)
     chase.update        Pipeline.add_facts / retract_facts
     registry.edb_mirror Chase.edb_atoms after an update
     magic.specialize    Pipeline.specialize (once per query shape)
     magic.scoped_chase  Pipeline.query
     proof.extract       Proof.of_fact
     proof_mapper.map    Proof_mapper.map_proof
     instantiate.render  Instantiate.render_mapping (both template families)
     json.encode         Json.to_string of the response document

   plus the set-up calls pipeline.build (Pipeline.build) and chase.cold
   (Pipeline.reason).  Each replayed request is an "op" span; work inside
   it that no named span wraps (cache lookups, Query.ask matching, list
   plumbing) is what the coverage figure reports as uncovered. *)

open Ekg_datalog
open Ekg_engine
open Ekg_core
open Ekg_server

let span = Spans.with_span

type counters = {
  mutable updates : int;
  mutable incremental : int;
  mutable rounds : float list;
  mutable facts_per_answer : float list;
  mutable proof_lengths : float list;
  mutable cold_facts : int;
  mutable heap_bytes_per_fact : float;
  mutable verified : int;
  mutable mismatches : string list;  (** replayed texts that differ from Pipeline.explain *)
}

let counters () =
  {
    updates = 0;
    incremental = 0;
    rounds = [];
    facts_per_answer = [];
    proof_lengths = [];
    cold_facts = 0;
    heap_bytes_per_fact = 0.0;
    verified = 0;
    mismatches = [];
  }

type session = {
  pipeline : Pipeline.t;
  mutable edb : Atom.t list;
  mutable chase : Chase.result option;
  explain_cache : (string, Json.t list) Hashtbl.t;
  specs : (string, Pipeline.specialization) Hashtbl.t;
  mutable answers : (string * Json.t) list;  (** answer LRU, most recent first *)
}

let max_answers = 8 (* Registry's per-shape answer LRU *)

let parse_request meth target body =
  match span "http.parse" (fun () -> Http.parse_request_string (Client.request_text ~port:0 meth target body)) with
  | Ok req -> req
  | Error e -> failwith ("replay request: " ^ Http.error_message e)

let encode doc = ignore (span "json.encode" (fun () -> Json.to_string doc))

let atom_exn text =
  match Parser.parse_atom text with Ok a -> a | Error e -> failwith ("replay atom: " ^ e)

let query_param (req : Http.request) =
  match List.assoc_opt "query" req.Http.query with Some q -> atom_exn q | None -> failwith "no query"

let heap_bytes () =
  Gc.full_major ();
  float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8.0

let open_session dir =
  let source = Daemon.read_file (Filename.concat dir "program.vada") in
  let program =
    match Parser.parse source with Ok p -> p.Parser.program | Error e -> failwith ("replay program: " ^ e)
  in
  let glossary = Glossary.make_exn [] in
  let pipeline = span "pipeline.build" (fun () -> Pipeline.build program glossary) in
  let edb = match Io.load_directory dir with Ok f -> f | Error e -> failwith ("replay facts: " ^ e) in
  { pipeline; edb; chase = None; explain_cache = Hashtbl.create 1024; specs = Hashtbl.create 4; answers = [] }

let materialize c s =
  let before = heap_bytes () in
  let res =
    match span "chase.cold" (fun () -> Pipeline.reason s.pipeline s.edb) with
    | Ok r -> r
    | Error e -> failwith ("replay chase: " ^ e)
  in
  let facts = Database.active_size res.Chase.db in
  c.cold_facts <- facts;
  c.heap_bytes_per_fact <- (heap_bytes () -. before) /. float_of_int (max 1 facts);
  s.chase <- Some res;
  res

(* POST|DELETE /facts, as Router.update_facts and Registry.update_facts *)
let update c s meth atoms =
  let target = "/v1/sessions/s1/facts" in
  span "op" @@ fun () ->
  let req = parse_request meth target (Drive.facts_body atoms) in
  let atoms =
    span "json.decode" (fun () ->
        match Json.parse req.Http.body with
        | Ok doc ->
          Option.value ~default:[] (Option.bind (Json.member "facts" doc) Json.get_arr)
          |> List.filter_map Json.get_str
          |> List.map atom_exn
        | Error e -> failwith e)
  in
  let res = match s.chase with Some r -> r | None -> failwith "replay update before materialization" in
  let target =
    if Pipeline.incrementable s.pipeline then span "registry.copy" (fun () -> Chase.copy_result res)
    else res
  in
  let apply = if meth = "POST" then Pipeline.add_facts else Pipeline.retract_facts in
  match span "chase.update" (fun () -> apply s.pipeline target atoms) with
  | Error e -> failwith ("replay update: " ^ Chase.error_to_string e)
  | Ok (res', upd) ->
    s.chase <- Some res';
    s.edb <- span "registry.edb_mirror" (fun () -> Chase.edb_atoms res');
    c.updates <- c.updates + 1;
    if upd.Chase.upd_incremental then c.incremental <- c.incremental + 1;
    c.rounds <- float_of_int upd.Chase.upd_rounds :: c.rounds;
    (* every key the workloads read is a control/2 atom, and control is
       among the changed predicates of every update: drop all *)
    Hashtbl.reset s.explain_cache;
    s.answers <- [];
    encode
      (Json.Obj
         [
           "incremental", Json.bool upd.Chase.upd_incremental;
           "rounds", Json.int upd.Chase.upd_rounds;
           "added", Json.int upd.Chase.upd_added;
           "retracted", Json.int upd.Chase.upd_retracted;
         ])

(* GET /query, as Router.query_lane and Registry.query *)
let query c s key =
  span "op" @@ fun () ->
  let atom = query_param (parse_request "GET" (Drive.query_target "/v1/sessions/s1" key) "") in
  let pred = atom.Atom.pred and mask = Magic.adornment atom in
  let answers =
    match List.assoc_opt key s.answers with
    | Some doc -> doc
    | None ->
      let spec =
        match Hashtbl.find_opt s.specs (pred ^ "/" ^ mask) with
        | Some sp -> sp
        | None -> (
          match span "magic.specialize" (fun () -> Pipeline.specialize s.pipeline ~pred ~mask) with
          | Ok sp ->
            Hashtbl.replace s.specs (pred ^ "/" ^ mask) sp;
            sp
          | Error e -> failwith ("replay specialize: " ^ e))
      in
      let result =
        match span "magic.scoped_chase" (fun () -> Pipeline.query s.pipeline spec s.edb atom) with
        | Ok r -> r
        | Error e -> failwith ("replay query: " ^ Chase.error_to_string e)
      in
      let n = List.length result.Pipeline.q_answers in
      (match result.Pipeline.q_scoped with
      | Some scoped ->
        c.facts_per_answer <-
          (float_of_int (Database.active_size scoped.Chase.db) /. float_of_int (max 1 n)) :: c.facts_per_answer
      | None -> ());
      let doc =
        Json.Arr
          (List.map
             (fun (qa : Pipeline.query_answer) -> Json.Obj [ "fact", Json.str (Fact.to_string qa.Pipeline.qa_fact) ])
             result.Pipeline.q_answers)
      in
      s.answers <- List.filteri (fun i _ -> i < max_answers) ((key, doc) :: s.answers);
      doc
  in
  encode (Json.Obj [ "query", Json.str key; "answers", answers ])

(* Pipeline.explain's stages, call by call *)
let explanations c s res atom =
  Query.ask res.Chase.db atom
  |> List.filter_map (fun (fact, _) ->
         match span "proof.extract" (fun () -> Proof.of_fact res.Chase.db res.Chase.prov fact) with
         | None -> None
         | Some proof ->
           c.proof_lengths <- float_of_int (Proof.length proof) :: c.proof_lengths;
           let mapping =
             span "proof_mapper.map" (fun () -> Proof_mapper.map_proof s.pipeline.Pipeline.analysis proof)
           in
           let text, deterministic =
             span "instantiate.render" (fun () ->
                 let render enhanced =
                   Instantiate.cleanup
                     (Instantiate.render_mapping
                        ~template_for:(Pipeline.template_for s.pipeline ~enhanced)
                        mapping)
                 in
                 render true, render false)
           in
           Some
             (Json.Obj
                [
                  "fact", Json.str (Fact.to_string fact);
                  "text", Json.str text;
                  "deterministic_text", Json.str deterministic;
                  "paths_used", Json.Arr (List.map Json.str (Proof_mapper.paths_used mapping));
                  "proof_steps", Json.int (Proof.length proof);
                ]))

(* the replay's texts must be the pipeline's: checked on a sample of
   misses, outside the op span *)
let verify c s res key docs =
  c.verified <- c.verified + 1;
  match Pipeline.explain_atom s.pipeline res (atom_exn key) with
  | Error e -> c.mismatches <- (key ^ ": " ^ e) :: c.mismatches
  | Ok exps ->
    let expected = List.map (fun (e : Pipeline.explanation) -> e.Pipeline.text) exps in
    if List.filter_map (Json.mem_str "text") docs <> expected then
      c.mismatches <- ("replayed explanation of " ^ key ^ " differs from Pipeline.explain_atom") :: c.mismatches

(* GET /explain, as Router.explain_get *)
let explain c s key =
  let res = match s.chase with Some r -> r | None -> failwith "replay explain before materialization" in
  let missed = ref None in
  span "op" (fun () ->
      let atom = query_param (parse_request "GET" (Drive.explain_target "/v1/sessions/s1" key) "") in
      let cache_key = Atom.to_string atom in
      let docs =
        match Hashtbl.find_opt s.explain_cache cache_key with
        | Some docs -> docs
        | None ->
          let docs = explanations c s res atom in
          Hashtbl.replace s.explain_cache cache_key docs;
          missed := Some docs;
          docs
      in
      encode
        (Json.Obj
           [
             "query", Json.str key;
             "total", Json.int (List.length docs);
             "explanations", Json.Arr (List.filteri (fun i _ -> i < 50) docs);
           ]));
  match !missed with
  | Some docs when c.verified < 20 -> verify c s res key docs
  | _ -> ()

let until deadline f =
  let rec go i = if i = 0 || Clock.now () < deadline then (f i; go (i + 1)) in
  go 0

let run ~seconds (inputs : Inputs.t) =
  Spans.workload := Inputs.name inputs.workload;
  let c = counters () in
  let s = open_session inputs.dir in
  (match inputs.workload with
  | Inputs.Cdc_control ->
    ignore (materialize c s);
    let ops =
      List.concat_map
        (fun (b : Ekg_datagen.Cdc.batch) ->
          (if b.retracts = [] then [] else [ "DELETE", b.retracts ])
          @ if b.adds = [] then [] else [ "POST", b.adds ])
        inputs.log
      |> Array.of_list
    in
    let queries = Inputs.query_stream inputs 3 and explains = Inputs.query_stream inputs 4 in
    let deadline = Clock.now () +. seconds in
    (* the server runs the writer and the reader concurrently; in one
       thread they take turns: an update, a query, an explanation *)
    until deadline (fun i ->
        let meth, atoms = ops.(i mod Array.length ops) in
        if i < Array.length ops then update c s meth atoms;
        query c s (queries ());
        explain c s (explains ()))
  | Inputs.Point_query ->
    let queries = Inputs.query_stream inputs 5 in
    let deadline = Clock.now () +. seconds in
    until deadline (fun _ -> query c s (queries ()))
  | Inputs.Explain_hot ->
    ignore (materialize c s);
    let deadline = Clock.now () +. seconds in
    until deadline (fun i ->
        explain c s inputs.keys.(inputs.sequence.(i mod Array.length inputs.sequence))));
  c
