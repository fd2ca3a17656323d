(* The timed phase: closed-loop clients against a running ekg-serve.

   Every client sends its next request only after the previous reply.
   Each client runs on its own domain and holds at most one connection,
   so a workload never uses more client threads or connections than it
   names (at most the core count).  Requests in flight when the clock
   runs out are completed and counted. *)

open Ekg_datagen
open Ekg_server

type kind = Update | Query | Explain

type sample = {
  kind : kind;
  key : string;  (** query/explain atom; "" for updates *)
  t0 : float;
  t1 : float;
  status : int;  (** 0 = transport failure *)
  trace_id : string;
}

let ok s = s.status >= 200 && s.status <= 299
let latency_ms s = (s.t1 -. s.t0) *. 1000.0

type outcome = {
  samples : sample list;
  wall_s : float;  (** from the start of the timed phase until every client stopped *)
  applied : Cdc.log;  (** the batches (or halves of them) the server committed *)
  facts_applied : int;
  bodies : (string * string) list;  (** kept response bodies, by key, for the checks *)
  log_exhausted : bool;
}

let timed ~port meth target body kind key =
  let t0 = Clock.now () in
  let r = Client.request ~port meth target body in
  let t1 = Clock.now () in
  let status, trace_id, resp_body =
    match r with
    | Ok r -> r.Client.status, r.Client.trace_id, r.Client.body
    | Error _ -> 0, "", ""
  in
  { kind; key; t0; t1; status; trace_id }, resp_body

let query_target base key = Printf.sprintf "%s/query?query=%s&limit=500" base (Client.urlencode key)
let explain_target base key = Printf.sprintf "%s/explain?query=%s&limit=50" base (Client.urlencode key)

let facts_body atoms =
  Json.to_string
    (Json.Obj
       [ "facts", Json.Arr (List.map (fun a -> Json.str (Ekg_datalog.Atom.to_string a)) atoms) ])

(* the writer: each batch is a DELETE of its retracts, then a POST of its adds *)
let writer ~port ~base ~deadline (log : Cdc.log) () =
  let samples = ref [] and applied = ref [] and facts = ref 0 in
  let send meth atoms =
    if atoms = [] then true
    else begin
      let s, _ = timed ~port meth (base ^ "/facts") (facts_body atoms) Update "" in
      samples := s :: !samples;
      if ok s then facts := !facts + List.length atoms;
      ok s
    end
  in
  let rec go = function
    | [] -> true
    | (b : Cdc.batch) :: rest ->
      if Clock.now () >= deadline then false
      else begin
        let retracted = send "DELETE" b.Cdc.retracts in
        let added = send "POST" b.Cdc.adds in
        applied :=
          {
            b with
            Cdc.adds = (if added then b.Cdc.adds else []);
            retracts = (if retracted then b.Cdc.retracts else []);
          }
          :: !applied;
        go rest
      end
  in
  let exhausted = go log in
  !samples, List.rev !applied, !facts, exhausted

(* a reader: [next ()] picks the next request; [keep key body] decides
   which response bodies the checks need; [pause] seconds pass between a
   reply and the next request *)
let reader ?(pause = 0.0) ~port ~deadline ~next ~keep () =
  let samples = ref [] and bodies = ref [] in
  while Clock.now () < deadline do
    let meth_target, kind, key = next () in
    let s, body = timed ~port "GET" meth_target "" kind key in
    samples := s :: !samples;
    if ok s && keep key body then bodies := (key, body) :: !bodies;
    if pause > 0.0 then Unix.sleepf pause
  done;
  !samples, !bodies

(* The span of the "trace_id" value in a response body, which differs
   on every response *)
let trace_id_value body =
  let marker = "\"trace_id\":\"" in
  match Client.find_sub body marker 0 with
  | None -> None
  | Some i ->
    let start = i + String.length marker in
    Option.map (fun stop -> start, stop) (String.index_from_opt body start '"')

let equal_range a i b j n =
  let rec go k = k = n || (a.[i + k] = b.[j + k] && go (k + 1)) in
  go 0

(* equal but for their trace ids *)
let same_but_trace_id a b =
  match trace_id_value a, trace_id_value b with
  | Some (i, j), Some (i', j') ->
    let rest = String.length a - j in
    i = i' && rest = String.length b - j' && equal_range a 0 b 0 i && equal_range a j b j' rest
  | _ -> String.equal a b

(* The cdc-control reader's pause.  A read answered at a commit is
   otherwise re-sent within a millisecond and races the writer's next
   request for the session lock, so it waits for one or for two whole
   commits at random and every read figure flips between the two from
   run to run.  20 ms is well above the writer's turnaround and well
   below a commit, so the reader always finds a commit in flight. *)
let cdc_reader_pause = 0.02

let run ~port ~base ~seconds (inputs : Inputs.t) =
  let t_start = Clock.now () in
  let deadline = t_start +. seconds in
  let readers, writer_domain =
    match inputs.workload with
    | Inputs.Cdc_control ->
      (* one writer streaming the log, one reader alternating point
         queries and explanations over seeded companies *)
      let queries = Inputs.query_stream inputs 3 and explains = Inputs.query_stream inputs 4 in
      let flip = ref false in
      let next () =
        flip := not !flip;
        if !flip then
          let k = queries () in
          query_target base k, Query, k
        else
          let k = explains () in
          explain_target base k, Explain, k
      in
      ( [ Domain.spawn (reader ~pause:cdc_reader_pause ~port ~deadline ~next ~keep:(fun _ _ -> false)) ],
        Some (Domain.spawn (writer ~port ~base ~deadline inputs.log)) )
    | Inputs.Point_query ->
      (* one client; every answer page is checked *)
      let queries = Inputs.query_stream inputs 5 in
      let next () =
        let k = queries () in
        query_target base k, Query, k
      in
      [ Domain.spawn (reader ~port ~deadline ~next ~keep:(fun _ _ -> true)) ], None
    | Inputs.Explain_hot ->
      (* two clients draining one fixed sequence; each keeps every
         distinct body it saw per key, so every response is checked *)
      let cursor = Atomic.make 0 in
      let client () =
        let kept = Hashtbl.create 1024 in
        let next () =
          let i = Atomic.fetch_and_add cursor 1 in
          let k = inputs.keys.(inputs.sequence.(i mod Array.length inputs.sequence)) in
          explain_target base k, Explain, k
        in
        let keep k body =
          let bodies = Option.value ~default:[] (Hashtbl.find_opt kept k) in
          let fresh = not (List.exists (same_but_trace_id body) bodies) in
          if fresh then Hashtbl.replace kept k (body :: bodies);
          fresh
        in
        reader ~port ~deadline ~next ~keep ()
      in
      [ Domain.spawn client; Domain.spawn client ], None
  in
  let read_results = List.map Domain.join readers in
  let write_samples, applied, facts_applied, log_exhausted =
    match writer_domain with
    | Some d -> Domain.join d
    | None -> [], [], 0, false
  in
  let wall_s = Clock.now () -. t_start in
  {
    samples = write_samples @ List.concat_map fst read_results;
    wall_s;
    applied;
    facts_applied;
    bodies = List.concat_map snd read_results;
    log_exhausted;
  }
