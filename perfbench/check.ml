(* Correctness of every run, checked against a local, in-process
   reference after the server has stopped (so the two heaps never
   coexist).  [corrupt] feeds each check a deliberately wrong
   expectation; the self-test uses it to prove the check can fail. *)

open Ekg_datalog
open Ekg_engine
open Ekg_core
open Ekg_apps
open Ekg_server

let load_local dir =
  match
    Result.bind
      (Apps_util.load_program_files
         ~program_file:(Filename.concat dir "program.vada")
         ~glossary_file:None ())
      (fun l -> Apps_util.with_facts_dir l dir)
  with
  | Ok l -> l
  | Error e -> failwith ("local reference: " ^ e)

let reason (l : Apps_util.loaded) edb =
  match Pipeline.reason l.Apps_util.pipeline edb with
  | Ok res -> res
  | Error e -> failwith ("local reference chase: " ^ e)

let md5 (res : Chase.result) = Digest.to_hex (Digest.string (Database.fingerprint res.Chase.db))

let parse_atom key =
  match Parser.parse_atom key with Ok a -> a | Error e -> failwith ("key " ^ key ^ ": " ^ e)

(* the first failure, or Ok *)
let all_ok checks = List.fold_left (fun acc c -> Result.bind acc c) (Ok ()) checks

(* distinct keys, each with every body kept for it *)
let by_key bodies =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (k, b) -> Hashtbl.replace tbl k (b :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    bodies;
  List.sort compare (Hashtbl.fold (fun k bs acc -> (k, bs) :: acc) tbl [])

let strings_of field sub body =
  match Json.parse body with
  | Error e -> Error ("unparsable response: " ^ e)
  | Ok doc ->
    let items = Option.value ~default:[] (Option.bind (Json.member field doc) Json.get_arr) in
    Ok (Option.value ~default:(-1) (Json.mem_int "total" doc), List.filter_map (Json.mem_str sub) items)

(* cdc-control: the server's fingerprint equals a cold chase over the
   base EDB plus the prefix of the log the server committed *)
let cdc ~corrupt ~server_fp (inputs : Inputs.t) (outcome : Drive.outcome) =
  let l = load_local inputs.dir in
  let edb = Ekg_datagen.Cdc.final_edb ~base:l.Apps_util.edb outcome.applied in
  let edb = if corrupt then Company_control.company "c-corrupt" :: edb else edb in
  let local = md5 (reason l edb) in
  if local = server_fp then Ok ()
  else Error (Printf.sprintf "fingerprint %s differs from the local cold chase %s" server_fp local)

(* point-query: every answer set equals Query.ask on a local full
   materialization *)
let point_query ~corrupt (inputs : Inputs.t) (outcome : Drive.outcome) =
  let l = load_local inputs.dir in
  let res = reason l l.Apps_util.edb in
  let keys = by_key outcome.bodies in
  let first = match keys with (k, _) :: _ -> k | [] -> "" in
  all_ok
    (List.map
       (fun (key, bodies) () ->
         let expected =
           List.map (fun (f, _) -> Fact.to_string f) (Query.ask res.Chase.db (parse_atom key))
         in
         let expected = if corrupt && key = first then "corrupt" :: expected else expected in
         let expected = List.sort compare expected in
         all_ok
           (List.map
              (fun body () ->
                Result.bind (strings_of "answers" "fact" body) (fun (total, facts) ->
                    if total = List.length facts && List.sort compare facts = expected then Ok ()
                    else Error (Printf.sprintf "answers to %s differ from the local materialization" key)))
              bodies))
       keys)

(* explain-hot: every explanation text equals Pipeline.explain_atom on
   the local materialization (first page of 50, as requested) *)
let explain_hot ~corrupt (inputs : Inputs.t) (outcome : Drive.outcome) =
  let l = load_local inputs.dir in
  let res = reason l l.Apps_util.edb in
  let keys = by_key outcome.bodies in
  let first = match keys with (k, _) :: _ -> k | [] -> "" in
  all_ok
    (List.map
       (fun (key, bodies) () ->
         match Pipeline.explain_atom l.Apps_util.pipeline res (parse_atom key) with
         | Error e -> Error (Printf.sprintf "local explanation of %s failed: %s" key e)
         | Ok exps ->
           let texts = List.map (fun (e : Pipeline.explanation) -> e.Pipeline.text) exps in
           let texts =
             if corrupt && key = first then List.map (fun t -> t ^ " (corrupt)") texts else texts
           in
           let page = List.filteri (fun i _ -> i < 50) texts in
           all_ok
             (List.map
                (fun body () ->
                  Result.bind (strings_of "explanations" "text" body) (fun (total, served) ->
                      if total = List.length texts && served = page then Ok ()
                      else Error (Printf.sprintf "explanation of %s differs from the local pipeline" key)))
                bodies))
       keys)

let run ~corrupt ~server_fp (inputs : Inputs.t) outcome =
  match inputs.workload with
  | Inputs.Cdc_control -> cdc ~corrupt ~server_fp inputs outcome
  | Inputs.Point_query -> point_query ~corrupt inputs outcome
  | Inputs.Explain_hot -> explain_hot ~corrupt inputs outcome
