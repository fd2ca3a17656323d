(* ekg-serve as a separate process: start it on an ephemeral loopback
   port, create the benchmark session, read its gauges, stop it. *)

open Ekg_server

type t = { pid : int; port : int }

let serve_exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "serve.exe"))

(* one worker domain per core *)
let domains = Domain.recommended_domain_count ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let listening_port text =
  let marker = "listening on http://127.0.0.1:" in
  match Client.find_sub text marker 0 with
  | None -> None
  | Some i ->
    let start = i + String.length marker in
    let stop = ref start in
    while !stop < String.length text && text.[!stop] >= '0' && text.[!stop] <= '9' do incr stop done;
    int_of_string_opt (String.sub text start (!stop - start))

let terminate t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Clock.now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* servers still running; the signal handlers in [Bench] stop them *)
let live : t list ref = ref []

let start ~root ~out ?log_file () =
  let args =
    [ serve_exe; "--root"; root; "--port"; "0"; "--domains"; string_of_int domains ]
    @ match log_file with Some f -> [ "--log-file"; f ] | None -> []
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process serve_exe (Array.of_list args) Unix.stdin fd fd)
  in
  let deadline = Clock.now () +. 30.0 in
  let rec await () =
    match listening_port (read_file out) with
    | Some port -> { pid; port }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("ekg-serve exited at start-up: " ^ read_file out));
      if Clock.now () > deadline then begin
        terminate { pid; port = 0 };
        failwith "ekg-serve did not start listening within 30 s"
      end;
      Unix.sleepf 0.005;
      await ()
  in
  let t = await () in
  live := t :: !live;
  t

let stop t =
  terminate t;
  live := List.filter (fun s -> s.pid <> t.pid) !live

let with_server ~root ~out ?log_file f =
  let t = start ~root ~out ?log_file () in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)

let get_ok t target =
  match Client.request ~port:t.port "GET" target "" with
  | Ok { Client.status = 200; body; _ } -> body
  | Ok r -> failwith (Printf.sprintf "GET %s -> %d: %s" target r.Client.status r.Client.body)
  | Error e -> failwith (Printf.sprintf "GET %s: %s" target e)

let json_exn text =
  match Json.parse text with Ok j -> j | Error e -> failwith ("bad JSON from server: " ^ e)

(* POST /v1/sessions over the generated files; the session's base path *)
let create_session t =
  let body =
    Json.to_string
      (Json.Obj
         [
           "name", Json.str "perfbench";
           "program_path", Json.str "program.vada";
           "facts_dir", Json.str ".";
         ])
  in
  match Client.request ~port:t.port "POST" "/v1/sessions" body with
  | Ok { Client.status = 201; body; _ } -> (
    match Json.mem_str "id" (json_exn body) with
    | Some id -> "/v1/sessions/" ^ id
    | None -> failwith "session creation: no id")
  | Ok r -> failwith (Printf.sprintf "session creation -> %d: %s" r.Client.status r.Client.body)
  | Error e -> failwith ("session creation: " ^ e)

(* GET …/fingerprint: materializes on first call; the md5 digest *)
let fingerprint t base =
  match Json.mem_str "fingerprint" (json_exn (get_ok t (base ^ "/fingerprint"))) with
  | Some fp -> fp
  | None -> failwith "fingerprint response without a digest"

(* the GC high-water mark, in bytes; the endpoint samples the runtime
   on every request *)
let peak_heap_bytes t =
  let doc = json_exn (get_ok t "/v1/debug/runtime") in
  let gauges = Option.value ~default:[] (Option.bind (Json.member "gauges" doc) Json.get_arr) in
  match
    List.find_map
      (fun g ->
        if Json.mem_str "name" g = Some "ekg_runtime_gc_top_heap_words" then
          Option.bind (Json.member "value" g) Json.get_num
        else None)
      gauges
  with
  | Some words -> words *. 8.0
  | None -> failwith "/v1/debug/runtime has no ekg_runtime_gc_top_heap_words gauge"

(* one Prometheus sample value by exact metric name (no labels) *)
let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.0
