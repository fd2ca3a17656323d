(* perfbench: the repository benchmark.

     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   --trace 0 measures workload W end to end against a separate ekg-serve
   process and reports the end-to-end metrics.  --trace 1 is the
   separate traced run: for each of the three workloads in turn it runs
   the server with its wide-event log on, then replays the same
   generated operations in process with spans around each layer call,
   and reports the per-layer metrics.  Every run checks the program's
   outputs; a failed check prints "correct": false and exits 1.  The
   last stdout line is the JSON result.  perfbench/layers.json describes
   the workloads and metrics. *)

open Ekg_server

let usage =
  "bench --workload cdc-control|point-query|explain-hot --seed N --seconds S --trace 0|1 \
   [--size full|tiny] [--corrupt-expectation]"

let work_dir = ".perfbench-work"

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* --- one workload against a running server -------------------------------- *)

type served = {
  outcome : Drive.outcome;
  setups : float list;  (** seconds, one per set-up *)
  peak_heap_bytes : float;
  prometheus : string;
  log_file : string option;
  verdict : (unit, string) result;
}

(* POST /v1/sessions, plus the cold materialization where the workload
   needs one; the time until the first timed op can start *)
let set_up server (inputs : Inputs.t) =
  let t0 = Clock.now () in
  let base = Daemon.create_session server in
  (match inputs.workload with
  | Inputs.Cdc_control | Inputs.Explain_hot -> ignore (Daemon.fingerprint server base)
  | Inputs.Point_query -> ());
  Clock.now () -. t0, base

(* Throwaway set-ups on each side of the timed phase: at least
   [min_side], then more while they add up to less than [side_s] seconds,
   at most [max_side].  A cheap set-up (point-query's) is repeated more
   often, so its median is as steady as a costly one's. *)
type setup_plan = { min_side : int; side_s : float; max_side : int }

let measured_setup_only = { min_side = 0; side_s = 0.0; max_side = 0 }

let serve ~plan ~seconds ~corrupt ?log_file (inputs : Inputs.t) =
  let out =
    let n = ref 0 in
    fun () ->
      incr n;
      Filename.concat work_dir (Printf.sprintf "serve-%s-%d.out" (Inputs.name inputs.workload) !n)
  in
  (* every set-up but the measured one runs on a throwaway server, so the
     measured server's heap high-water mark belongs to one session; half
     of them run before the timed phase and half after it, so that the
     median spans the whole run and not one moment of the host *)
  let throwaways () =
    let rec go acc total =
      let n = List.length acc in
      if n >= plan.max_side || (n >= plan.min_side && total >= plan.side_s) then List.rev acc
      else
        let t = Daemon.with_server ~root:inputs.dir ~out:(out ()) (fun s -> fst (set_up s inputs)) in
        go (t :: acc) (total +. t)
    in
    go [] 0.0
  in
  let before = throwaways () in
  let setup_s, outcome, peak_heap_bytes, prometheus, server_fp =
    Daemon.with_server ~root:inputs.dir ~out:(out ()) ?log_file (fun s ->
        let setup_s, base = set_up s inputs in
        let outcome = Drive.run ~port:s.Daemon.port ~base ~seconds inputs in
        let peak = Daemon.peak_heap_bytes s in
        let prometheus = Daemon.get_ok s "/v1/metrics?format=prometheus" in
        let fp =
          match inputs.workload with
          | Inputs.Cdc_control -> Daemon.fingerprint s base
          | Inputs.Point_query | Inputs.Explain_hot -> ""
        in
        setup_s, outcome, peak, prometheus, fp)
  in
  let after = throwaways () in
  let verdict =
    if outcome.Drive.samples = [] then Error "no request completed"
    else Check.run ~corrupt ~server_fp inputs outcome
  in
  { outcome; setups = before @ (setup_s :: after); peak_heap_bytes; prometheus; log_file; verdict }

let of_kind k (o : Drive.outcome) =
  List.filter (fun (s : Drive.sample) -> s.Drive.kind = k && Drive.ok s) o.Drive.samples
  |> List.map Drive.latency_ms

let reads (o : Drive.outcome) =
  List.filter (fun (s : Drive.sample) -> s.Drive.kind <> Drive.Update && Drive.ok s) o.Drive.samples

let failures (o : Drive.outcome) =
  List.length (List.filter (fun s -> not (Drive.ok s)) o.Drive.samples)

(* --- reporting ------------------------------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let fmt_value v = Printf.sprintf "%.6g" v

let report_line name unit value note = say "  %-34s %14s %-8s %s" name value unit note

(* a median or an honest tail: the figure, or "missing" with the reason *)
let timing name ~q samples =
  let n = List.length samples in
  let value = if q = 0.5 then Stats.median samples else Stats.tail samples q in
  match value with
  | Some v -> report_line name "ms" (fmt_value v) (Printf.sprintf "(n=%d)" n)
  | None when n = 0 -> report_line name "ms" "n/a" "(no such requests in this workload)"
  | None ->
    report_line name "ms" "missing"
      (Printf.sprintf "(n=%d; needs n>=%d so that %d samples lie beyond it)" n (Stats.samples_needed q)
         Stats.min_beyond)

let require what = function Some v -> v | None -> failwith ("no samples for " ^ what)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun m -> if not (Float.is_finite m.value) then failwith (m.name ^ " is not a finite number")) metrics;
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit)
      metrics
  in
  say "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", " fields)

let verdict_line name = function
  | Ok () -> say "  check %-28s ok" name
  | Error e -> say "  check %-28s FAILED: %s" name e

(* --- --trace 0: end-to-end ------------------------------------------------- *)

let setup_plan = { min_side = 4; side_s = 2.0; max_side = 15 }

let end_to_end ~size ~seconds ~corrupt workload seed =
  let inputs = Inputs.generate ~size ~work:work_dir ~seconds workload seed in
  let r = serve ~plan:setup_plan ~seconds:(float_of_int seconds) ~corrupt inputs in
  let o = r.outcome in
  let updates = of_kind Drive.Update o and queries = of_kind Drive.Query o and explains = of_kind Drive.Explain o in
  let reads_done = List.length (reads o) in
  let op_ms =
    match workload with
    | Inputs.Cdc_control -> updates
    | Inputs.Point_query -> queries
    | Inputs.Explain_hot -> explains
  in
  let attempted = List.length o.Drive.samples and failed = failures o in
  let reads_per_s = float_of_int reads_done /. o.Drive.wall_s in
  let setup_s = require "setup_s" (Stats.median r.setups) in
  let peak_mib = r.peak_heap_bytes /. 1048576.0 in
  say "perfbench %s seed=%d seconds=%d: %d entities, %d EDB facts; ekg-serve --domains %d; closed loop"
    (Inputs.name workload) seed seconds inputs.kg.Ekg_datagen.Kg.total_entities
    (inputs.kg.Ekg_datagen.Kg.companies + inputs.kg.Ekg_datagen.Kg.own_edges)
    Daemon.domains;
  if o.Drive.log_exhausted then say "  warning: the CDC log ran out before the clock";
  say "end-to-end (perfbench/layers.json defines each metric):";
  report_line "setup_s" "s" (fmt_value setup_s)
    (Printf.sprintf "(median of n=%d set-ups, %.3f to %.3f)" (List.length r.setups)
       (List.fold_left Float.min infinity r.setups)
       (List.fold_left Float.max 0.0 r.setups));
  timing "update_p50_ms" ~q:0.5 updates;
  timing "update_p90_ms" ~q:0.9 updates;
  (match workload with
  | Inputs.Cdc_control ->
    report_line "updates_per_s" "facts/s"
      (fmt_value (float_of_int o.Drive.facts_applied /. o.Drive.wall_s))
      (Printf.sprintf "(%d facts in %d requests)" o.Drive.facts_applied (List.length updates))
  | Inputs.Point_query | Inputs.Explain_hot ->
    report_line "updates_per_s" "facts/s" "n/a" "(no writes in this workload)");
  timing "query_p50_ms" ~q:0.5 queries;
  timing "query_p90_ms" ~q:0.9 queries;
  timing "explain_p50_ms" ~q:0.5 explains;
  timing "explain_p99_ms" ~q:0.99 explains;
  report_line "reads_per_s" "ops/s" (fmt_value reads_per_s) (Printf.sprintf "(n=%d)" reads_done);
  report_line "peak_heap_mib" "MiB" (fmt_value peak_mib) "(server GC high-water)";
  report_line "error_ratio" "ratio"
    (fmt_value (Stats.ratio failed attempted))
    (Printf.sprintf "(%d of %d ops)" failed attempted);
  verdict_line (Inputs.name workload) r.verdict;
  let correct = Result.is_ok r.verdict in
  print_result ~correct ~attempted ~failed
    [
      { name = "setup_s"; unit = "s"; value = setup_s };
      { name = "op_p50_ms"; unit = "ms"; value = require "op_p50_ms" (Stats.median op_ms) };
      { name = "reads_per_s"; unit = "1/s"; value = reads_per_s };
      { name = "peak_heap_mib"; unit = "MiB"; value = peak_mib };
    ];
  correct

(* --- --trace 1: per-layer -------------------------------------------------- *)

type event = { duration_ms : float; queue_wait_ms : float; cache_hit : bool; shed : bool; endpoint : string }

let wide_events path =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok doc ->
        let num k = Option.value ~default:0.0 (Option.bind (Json.member k doc) Json.get_num) in
        let flag k = Option.value ~default:false (Json.mem_bool k doc) in
        Hashtbl.replace tbl
          (Option.value ~default:"" (Json.mem_str "trace_id" doc))
          {
            duration_ms = num "duration_ms";
            queue_wait_ms = num "queue_wait_ms";
            cache_hit = flag "cache_hit";
            shed = flag "shed";
            endpoint = Option.value ~default:"" (Json.mem_str "endpoint" doc);
          }
      | Error _ -> ())
    (String.split_on_char '\n' (Daemon.read_file path));
  tbl

let per_layer ~size ~seconds ~corrupt seed =
  let share = float_of_int seconds /. 3.0 in
  let runs =
    List.map
      (fun w ->
        let inputs = Inputs.generate ~size ~work:work_dir ~seconds w seed in
        let log_file = Filename.concat work_dir (Printf.sprintf "wide-%s.jsonl" (Inputs.name w)) in
        if Sys.file_exists log_file then Sys.remove log_file;
        let served = serve ~plan:measured_setup_only ~seconds:share ~corrupt ~log_file inputs in
        let counters = Replay.run ~seconds:share inputs in
        w, served, counters)
      Inputs.all
  in
  let find w = List.find (fun (w', _, _) -> w' = w) runs in
  let _, cdc, cdc_c = find Inputs.Cdc_control in
  let _, pq, pq_c = find Inputs.Point_query in
  let _, eh, eh_c = find Inputs.Explain_hot in
  let log r = wide_events (Option.get r.log_file) in
  let eh_events = log eh in
  let eh_samples = List.filter Drive.ok eh.outcome.Drive.samples in
  let matched f =
    List.filter_map (fun (s : Drive.sample) -> Option.map (f s) (Hashtbl.find_opt eh_events s.Drive.trace_id)) eh_samples
  in
  let explain_events = Hashtbl.fold (fun _ e acc -> if e.endpoint = "GET /v1/sessions/:id/explain" then e :: acc else acc) eh_events [] in
  let sheds =
    List.fold_left
      (fun acc tbl -> Hashtbl.fold (fun _ e n -> if e.shed then n + 1 else n) tbl acc)
      0 [ log cdc; log pq; eh_events ]
  in
  (* how long each cdc-control read overlapped an in-flight update *)
  let update_intervals =
    List.filter (fun (s : Drive.sample) -> s.Drive.kind = Drive.Update) cdc.outcome.Drive.samples
    |> List.map (fun (s : Drive.sample) -> s.Drive.t0, s.Drive.t1)
  in
  let read_wait =
    List.map (fun (s : Drive.sample) -> Stats.overlap (s.Drive.t0, s.Drive.t1) update_intervals *. 1000.0) (reads cdc.outcome)
  in
  let prom name = Daemon.prom_value pq.prometheus name in
  let hit_ratio hits misses =
    let h = prom hits and m = prom misses in
    if h +. m > 0.0 then h /. (h +. m) else 0.0
  in
  let span_median ~workload ~scale name =
    Option.map (fun v -> v *. scale) (Stats.median (Spans.durations ~workload:(Inputs.name workload) name))
  in
  let median_of what xs = require what (Stats.median xs) in
  let ms = 1000.0 and us = 1e6 in
  let m name unit value = { name; unit; value } in
  let metrics =
    [
      m "server.queue_wait_ms_p50" "ms" (median_of "queue wait" (matched (fun _ e -> e.queue_wait_ms)));
      m "server.wire_ms_p50" "ms"
        (median_of "wire time" (matched (fun s e -> Drive.latency_ms s -. e.duration_ms)));
      m "server.sheds" "count" (float_of_int sheds);
      m "http.parse_us" "us" (require "http.parse" (span_median ~workload:Inputs.Explain_hot ~scale:us "http.parse"));
      m "json.encode_us" "us" (require "json.encode" (span_median ~workload:Inputs.Explain_hot ~scale:us "json.encode"));
      m "registry.read_wait_ms_p50" "ms" (median_of "read wait" read_wait);
      m "registry.explain_cache_hit_ratio" "ratio"
        (Stats.ratio (List.length (List.filter (fun e -> e.cache_hit) explain_events)) (List.length explain_events));
      m "registry.query_answer_hit_ratio" "ratio"
        (hit_ratio Registry.query_answer_hits_metric Registry.query_answer_misses_metric);
      m "registry.query_rewrite_hit_ratio" "ratio"
        (hit_ratio Registry.query_rewrite_hits_metric Registry.query_rewrite_misses_metric);
      m "registry.edb_mirror_ms" "ms"
        (require "registry.edb_mirror" (span_median ~workload:Inputs.Cdc_control ~scale:ms "registry.edb_mirror"));
      m "chase.cold_ms" "ms" (require "chase.cold" (span_median ~workload:Inputs.Cdc_control ~scale:ms "chase.cold"));
      m "chase.update_ms_p50" "ms"
        (require "chase.update" (span_median ~workload:Inputs.Cdc_control ~scale:ms "chase.update"));
      m "chase.incremental_ratio" "ratio" (Stats.ratio cdc_c.Replay.incremental cdc_c.Replay.updates);
      m "chase.update_rounds" "count" (median_of "update rounds" cdc_c.Replay.rounds);
      m "chase.facts" "count" (float_of_int cdc_c.Replay.cold_facts);
      m "database.heap_bytes_per_fact" "B" cdc_c.Replay.heap_bytes_per_fact;
      m "magic.specialize_ms" "ms"
        (require "magic.specialize" (span_median ~workload:Inputs.Point_query ~scale:ms "magic.specialize"));
      m "magic.scoped_chase_ms_p50" "ms"
        (require "magic.scoped_chase" (span_median ~workload:Inputs.Point_query ~scale:ms "magic.scoped_chase"));
      m "magic.facts_per_answer" "count" (median_of "facts per answer" pq_c.Replay.facts_per_answer);
      m "proof.extract_us" "us" (require "proof.extract" (span_median ~workload:Inputs.Explain_hot ~scale:us "proof.extract"));
      m "proof_mapper.map_us" "us"
        (require "proof_mapper.map" (span_median ~workload:Inputs.Explain_hot ~scale:us "proof_mapper.map"));
      m "instantiate.render_us" "us"
        (require "instantiate.render" (span_median ~workload:Inputs.Explain_hot ~scale:us "instantiate.render"));
      m "proof.length" "count" (median_of "proof length" eh_c.Replay.proof_lengths);
      m "pipeline.build_ms" "ms"
        (median_of "pipeline.build"
           (List.concat_map
              (fun w -> List.map (fun d -> d *. ms) (Spans.durations ~workload:(Inputs.name w) "pipeline.build"))
              Inputs.all));
    ]
    @ List.map
        (fun w -> m ("coverage." ^ Inputs.name w) "ratio" (Spans.coverage ~workload:(Inputs.name w)))
        Inputs.all
  in
  let spans_file = Filename.concat work_dir "spans.jsonl" in
  Spans.write spans_file;
  say "perfbench traced run seed=%d seconds=%d (%.3g s per workload); spans in %s" seed seconds share spans_file;
  say "per-layer (perfbench/layers.json maps each to the end-to-end metric it should move):";
  List.iter (fun x -> report_line x.name x.unit (fmt_value x.value) "") metrics;
  let mismatches = List.concat_map (fun (_, _, c) -> c.Replay.mismatches) runs in
  List.iter (fun (w, r, _) -> verdict_line (Inputs.name w) r.verdict) runs;
  let replay_verdict = match mismatches with [] -> Ok () | e :: _ -> Error e in
  verdict_line "replay" replay_verdict;
  let correct = List.for_all (fun (_, r, _) -> Result.is_ok r.verdict) runs && Result.is_ok replay_verdict in
  let attempted = List.fold_left (fun n (_, r, _) -> n + List.length r.outcome.Drive.samples) 0 runs in
  let failed = List.fold_left (fun n (_, r, _) -> n + failures r.outcome) 0 runs in
  print_result ~correct ~attempted ~failed metrics;
  correct

(* --- command line ---------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let size = ref "full" and corrupt = ref false in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, "NAME cdc-control | point-query | explain-hot";
      "--seed", Arg.Set_int seed, "N workload seed";
      "--seconds", Arg.Set_int seconds, "S measured seconds";
      "--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run";
      "--size", Arg.Set_string size, "full|tiny input scale (tiny is the self-test's)";
      "--corrupt-expectation", Arg.Set corrupt, " feed every check a wrong expectation";
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let size = match !size with "full" -> Some Inputs.Full | "tiny" -> Some Inputs.Tiny | _ -> None in
  match Inputs.of_name !workload, size with
  | Some w, Some size when !seed >= 0 && !seconds >= 1 && (!trace = 0 || !trace = 1) ->
    if not (Sys.file_exists Daemon.serve_exe) then begin
      prerr_endline ("perfbench: " ^ Daemon.serve_exe ^ " is missing; run perfbench/run.sh");
      exit 2
    end;
    if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
    let stop_servers _ =
      List.iter Daemon.stop !Daemon.live;
      exit 3
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_servers);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_servers);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let correct =
      try
        if !trace = 0 then end_to_end ~size ~seconds:!seconds ~corrupt:!corrupt w !seed
        else per_layer ~size ~seconds:!seconds ~corrupt:!corrupt !seed
      with Failure e ->
        List.iter Daemon.stop !Daemon.live;
        prerr_endline ("perfbench: " ^ e);
        exit 2
    in
    exit (if correct then 0 else 1)
  | _ ->
    prerr_endline usage;
    exit 2
