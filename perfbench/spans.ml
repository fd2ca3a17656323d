(* In-memory spans for the traced run.  A span records its name, its
   parent, and start/end times; spans are kept in memory and written out
   once at the end.  A span's self time is its duration minus the time
   its direct children cover.  Spans only ever wrap calls made from the
   benchmark's own files: nothing inside the program is instrumented. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  workload : string;
  name : string;  (** "<layer>.<call>", or "op" for a replayed request *)
  t0 : float;
  mutable t1 : float;
  mutable child_s : float;
}

let finished : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let workload = ref ""

let with_span name f =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s = { id = !next_id; parent; workload = !workload; name; t0 = Clock.now (); t1 = 0.0; child_s = 0.0 } in
  incr next_id;
  stack := s :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Clock.now ();
      stack := List.tl !stack;
      (match !stack with p :: _ -> p.child_s <- p.child_s +. (s.t1 -. s.t0) | [] -> ());
      finished := s :: !finished)
    f

let duration s = s.t1 -. s.t0
let self_time s = duration s -. s.child_s

let named ~workload name =
  List.filter (fun s -> s.workload = workload && s.name = name) !finished

(* durations, in seconds, of one span name on one workload *)
let durations ~workload name = List.map duration (named ~workload name)

(* share of replayed-op wall time that named layer spans cover; time in
   calls the benchmark does not wrap shows up as the uncovered rest *)
let coverage ~workload =
  let ops = named ~workload "op" in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !finished;
  let rec under_op s =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> p.name = "op" || under_op p
    | None -> false
  in
  let covered =
    List.fold_left
      (fun acc s ->
        if s.workload = workload && s.name <> "op" && under_op s then acc +. self_time s else acc)
      0.0 !finished
  in
  let total = List.fold_left (fun acc s -> acc +. duration s) 0.0 ops in
  if total > 0.0 then covered /. total else 0.0

let write path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"workload\":%S,\"name\":%S,\"start_s\":%.6f,\"duration_us\":%.1f,\"self_us\":%.1f}\n"
            s.id s.parent s.workload s.name s.t0 (duration s *. 1e6) (self_time s *. 1e6))
        (List.rev !finished))
