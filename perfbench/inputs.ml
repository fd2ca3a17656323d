(* Workload definitions and the inputs generated from the seed.

   Everything a run sends is a function of [--seed]: the knowledge graph
   ([Ekg_datagen.Kg]), the CDC log ([Ekg_datagen.Cdc]) and the request
   keys.  The server only ever sees the generated files and requests. *)

open Ekg_kernel
open Ekg_datagen

type workload = Cdc_control | Point_query | Explain_hot

let all = [ Cdc_control; Point_query; Explain_hot ]

let name = function
  | Cdc_control -> "cdc-control"
  | Point_query -> "point-query"
  | Explain_hot -> "explain-hot"

let of_name s = List.find_opt (fun w -> name w = s) all

type size = Full | Tiny  (** [Tiny] is the self-test's scale *)

(* point-query is smaller: each query's scoped chase holds a copy of the
   whole EDB, and at 5000 core entities its median moved by up to 40%
   between runs of one seed minutes apart, against 10% at 2000 *)
let core_entities size = function
  | Cdc_control | Explain_hot -> (match size with Full -> 5_000 | Tiny -> 300)
  | Point_query -> (match size with Full -> 2_000 | Tiny -> 600)

(* CDC stream shape: the generator's defaults (200 ops per batch, 30%
   retractions, 5% fresh shell companies) *)
let cdc_config ~batches = { Cdc.default_config with batches }

(* explain-hot key mix and skew *)
let company_explains size = match size with Full -> 300 | Tiny -> 20
let zipf_exponent = 1.0
let sequence_length = 200_000

type t = {
  workload : workload;
  seed : int;
  dir : string;  (** the server root: company.csv, own.csv, program.vada *)
  kg : Kg.t;
  log : Cdc.log;  (** cdc-control's write stream; [] elsewhere *)
  keys : string array;  (** explain-hot's key universe, hottest first *)
  sequence : int array;  (** explain-hot's fixed request order, as key indices *)
}

let company_query k = Printf.sprintf "control(\"c%d\", X)" k

(* Ground control goals that need two or more hops, read off the motif
   layout [Kg.generate] plants after the core entities: chains, then
   cycles, then diamonds, each on fresh consecutive ids. *)
let motif_goals (cfg : Kg.config) =
  let goals = ref [] in
  let add x y = goals := Printf.sprintf "control(\"c%d\", \"c%d\")" x y :: !goals in
  let next = ref cfg.entities in
  let fresh k =
    let base = !next in
    next := base + k;
    base
  in
  for _ = 1 to cfg.chains do
    let b = fresh (cfg.chain_hops + 1) in
    for h = 2 to cfg.chain_hops do add b (b + h) done
  done;
  for _ = 1 to cfg.cycles do
    let b = fresh cfg.cycle_len in
    for i = 0 to cfg.cycle_len - 1 do
      for d = 2 to cfg.cycle_len - 1 do add (b + i) (b + ((i + d) mod cfg.cycle_len)) done
    done
  done;
  for _ = 1 to cfg.diamonds do
    let b = fresh (cfg.diamond_fanout + 2) in
    add b (b + 1)
  done;
  List.rev !goals

(* [n] draws of Zipf(s)-distributed ranks in [0, k) *)
let zipf_sequence rng ~k ~s n =
  let cdf = Array.make k 0.0 in
  let total = ref 0.0 in
  for r = 0 to k - 1 do
    total := !total +. (1.0 /. (float_of_int (r + 1) ** s));
    cdf.(r) <- !total
  done;
  Array.init n (fun _ ->
      let u = Prng.float rng !total in
      let lo = ref 0 and hi = ref (k - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      !lo)

(* independent, reproducible streams per purpose *)
let stream seed purpose = Prng.create ((seed * 1_000_003) + purpose)

let generate ~size ~work ~seconds workload seed =
  let dir = Filename.concat work (Printf.sprintf "%s-%d" (name workload) seed) in
  let entities = core_entities size workload in
  (* the out-degree cap scales with the graph: Kg.default's fixed cap of
     500 lets one seed's largest holder own a tenth of a 5k graph, and
     the EDB size then varies 10% between seeds, against 3% at 2% *)
  let cfg = { (Kg.default ~entities) with Kg.seed; max_out_degree = max 10 (entities / 50) } in
  let kg = Kg.to_csv_dir cfg ~dir in
  let log =
    match workload with
    | Cdc_control ->
      (* more batches than any commit speed can use up in the run: one
         batch per 10 ms of measured time *)
      Cdc.generate (stream seed 1) ~kg (cdc_config ~batches:(max 50 (100 * seconds)))
    | Point_query | Explain_hot -> []
  in
  let keys, sequence =
    match workload with
    | Explain_hot ->
      let rng = stream seed 2 in
      let companies =
        List.init (company_explains size) (fun _ -> company_query (Prng.int rng cfg.entities))
      in
      let keys =
        Array.of_list (Prng.shuffle rng (List.sort_uniq compare (motif_goals cfg @ companies)))
      in
      keys, zipf_sequence rng ~k:(Array.length keys) ~s:zipf_exponent sequence_length
    | Cdc_control | Point_query -> [||], [||]
  in
  { workload; seed; dir; kg; log; keys; sequence }

(* a seeded stream of per-company point queries over every entity *)
let query_stream t purpose =
  let rng = stream t.seed purpose in
  fun () -> company_query (Prng.int rng t.kg.Kg.total_entities)
