open Ekg_engine

type spec =
  | App of string
  | Files of { program : string; glossary : string option; facts_dir : string option }
  | Inline of { program : string; glossary : string option }

type t = {
  id : string;
  name : string;
  spec : spec;
  program_hash : string;
  update_gen : int;
  created_at : float;
  edb : Database.t;
  mat : Chase.result option;
}

let magic = "EKGSNAP0"
let format_version = 1

type error =
  | Bad_magic
  | Version_mismatch of { found : int; expected : int }
  | Truncated
  | Corrupt of string
  | Fingerprint_mismatch of { expected : string; got : string }

let error_to_string = function
  | Bad_magic -> "not a session snapshot (bad magic)"
  | Version_mismatch { found; expected } ->
    Printf.sprintf "snapshot format version %d (this build reads %d)" found
      expected
  | Truncated -> "snapshot is truncated"
  | Corrupt m -> "snapshot is corrupt: " ^ m
  | Fingerprint_mismatch { expected; got } ->
    Printf.sprintf
      "restored instance fingerprint %s does not match recorded %s" got
      expected

(* --- section checksums -------------------------------------------------------

   FNV-1a over the section bytes, stored as 8 raw bytes after the
   section.  Detects the single-bit rot and partial-overwrite cases the
   qcheck corruption property exercises; end-to-end instance integrity
   is additionally guarded by the fingerprint digest in the header. *)

let fnv1a s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let w_checksum b h =
  for i = 0 to 7 do
    Wire.w_u8 b (Int64.to_int (Int64.shift_right_logical h (8 * i)) land 0xff)
  done

let r_checksum r =
  let h = ref 0L in
  for i = 0 to 7 do
    h := Int64.logor !h (Int64.shift_left (Int64.of_int (Wire.r_u8 r)) (8 * i))
  done;
  !h

let w_section b payload =
  Wire.w_int b (String.length payload);
  Buffer.add_string b payload;
  w_checksum b (fnv1a payload)

(* read one length-prefixed, checksummed section and return a reader
   over exactly its payload bytes *)
let read_section r =
  let len = Wire.r_int r in
  if len < 0 then raise (Wire.Corrupt "negative section length");
  let payload = Wire.r_bytes r len in
  let recorded = r_checksum r in
  if not (Int64.equal (fnv1a payload) recorded) then
    raise (Wire.Corrupt "section checksum mismatch");
  Wire.reader payload

(* --- fields ------------------------------------------------------------------ *)

let w_opt_string b = function
  | None -> Wire.w_bool b false
  | Some s ->
    Wire.w_bool b true;
    Wire.w_string b s

let r_opt_string r = if Wire.r_bool r then Some (Wire.r_string r) else None

let w_spec b = function
  | App app ->
    Wire.w_u8 b 0;
    Wire.w_string b app
  | Files { program; glossary; facts_dir } ->
    Wire.w_u8 b 1;
    Wire.w_string b program;
    w_opt_string b glossary;
    w_opt_string b facts_dir
  | Inline { program; glossary } ->
    Wire.w_u8 b 2;
    Wire.w_string b program;
    w_opt_string b glossary

let r_spec r =
  match Wire.r_u8 r with
  | 0 -> App (Wire.r_string r)
  | 1 ->
    let program = Wire.r_string r in
    let glossary = r_opt_string r in
    let facts_dir = r_opt_string r in
    Files { program; glossary; facts_dir }
  | 2 ->
    let program = Wire.r_string r in
    let glossary = r_opt_string r in
    Inline { program; glossary }
  | n -> raise (Wire.Corrupt (Printf.sprintf "spec tag %d" n))

(* an EDB fact is written as the atom it stands for: predicate, arity,
   values (a test pins this layout: older snapshots must decode) *)
let w_fact b (f : Fact.t) =
  Wire.w_string b f.Fact.pred;
  Wire.w_int b (Array.length f.Fact.args);
  Array.iter (Wire.w_value b) f.Fact.args

let r_fact_into r db =
  let pred = Wire.r_string r in
  let n = Wire.r_int r in
  if n < 0 then raise (Wire.Corrupt "negative atom arity");
  let args = Array.make n (Ekg_kernel.Value.Int 0) in
  for i = 0 to n - 1 do
    args.(i) <- Wire.r_value r
  done;
  ignore (Database.add db pred args)

let fingerprint_hex db = Digest.to_hex (Digest.string (Database.fingerprint db))

(* --- encode ------------------------------------------------------------------ *)

let encode snap =
  let meta = Buffer.create 1024 in
  Wire.w_string meta snap.id;
  Wire.w_string meta snap.name;
  w_spec meta snap.spec;
  Wire.w_string meta snap.program_hash;
  Wire.w_int meta snap.update_gen;
  Wire.w_float meta snap.created_at;
  (match snap.mat with
  | None -> Wire.w_string meta ""
  | Some mat -> Wire.w_string meta (fingerprint_hex mat.Chase.db));
  let edb = Database.active_all snap.edb in
  Wire.w_int meta (List.length edb);
  List.iter (w_fact meta) edb;
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Wire.w_int b format_version;
  w_section b (Buffer.contents meta);
  (match snap.mat with
  | None -> Wire.w_bool b false
  | Some mat ->
    Wire.w_bool b true;
    let body = Buffer.create 4096 in
    Database.encode body mat.Chase.db;
    Provenance.encode body mat.Chase.prov;
    Wire.w_int body mat.Chase.rounds;
    Wire.w_int body mat.Chase.derived_count;
    w_section b (Buffer.contents body));
  Buffer.contents b

(* --- decode ------------------------------------------------------------------ *)

let decode_header r =
  if not (Wire.expect_magic r magic) then Error Bad_magic
  else
    let found = Wire.r_int r in
    if found <> format_version then
      Error (Version_mismatch { found; expected = format_version })
    else Ok ()

let decode_meta_section mr =
  let id = Wire.r_string mr in
  let name = Wire.r_string mr in
  let spec = r_spec mr in
  let program_hash = Wire.r_string mr in
  let update_gen = Wire.r_int mr in
  let created_at = Wire.r_float mr in
  let fingerprint = Wire.r_string mr in
  let n = Wire.r_int mr in
  if n < 0 then raise (Wire.Corrupt "negative EDB size");
  let edb = Database.create () in
  for _ = 1 to n do
    r_fact_into mr edb
  done;
  Database.freeze edb;
  if Wire.remaining mr <> 0 then raise (Wire.Corrupt "trailing bytes in meta");
  ( { id; name; spec; program_hash; update_gen; created_at; edb; mat = None },
    fingerprint )

let with_errors f =
  try f () with
  | Wire.Truncated -> Error Truncated
  | Wire.Corrupt m -> Error (Corrupt m)

let decode_meta data =
  with_errors @@ fun () ->
  let r = Wire.reader data in
  Result.map
    (fun () ->
      let snap, _fp = decode_meta_section (read_section r) in
      snap)
    (decode_header r)

let decode data =
  with_errors @@ fun () ->
  let r = Wire.reader data in
  match decode_header r with
  | Error _ as e -> e
  | Ok () ->
    let snap, recorded_fp = decode_meta_section (read_section r) in
    if not (Wire.r_bool r) then begin
      if Wire.remaining r <> 0 then raise (Wire.Corrupt "trailing bytes");
      Ok snap
    end
    else begin
      let br = read_section r in
      if Wire.remaining r <> 0 then raise (Wire.Corrupt "trailing bytes");
      let db = Database.decode br in
      let prov = Provenance.decode br in
      let rounds = Wire.r_int br in
      let derived_count = Wire.r_int br in
      if Wire.remaining br <> 0 then
        raise (Wire.Corrupt "trailing bytes in materialization");
      let got = fingerprint_hex db in
      if not (String.equal got recorded_fp) then
        Error (Fingerprint_mismatch { expected = recorded_fp; got })
      else
        Ok
          {
            snap with
            mat =
              Some { Chase.db; prov; rounds; derived_count; stats = None };
          }
    end
