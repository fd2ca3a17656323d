(* Tests for the persistent session store: wire primitives, the
   versioned snapshot codec (round-trips on every bundled app,
   fingerprint identity, typed corruption/truncation/version errors),
   the atomic on-disk store, and the write-behind snapshotter. *)

open Ekg_datalog
open Ekg_engine
open Ekg_store

let check = Alcotest.check
let bool' = Alcotest.bool
let int' = Alcotest.int
let string' = Alcotest.string

let contains haystack needle =
  List.length (Ekg_kernel.Textutil.split_on_string ~sep:needle haystack) > 1

(* --- fixtures --------------------------------------------------------------- *)

let chase_exn program edb =
  match Chase.run program edb with
  | Ok r -> r
  | Error e -> Alcotest.failf "chase: %s" e

let bundled_apps = Ekg_apps.Bundled.names

let load_app_exn app =
  match Ekg_apps.Bundled.load app with
  | Ok l -> l
  | Error e -> Alcotest.failf "load %s: %s" app e

let edb_store_exn edb =
  match Ekg_core.Pipeline.edb_base edb with
  | Ok base -> base
  | Error e -> Alcotest.failf "edb store: %s" (Chase.error_to_string e)

(* a store's facts in id order, values compared structurally ([Int 1]
   and [Num 1.0] stay apart) *)
let edb_facts db =
  List.map (fun (f : Fact.t) -> (f.Fact.pred, f.Fact.args)) (Database.active_all db)

(* a full snapshot (materialization included) of one bundled app *)
let snapshot_of_app ?(id = "s1") app =
  let { Ekg_apps.Apps_util.pipeline; edb } = load_app_exn app in
  let mat = chase_exn pipeline.Ekg_core.Pipeline.program edb in
  let edb = edb_store_exn edb in
  {
    Codec.id;
    name = app;
    spec = Codec.App app;
    program_hash = Ekg_core.Pipeline.identity pipeline;
    update_gen = 3;
    created_at = 1.75e9;
    edb;
    mat = Some mat;
  }

let mat_exn (snap : Codec.t) =
  match snap.Codec.mat with
  | Some m -> m
  | None -> Alcotest.fail "snapshot lost its materialization"

let db_fp (r : Chase.result) = Database.fingerprint r.Chase.db

let prov_bytes (r : Chase.result) =
  let b = Buffer.create 256 in
  Provenance.encode b r.Chase.prov;
  Buffer.contents b

(* --- wire primitives -------------------------------------------------------- *)

let test_wire_int_roundtrip () =
  let cases =
    [ 0; 1; -1; 63; 64; -64; -65; 127; 128; 300; -300; 1 lsl 30; max_int; min_int ]
  in
  let b = Buffer.create 64 in
  List.iter (Wire.w_int b) cases;
  let r = Wire.reader (Buffer.contents b) in
  List.iter (fun n -> check int' (string_of_int n) n (Wire.r_int r)) cases;
  check int' "fully consumed" 0 (Wire.remaining r)

let test_wire_mixed_roundtrip () =
  let b = Buffer.create 64 in
  Wire.w_string b "héllo\x00world";
  Wire.w_float b (-0.125);
  Wire.w_bool b true;
  Wire.w_value b (Ekg_kernel.Value.str "x");
  Wire.w_value b (Ekg_kernel.Value.num 2.5);
  Wire.w_value b (Ekg_kernel.Value.Null 7);
  Wire.w_int_list b [ 3; -1; 4 ];
  let r = Wire.reader (Buffer.contents b) in
  check string' "string" "héllo\x00world" (Wire.r_string r);
  check bool' "float" true (Wire.r_float r = -0.125);
  check bool' "bool" true (Wire.r_bool r);
  check bool' "str value" true (Wire.r_value r = Ekg_kernel.Value.str "x");
  check bool' "num value" true (Wire.r_value r = Ekg_kernel.Value.num 2.5);
  check bool' "null value" true (Wire.r_value r = Ekg_kernel.Value.Null 7);
  check bool' "int list" true (Wire.r_int_list r = [ 3; -1; 4 ])

let test_wire_strictness () =
  (match Wire.r_string (Wire.reader "\x08ab") with
  | exception Wire.Truncated -> ()
  | _ -> Alcotest.fail "short string should raise Truncated");
  (match Wire.r_bool (Wire.reader "\x05") with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "bool tag 5 should raise Corrupt");
  match Wire.r_value (Wire.reader "\x09") with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "value tag 9 should raise Corrupt"

(* --- codec round-trips ------------------------------------------------------ *)

let test_codec_roundtrip_bundled () =
  List.iter
    (fun app ->
      let snap = snapshot_of_app app in
      let bytes = Codec.encode snap in
      match Codec.decode bytes with
      | Error e -> Alcotest.failf "%s: decode: %s" app (Codec.error_to_string e)
      | Ok snap' ->
        check string' (app ^ " id") snap.Codec.id snap'.Codec.id;
        check string' (app ^ " name") snap.Codec.name snap'.Codec.name;
        check bool' (app ^ " spec") true (snap.Codec.spec = snap'.Codec.spec);
        check string' (app ^ " program hash") snap.Codec.program_hash
          snap'.Codec.program_hash;
        check int' (app ^ " update_gen") snap.Codec.update_gen
          snap'.Codec.update_gen;
        check bool' (app ^ " edb") true
          (edb_facts snap.Codec.edb = edb_facts snap'.Codec.edb);
        let m = mat_exn snap and m' = mat_exn snap' in
        check string' (app ^ " db fingerprint") (db_fp m) (db_fp m');
        check string' (app ^ " provenance bytes") (prov_bytes m) (prov_bytes m');
        check int' (app ^ " rounds") m.Chase.rounds m'.Chase.rounds;
        check int' (app ^ " derived") m.Chase.derived_count
          m'.Chase.derived_count;
        (* deterministic: re-encoding the decoded snapshot reproduces
           the original bytes exactly *)
        check bool' (app ^ " byte-stable") true
          (String.equal bytes (Codec.encode snap')))
    bundled_apps

(* The fact-store wire format is pinned: each bundled app's materialized
   store encodes to the digest recorded when the format was last
   changed, so snapshots written by earlier releases keep restoring.  A
   change of storage layout must not move a byte here. *)
let test_database_wire_pinned () =
  let recorded =
    [
      ("company-control", "21f74508bb9375aafbafa5661af9046d");
      ("stress-test", "fec811ed629cf25ac7c9e24e17245452");
      ("close-link", "cf543cd69ae4e912cd7c18f1afa1d2a2");
      ("golden-power", "a1955276207e38dd99163facce1f67b1");
    ]
  in
  check bool' "every bundled app is pinned" true
    (List.sort compare bundled_apps = List.sort compare (List.map fst recorded));
  List.iter
    (fun (app, digest) ->
      let mat = mat_exn (snapshot_of_app app) in
      let b = Buffer.create 4096 in
      Database.encode b mat.Chase.db;
      let bytes = Buffer.contents b in
      check string' (app ^ " store digest") digest
        (Digest.to_hex (Digest.string bytes));
      let db = Database.decode (Wire.reader bytes) in
      check string' (app ^ " restored fingerprint") (db_fp mat)
        (Database.fingerprint db))
    recorded

let test_codec_dormant_roundtrip () =
  let snap = { (snapshot_of_app "company-control") with Codec.mat = None } in
  match Codec.decode (Codec.encode snap) with
  | Error e -> Alcotest.failf "decode: %s" (Codec.error_to_string e)
  | Ok snap' ->
    check bool' "still dormant" true (snap'.Codec.mat = None);
    check bool' "edb kept" true (edb_facts snap.Codec.edb = edb_facts snap'.Codec.edb)

let test_codec_decode_meta () =
  let snap = snapshot_of_app "company-control" in
  match Codec.decode_meta (Codec.encode snap) with
  | Error e -> Alcotest.failf "decode_meta: %s" (Codec.error_to_string e)
  | Ok m ->
    check string' "id" snap.Codec.id m.Codec.id;
    check int' "update_gen" snap.Codec.update_gen m.Codec.update_gen;
    check bool' "edb" true (edb_facts snap.Codec.edb = edb_facts m.Codec.edb);
    check bool' "meta read skips the materialization" true (m.Codec.mat = None)

(* --- typed failure modes ---------------------------------------------------- *)

let encoded_fixture = lazy (Codec.encode (snapshot_of_app "company-control"))

let set_byte s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

let test_codec_bad_magic () =
  let bytes = set_byte (Lazy.force encoded_fixture) 0 'X' in
  (match Codec.decode bytes with
  | Error Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  match Codec.decode_meta bytes with
  | Error Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic from decode_meta"

let test_codec_version_mismatch () =
  (* the version varint sits right after the 8-byte magic;
     zigzag(2) = 4 forges a future format version *)
  let bytes = set_byte (Lazy.force encoded_fixture) 8 '\x04' in
  match Codec.decode bytes with
  | Error (Codec.Version_mismatch { found = 2; expected }) ->
    check int' "expected is current" Codec.format_version expected
  | _ -> Alcotest.fail "expected Version_mismatch"

let test_codec_truncation () =
  let bytes = Lazy.force encoded_fixture in
  let n = String.length bytes in
  (* every proper prefix must fail with a typed error, never an
     exception and never a bogus Ok *)
  for len = 0 to n - 1 do
    if len mod 7 = 0 || len > n - 20 then
      match Codec.decode (String.sub bytes 0 len) with
      | Ok _ -> Alcotest.failf "prefix of %d/%d bytes decoded" len n
      | Error (Codec.Truncated | Codec.Bad_magic | Codec.Corrupt _) -> ()
      | Error e ->
        Alcotest.failf "prefix of %d bytes: unexpected %s" len
          (Codec.error_to_string e)
  done

let test_codec_fingerprint_guard () =
  (* decode checks the restored database against the recorded digest —
     build a snapshot whose recorded fingerprint lies by encoding a
     different materialization under the same meta *)
  let a = snapshot_of_app "company-control" in
  let b = snapshot_of_app "stress-test" in
  let bytes_a = Codec.encode a in
  let bytes_b = Codec.encode { b with Codec.id = a.Codec.id } in
  (* splice: header+meta of [a], materialization section of [b].  The
     meta section ends where [a]'s mat-presence flag begins; find the
     sections by re-reading the container structure *)
  let sections bytes =
    let r = Wire.reader bytes in
    ignore (Wire.expect_magic r "EKGSNAP0");
    ignore (Wire.r_int r);
    let len = Wire.r_int r in
    Wire.skip r (len + 8);
    (* meta payload + checksum *)
    let meta_end = Wire.pos r in
    (String.sub bytes 0 meta_end, String.sub bytes meta_end (String.length bytes - meta_end))
  in
  let head_a, _ = sections bytes_a in
  let _, mat_b = sections bytes_b in
  match Codec.decode (head_a ^ mat_b) with
  | Error (Codec.Fingerprint_mismatch _) -> ()
  | Error (Codec.Corrupt _) ->
    (* also acceptable: the replay itself can detect the splice *)
    ()
  | Ok _ -> Alcotest.fail "spliced snapshot decoded"
  | Error e -> Alcotest.failf "unexpected %s" (Codec.error_to_string e)

(* every single-byte mutation is detected: magic/version/flag bytes by
   their own validation, section payloads by the FNV checksum *)
let corruption_prop =
  QCheck2.Test.make ~name:"single-byte corruption always yields a typed error"
    ~count:300
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 255))
    (fun (pos_seed, delta) ->
      let bytes = Lazy.force encoded_fixture in
      let i = pos_seed mod String.length bytes in
      let corrupted =
        set_byte bytes i (Char.chr ((Char.code bytes.[i] + delta) land 0xff))
      in
      match Codec.decode corrupted with
      | Error _ -> true
      | Ok snap ->
        (* flips inside value payloads of the mat section can survive
           checksummed-but-semantically-equal only if they decode to
           the same instance; require fingerprint identity then *)
        String.equal
          (db_fp (mat_exn snap))
          (db_fp (mat_exn (snapshot_of_app "company-control"))))

(* random reasoning tasks round-trip fingerprint-identically *)
let roundtrip_prop =
  let edges_gen =
    QCheck2.Gen.(list_size (int_range 0 15) (pair (int_range 0 5) (int_range 0 5)))
  in
  QCheck2.Test.make ~name:"decode (encode result) is fingerprint-identical"
    ~count:60 edges_gen (fun raw ->
      let edb =
        List.map
          (fun (a, b) ->
            Atom.make "e"
              [ Term.str (Printf.sprintf "n%d" a); Term.str (Printf.sprintf "n%d" b) ])
          raw
      in
      let program =
        Ekg_apps.Apps_util.parse_program_exn
          {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}
      in
      let mat = chase_exn program edb in
      let snap =
        {
          Codec.id = "p1";
          name = "prop";
          spec = Codec.Inline { program = "…"; glossary = None };
          program_hash = "h";
          update_gen = 0;
          created_at = 0.;
          edb = edb_store_exn edb;
          mat = Some mat;
        }
      in
      match Codec.decode (Codec.encode snap) with
      | Error _ -> false
      | Ok snap' ->
        String.equal (db_fp mat) (db_fp (mat_exn snap'))
        && String.equal (prov_bytes mat) (prov_bytes (mat_exn snap')))

(* --- the on-disk store ------------------------------------------------------ *)

let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ekg_store_test_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

let open_exn dir =
  match Store.open_dir dir with
  | Ok s -> s
  | Error e -> Alcotest.failf "open_dir: %s" e

let test_store_save_load () =
  with_tmp_dir @@ fun dir ->
  let store = open_exn dir in
  let snap = snapshot_of_app "company-control" in
  (match Store.save store snap with
  | Error e -> Alcotest.failf "save: %s" e
  | Ok bytes -> check bool' "non-trivial size" true (bytes > 100));
  (match Store.load store "s1" with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok snap' ->
    check string' "fingerprint survives the disk trip"
      (db_fp (mat_exn snap))
      (db_fp (mat_exn snap')));
  (match Store.load_meta store "s1" with
  | Error e -> Alcotest.failf "load_meta: %s" e
  | Ok m -> check bool' "meta load is dormant" true (m.Codec.mat = None));
  check bool' "scan finds it" true (Store.scan store = [ "s1" ]);
  Store.delete store "s1";
  check bool' "deleted" true (Store.scan store = []);
  match Store.load store "s1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load after delete"

let test_store_rejects_bad_ids () =
  with_tmp_dir @@ fun dir ->
  let store = open_exn dir in
  let snap id = { (snapshot_of_app "company-control") with Codec.id = id } in
  List.iter
    (fun id ->
      match Store.save store (snap id) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "id %S accepted" id)
    [ ""; "../escape"; "a/b"; ".hidden" ]

let test_store_scan_order_and_sweep () =
  with_tmp_dir @@ fun dir ->
  let store = open_exn dir in
  List.iter
    (fun id ->
      match Store.save store { (snapshot_of_app "company-control") with Codec.id = id } with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save %s: %s" id e)
    [ "s10"; "s2"; "s1" ];
  check bool' "numeric-friendly order" true (Store.scan store = [ "s1"; "s2"; "s10" ]);
  (* a torn tmp file from a crashed writer is ignored and swept *)
  let torn = Filename.concat dir "s9.snap.1234.tmp" in
  let oc = open_out torn in
  output_string oc "partial";
  close_out oc;
  check bool' "tmp not scanned" true (Store.scan store = [ "s1"; "s2"; "s10" ]);
  let store2 = open_exn dir in
  check bool' "sweep removed the tmp" false (Sys.file_exists torn);
  check bool' "snapshots survive reopen" true
    (Store.scan store2 = [ "s1"; "s2"; "s10" ])

let test_store_corrupt_file_is_typed () =
  with_tmp_dir @@ fun dir ->
  let store = open_exn dir in
  let snap = snapshot_of_app "company-control" in
  (match Store.save store snap with Ok _ -> () | Error e -> Alcotest.failf "save: %s" e);
  (* truncate the file in place, as an interrupted copy would *)
  let path = Store.path store "s1" in
  let data = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub data 0 (String.length data / 2)));
  match Store.load store "s1" with
  | Error e -> check bool' "mentions truncation or corruption" true
      (let l = String.lowercase_ascii e in
       (* the cut can land mid-field (truncated) or mid-section (checksum) *)
       contains l "truncat" || contains l "corrupt")
  | Ok _ -> Alcotest.fail "truncated snapshot loaded"

(* --- snapshotter ------------------------------------------------------------ *)

let test_snapshotter_sync () =
  with_tmp_dir @@ fun dir ->
  let store = open_exn dir in
  let sn = Snapshotter.create ~mode:Snapshotter.Sync store in
  Snapshotter.request sn ~sid:"s1" (fun () -> Some (snapshot_of_app "company-control"));
  check bool' "saved inline" true (Store.scan store = [ "s1" ]);
  Snapshotter.request sn ~sid:"s2" (fun () -> None);
  check bool' "None capture skips the save" true (Store.scan store = [ "s1" ]);
  Snapshotter.stop sn

let test_snapshotter_write_behind_coalesces () =
  with_tmp_dir @@ fun dir ->
  let store = open_exn dir in
  let sn = Snapshotter.create ~mode:Snapshotter.Write_behind store in
  let captures = Atomic.make 0 in
  let gate = Mutex.create () in
  (* hold the first capture at the gate so later requests pile up and
     coalesce behind it *)
  Mutex.lock gate;
  Snapshotter.request sn ~sid:"s1" (fun () ->
      Mutex.lock gate;
      Mutex.unlock gate;
      Atomic.incr captures;
      Some { (snapshot_of_app "company-control") with Codec.update_gen = 0 });
  for gen = 1 to 5 do
    Snapshotter.request sn ~sid:"s2" (fun () ->
        Atomic.incr captures;
        Some { (snapshot_of_app ~id:"s2" "company-control") with Codec.update_gen = gen })
  done;
  Mutex.unlock gate;
  Snapshotter.flush sn;
  (* s1 ran (it may have started before the pile-up), and the five s2
     requests collapsed into at most... the one that was pending when
     the worker got to s2 — i.e. exactly one capture for s2 *)
  check int' "burst coalesced" 2 (Atomic.get captures);
  (match Store.load_meta store "s2" with
  | Ok m -> check int' "last capture won" 5 m.Codec.update_gen
  | Error e -> Alcotest.failf "s2: %s" e);
  Snapshotter.stop sn;
  Snapshotter.stop sn (* idempotent *)

let test_snapshotter_discard () =
  with_tmp_dir @@ fun dir ->
  let store = open_exn dir in
  let sn = Snapshotter.create ~mode:Snapshotter.Off store in
  Snapshotter.request sn ~sid:"s1" (fun () -> Some (snapshot_of_app "company-control"));
  check bool' "off drops requests" true (Store.scan store = []);
  Snapshotter.discard sn ~sid:"s1";
  Snapshotter.stop sn

(* --- main ------------------------------------------------------------------- *)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ roundtrip_prop; corruption_prop ]

let () =
  Alcotest.run "ekg_store"
    [
      ( "wire",
        [
          Alcotest.test_case "int round-trip" `Quick test_wire_int_roundtrip;
          Alcotest.test_case "mixed round-trip" `Quick test_wire_mixed_roundtrip;
          Alcotest.test_case "strict decoding" `Quick test_wire_strictness;
        ] );
      ( "codec",
        [
          Alcotest.test_case "bundled apps round-trip" `Quick
            test_codec_roundtrip_bundled;
          Alcotest.test_case "store wire format pinned" `Quick
            test_database_wire_pinned;
          Alcotest.test_case "dormant round-trip" `Quick test_codec_dormant_roundtrip;
          Alcotest.test_case "meta-only read" `Quick test_codec_decode_meta;
          Alcotest.test_case "bad magic" `Quick test_codec_bad_magic;
          Alcotest.test_case "version mismatch" `Quick test_codec_version_mismatch;
          Alcotest.test_case "truncation" `Quick test_codec_truncation;
          Alcotest.test_case "fingerprint guard" `Quick test_codec_fingerprint_guard;
        ] );
      ( "store",
        [
          Alcotest.test_case "save/load/scan/delete" `Quick test_store_save_load;
          Alcotest.test_case "id validation" `Quick test_store_rejects_bad_ids;
          Alcotest.test_case "scan order + tmp sweep" `Quick
            test_store_scan_order_and_sweep;
          Alcotest.test_case "corrupt file is a typed error" `Quick
            test_store_corrupt_file_is_typed;
        ] );
      ( "snapshotter",
        [
          Alcotest.test_case "sync mode" `Quick test_snapshotter_sync;
          Alcotest.test_case "write-behind coalescing" `Quick
            test_snapshotter_write_behind_coalesces;
          Alcotest.test_case "off + discard" `Quick test_snapshotter_discard;
        ] );
      ("properties", qsuite);
    ]
