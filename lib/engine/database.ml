open Ekg_kernel
open Ekg_datalog

(* value interning: one dense id per [Value.equal]-class.  The matcher's
   hash-join core compares and hashes interned ids instead of values —
   [Value.equal] identifies numerically equal [Int]/[Num] values, so the
   interning must too, or the columnar probe would miss matches the
   tuple-level [Subst.match_atom] finds. *)
module ValTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let no_fact = { Fact.id = -1; pred = ""; args = [||] }

(* read-only: the "no bucket" result of index probes *)
let empty_bucket = Intvec.create ~capacity:1 ()

(* A multi-column hash index over a column group, keyed by a bitmask of
   key columns.  Buckets hold row numbers in ascending order (rows are
   only ever appended), and [ix_rows] is the watermark of rows already
   indexed: extending the index after a round's insertions only scans
   the new rows.  Collisions are benign — the matcher re-checks every
   column of a candidate row against its interned ids.

   The bucket table is open-addressing with linear probing rather than
   a stdlib [Hashtbl]: the join core issues one probe per candidate
   partial match (millions per round on dense joins) and a probe here
   is a multiply, a mask and an array walk — no seeded rehash of the
   key, no option or bucket-list allocation.  A slot is empty iff its
   bucket is physically [empty_bucket]; live buckets are always
   freshly allocated, so the sentinel is unambiguous. *)
type colindex = {
  mutable ix_keys : int array;      (* full key hash per slot *)
  mutable ix_buckets : Intvec.t array;  (* rows, ascending; empty_bucket = free *)
  mutable ix_used : int;            (* live slots; capacity kept > 2x *)
  mutable ix_cap_mask : int;        (* capacity - 1, capacity a power of 2 *)
  mutable ix_rows : int;            (* rows [0, ix_rows) are indexed *)
}

let ix_create () =
  {
    ix_keys = Array.make 16 0;
    ix_buckets = Array.make 16 empty_bucket;
    ix_used = 0;
    ix_cap_mask = 15;
    ix_rows = 0;
  }

(* multiplicative spread of the (possibly negative) key hash into a
   slot; linear probing resolves residual clustering *)
let ix_slot cap_mask h = (h * 0x9E3779B1) land max_int land cap_mask

(* slot holding key [h], or the first free slot of its probe chain *)
let ix_find ix h =
  let cap_mask = ix.ix_cap_mask in
  let i = ref (ix_slot cap_mask h) in
  while
    ix.ix_buckets.(!i) != empty_bucket && ix.ix_keys.(!i) <> h
  do
    i := (!i + 1) land cap_mask
  done;
  !i

let ix_grow ix =
  let old_keys = ix.ix_keys and old_buckets = ix.ix_buckets in
  let cap = 2 * (ix.ix_cap_mask + 1) in
  ix.ix_keys <- Array.make cap 0;
  ix.ix_buckets <- Array.make cap empty_bucket;
  ix.ix_cap_mask <- cap - 1;
  Array.iteri
    (fun i bucket ->
      if bucket != empty_bucket then begin
        let s = ix_find ix old_keys.(i) in
        ix.ix_keys.(s) <- old_keys.(i);
        ix.ix_buckets.(s) <- bucket
      end)
    old_buckets

let ix_add ix h row =
  if 2 * (ix.ix_used + 1) > ix.ix_cap_mask + 1 then ix_grow ix;
  let s = ix_find ix h in
  if ix.ix_buckets.(s) != empty_bucket then Intvec.push ix.ix_buckets.(s) row
  else begin
    let vec = Intvec.create ~capacity:4 () in
    Intvec.push vec row;
    ix.ix_keys.(s) <- h;
    ix.ix_buckets.(s) <- vec;
    ix.ix_used <- ix.ix_used + 1
  end

(* Struct-of-arrays storage for one (predicate symbol, arity): each
   argument position is a flat column of interned value ids, and
   [cg_rows] maps row number back to fact id.  Row order is insertion
   order, i.e. ascending fact id — the property that makes the
   hash-join matcher enumerate matches in a nested-loop matcher's
   order exactly.

   [cg_slots] is the group's unique key over all its columns — the
   set-semantics dedup of [add] and the point lookup of [find_exact].
   It is open-addressing with linear probing, and a slot holds the row
   itself ([-1] = free), so an entry costs one int: no key tuple, no
   bucket cell.  Keys are not stored: a probe compares a candidate
   row's columns, and growth re-hashes rows from the columns.  Capacity
   stays above twice the row count.  Unlike [cg_indexes] it is
   maintained eagerly by [add] and is part of the store, not a cache.

   [cg_indexes] maps a key-column mask to its hash index.  The list is
   published through an [Atomic] so that indexes built on a frozen
   group by one query are visible, fully built, to every concurrent
   query over the same base (see [shared_index]). *)
type colgroup = {
  cg_arity : int;
  cg_cols : Intvec.t array;            (* per argument position: vids *)
  cg_rows : Intvec.t;                  (* row -> fact id *)
  mutable cg_slots : int array;        (* unique key: row per slot, -1 = free *)
  cg_indexes : (int * colindex) list Atomic.t;  (* key-column mask -> index *)
}

(* A store is either a root or an {e overlay} of a frozen [base].  An
   overlay continues the base's numbering — fact ids, value ids, symbols
   and labelled nulls — and keeps only what it added: its own facts at
   [id - base_size], its own values at [vid - base_vals], and its own
   column groups, which shadow the base's group of the same
   (symbol, arity).  Reads resolve through to the base; writes stay
   private, and the first write to a group the base owns copies that
   group.  Activation changes to base facts live in [base_flips].  A
   root has [base = None] and [base_size = base_vals = 0], so the same
   offset arithmetic serves both. *)
type t = {
  base : t option;
  base_size : int;                         (* fact ids [0, base_size) are the base's *)
  base_vals : int;                         (* value ids [0, base_vals) are the base's *)
  mutable frozen : bool;                   (* read-only from now on *)
  ix_lock : Mutex.t;                       (* serializes index builds once frozen *)
  syms : Symtab.t;                         (* the base's symbols, then this store's *)
  (* own facts, by [id - base_size]: flat growable arrays *)
  mutable facts : Fact.t array;
  fact_syms : Intvec.t;                    (* pred symbol *)
  (* activation state: one bit per own fact, set = active *)
  mutable active_bits : Bytes.t;
  base_flips : (int, bool) Hashtbl.t;      (* base fact id -> activation here *)
  mutable inactive_count : int;            (* inactive facts, the base's included *)
  (* columnar representation: the own column groups of each pred
     symbol, one per arity it was inserted at *)
  mutable groups : colgroup list array;
  val_ids : int ValTbl.t;                  (* own value -> vid *)
  mutable val_arr : Value.t array;         (* vid - base_vals -> first-interned value *)
  mutable val_count : int;                 (* every vid, the base's included *)
  mutable next_id : int;
  mutable null_counter : int;
}

let create () =
  {
    base = None;
    base_size = 0;
    base_vals = 0;
    frozen = false;
    ix_lock = Mutex.create ();
    syms = Symtab.create ();
    facts = Array.make 256 no_fact;
    fact_syms = Intvec.create ~capacity:256 ();
    active_bits = Bytes.make 32 '\000';
    base_flips = Hashtbl.create 1;
    inactive_count = 0;
    groups = Array.make 16 [];
    val_ids = ValTbl.create 1024;
    val_arr = Array.make 256 (Value.Int 0);
    val_count = 0;
    next_id = 0;
    null_counter = 0;
  }

let freeze t = t.frozen <- true

let overlay b =
  if not b.frozen then invalid_arg "Database.overlay: the base is not frozen";
  {
    base = Some b;
    base_size = b.next_id;
    base_vals = b.val_count;
    frozen = false;
    ix_lock = Mutex.create ();
    syms = Symtab.copy b.syms;
    facts = Array.make 64 no_fact;
    fact_syms = Intvec.create ~capacity:64 ();
    active_bits = Bytes.make 8 '\000';
    base_flips = Hashtbl.create 1;
    inactive_count = b.inactive_count;
    groups = Array.make (max 16 (Array.length b.groups)) [];
    val_ids = ValTbl.create 64;
    val_arr = Array.make 64 (Value.Int 0);
    val_count = b.val_count;
    next_id = b.next_id;
    null_counter = b.null_counter;
  }

let writable t what =
  if t.frozen then invalid_arg ("Database." ^ what ^ ": the store is frozen")

let copy_group (g : colgroup) =
  {
    cg_arity = g.cg_arity;
    cg_cols = Array.map Intvec.copy g.cg_cols;
    cg_rows = Intvec.copy g.cg_rows;
    cg_slots = Array.copy g.cg_slots;
    cg_indexes = Atomic.make [];
  }

let copy t =
  (* facts and their tuples are immutable once inserted, so sharing the
     Fact.t values is safe; every mutable container is copied, the
     unique-key slots included.  An overlay's copy shares the (frozen)
     base.  Column-group hash indexes are {e not} copied: they are pure
     caches that [ensure_index] rebuilds on demand. *)
  {
    t with
    frozen = false;
    ix_lock = Mutex.create ();
    syms = Symtab.copy t.syms;
    facts = Array.copy t.facts;
    fact_syms = Intvec.copy t.fact_syms;
    active_bits = Bytes.copy t.active_bits;
    base_flips = Hashtbl.copy t.base_flips;
    groups = Array.map (List.map copy_group) t.groups;
    val_ids = ValTbl.copy t.val_ids;
    val_arr = Array.copy t.val_arr;
  }

let intern t pred =
  let sym = Symtab.intern t.syms pred in
  if sym >= Array.length t.groups then begin
    let grown = Array.make (max (2 * Array.length t.groups) (sym + 1)) [] in
    Array.blit t.groups 0 grown 0 (Array.length t.groups);
    t.groups <- grown
  end;
  sym

let pred_sym t pred = Symtab.find t.syms pred

let own_group t ~sym ~arity =
  if sym < 0 || sym >= Array.length t.groups then None
  else List.find_opt (fun g -> g.cg_arity = arity) t.groups.(sym)

(* the group serving (sym, arity) and the store that owns it: this
   store's own group, else the base's *)
let rec owned_group t ~sym ~arity =
  match own_group t ~sym ~arity, t.base with
  | Some g, _ -> Some (t, g)
  | None, Some b -> owned_group b ~sym ~arity
  | None, None -> None

let find_group t ~sym ~arity = Option.map snd (owned_group t ~sym ~arity)

(* every column group of a predicate symbol, own groups shadowing the
   base's of the same arity *)
let rec groups_of_sym t sym =
  let own = if sym < Array.length t.groups then t.groups.(sym) else [] in
  match t.base with
  | None -> own
  | Some b ->
    own
    @ List.filter
        (fun g -> not (List.exists (fun o -> o.cg_arity = g.cg_arity) own))
        (groups_of_sym b sym)

let groups_of t pred =
  match Symtab.find t.syms pred with None -> [] | Some sym -> groups_of_sym t sym

(* --- facts and the activation bitmap ----------------------------------------- *)

let rec fact_of t id =
  if id >= t.base_size then t.facts.(id - t.base_size)
  else match t.base with Some b -> fact_of b id | None -> assert false

let rec sym_of t id =
  if id >= t.base_size then Intvec.get t.fact_syms (id - t.base_size)
  else match t.base with Some b -> sym_of b id | None -> assert false

(* bits address own facts: [i = id - base_size] *)
let bit_set t i =
  let byte = i lsr 3 in
  if byte >= Bytes.length t.active_bits then begin
    let grown =
      Bytes.make (max (2 * Bytes.length t.active_bits) (byte + 1)) '\000'
    in
    Bytes.blit t.active_bits 0 grown 0 (Bytes.length t.active_bits);
    t.active_bits <- grown
  end;
  Bytes.unsafe_set t.active_bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.active_bits byte) lor (1 lsl (i land 7))))

let bit_clear t i =
  let byte = i lsr 3 in
  Bytes.unsafe_set t.active_bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.active_bits byte)
       land lnot (1 lsl (i land 7))))

let bit_get t i =
  Char.code (Bytes.unsafe_get t.active_bits (i lsr 3)) land (1 lsl (i land 7))
  <> 0

(* activation of a known id (0 <= id < next_id) *)
let rec active_id t id =
  if id >= t.base_size then bit_get t (id - t.base_size)
  else if Hashtbl.length t.base_flips > 0 && Hashtbl.mem t.base_flips id then
    Hashtbl.find t.base_flips id
  else match t.base with Some b -> active_id b id | None -> assert false

let set_active t id active =
  if id >= t.base_size then
    (if active then bit_set else bit_clear) t (id - t.base_size)
  else Hashtbl.replace t.base_flips id active

(* --- value interning and column groups -------------------------------------- *)

let rec value_id t v =
  let vid = match t.base with Some b -> value_id b v | None -> -1 in
  if vid >= 0 then vid
  else match ValTbl.find_opt t.val_ids v with Some vid -> vid | None -> -1

let intern_value t v =
  let vid = value_id t v in
  if vid >= 0 then vid
  else begin
    let vid = t.val_count in
    let i = vid - t.base_vals in
    if i = Array.length t.val_arr then begin
      let grown = Array.make (2 * i) (Value.Int 0) in
      Array.blit t.val_arr 0 grown 0 i;
      t.val_arr <- grown
    end;
    t.val_arr.(i) <- v;
    t.val_count <- vid + 1;
    ValTbl.add t.val_ids v vid;
    vid
  end

(* Deterministic key mixing (pure 63-bit int arithmetic, no per-process
   seed); [ix_slot] spreads the result over a table, and collisions are
   re-checked column-by-column, so the combiner only needs to spread,
   not avalanche. *)
let key_hash_add acc vid = (acc * 1000003) + vid

(* the group [add] appends to: this store's own, else a private copy
   of the base's (copy-on-write), else a fresh one *)
let writable_group t sym arity =
  match own_group t ~sym ~arity with
  | Some g -> g
  | None ->
    let g =
      match Option.bind t.base (fun b -> find_group b ~sym ~arity) with
      | Some bg -> copy_group bg
      | None ->
        {
          cg_arity = arity;
          cg_cols = Array.init arity (fun _ -> Intvec.create ~capacity:16 ());
          cg_rows = Intvec.create ~capacity:16 ();
          cg_slots = Array.make 4 (-1);
          cg_indexes = Atomic.make [];
        }
    in
    t.groups.(sym) <- t.groups.(sym) @ [ g ];
    g

let row_hash (g : colgroup) row =
  let h = ref 0 in
  for c = 0 to g.cg_arity - 1 do
    h := key_hash_add !h (Intvec.unsafe_get g.cg_cols.(c) row)
  done;
  !h

(* the row whose columns equal [vids] (all interned), or -1 — a pure
   read *)
let key_row (g : colgroup) vids =
  let slots = g.cg_slots in
  let cap_mask = Array.length slots - 1 in
  let i = ref (ix_slot cap_mask (Array.fold_left key_hash_add 0 vids)) in
  let row_differs row =
    let c = ref 0 in
    while !c < g.cg_arity && Intvec.unsafe_get g.cg_cols.(!c) row = vids.(!c) do
      incr c
    done;
    !c < g.cg_arity
  in
  while slots.(!i) >= 0 && row_differs slots.(!i) do
    i := (!i + 1) land cap_mask
  done;
  slots.(!i)

(* key a new row into the first free slot of its probe chain *)
let uk_insert (g : colgroup) row =
  let cap_mask = Array.length g.cg_slots - 1 in
  let i = ref (ix_slot cap_mask (row_hash g row)) in
  while g.cg_slots.(!i) >= 0 do
    i := (!i + 1) land cap_mask
  done;
  g.cg_slots.(!i) <- row

(* append a row of [vids] and key it; the caller checked it is new *)
let uk_append (g : colgroup) vids id =
  let row = Intvec.length g.cg_rows in
  Array.iteri (fun i vid -> Intvec.push g.cg_cols.(i) vid) vids;
  Intvec.push g.cg_rows id;
  if 2 * (row + 1) > Array.length g.cg_slots then begin
    g.cg_slots <- Array.make (2 * Array.length g.cg_slots) (-1);
    for r = 0 to row do
      uk_insert g r
    done
  end
  else uk_insert g row

(* the stored fact of a tuple regardless of activity, or [None] — one
   unique-key probe of the group serving it; never interns *)
let lookup t sym args vids =
  match find_group t ~sym ~arity:(Array.length args) with
  | Some g when Array.for_all (fun vid -> vid >= 0) vids ->
    let row = key_row g vids in
    if row < 0 then None else Some (fact_of t (Intvec.unsafe_get g.cg_rows row))
  | Some _ | None -> None

let add t pred args =
  writable t "add";
  let sym = intern t pred in
  let vids = Array.map (value_id t) args in
  match lookup t sym args vids with
  | Some f -> `Existing f
  | None ->
    let id = t.next_id in
    t.next_id <- id + 1;
    let f = { Fact.id; pred; args } in
    let i = id - t.base_size in
    if i = Array.length t.facts then begin
      let grown = Array.make (2 * i) no_fact in
      Array.blit t.facts 0 grown 0 i;
      t.facts <- grown
    end;
    t.facts.(i) <- f;
    Intvec.push t.fact_syms sym;
    bit_set t i;
    Array.iteri (fun i vid -> if vid < 0 then vids.(i) <- intern_value t args.(i)) vids;
    uk_append (writable_group t sym (Array.length args)) vids id;
    `Added f

let add_atom t (a : Atom.t) =
  if not (Atom.is_ground a) then Error ("non-ground fact: " ^ Atom.to_string a)
  else begin
    let args =
      Array.of_list
        (List.map (function Term.Cst c -> c | Term.Var _ -> assert false) a.args)
    in
    Ok (add t a.pred args)
  end

let known t id = id >= 0 && id < t.next_id
let is_active t id = known t id && active_id t id
let all_active t = t.inactive_count = 0

let deactivate t id =
  writable t "deactivate";
  if is_active t id then begin
    set_active t id false;
    t.inactive_count <- t.inactive_count + 1
  end

let reactivate t id =
  writable t "reactivate";
  if known t id && not (active_id t id) then begin
    set_active t id true;
    t.inactive_count <- t.inactive_count - 1
  end

let fact t id =
  if not (known t id) then raise Not_found;
  fact_of t id

let pred_sym_of_fact t id =
  if not (known t id) then raise Not_found;
  sym_of t id

let group_of t pred arity =
  Option.bind (pred_sym t pred) (fun sym -> find_group t ~sym ~arity)

let find_exact t pred args =
  match pred_sym t pred with
  | None -> None
  | Some sym -> lookup t sym args (Array.map (value_id t) args)

(* the fact ids of a predicate's rows that satisfy [keep], ascending
   across all its arities *)
let pred_ids t pred keep =
  let ids g = List.filter keep (Intvec.to_list g.cg_rows) in
  match groups_of t pred with
  | [ g ] -> ids g
  | groups -> List.sort Int.compare (List.concat_map ids groups)

let all_of_pred t pred = List.map (fact_of t) (pred_ids t pred (fun _ -> true))
let active t pred = List.map (fact_of t) (pred_ids t pred (active_id t))

let pred_card t pred =
  List.fold_left (fun n g -> n + Intvec.length g.cg_rows) 0 (groups_of t pred)

let active_all t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    if active_id t id then acc := fact_of t id :: !acc
  done;
  !acc

let size t = t.next_id
let active_size t = size t - t.inactive_count

let fingerprint t =
  let lines = ref [] in
  for id = t.next_id - 1 downto 0 do
    if active_id t id then lines := Fact.to_string (fact_of t id) :: !lines
  done;
  String.concat "\n" (List.sort String.compare !lines)

let fresh_null t =
  writable t "fresh_null";
  let i = t.null_counter in
  t.null_counter <- i + 1;
  Value.null i

(* The interned ids of a pattern's positions under [subst], [-1] where
   the position is free; [None] when a constant or bound value was
   never stored, so nothing can match.  Never interns. *)
let pattern_ids t (pattern : Atom.t) subst =
  let ids = Array.make (List.length pattern.args) (-1) in
  let rec go i = function
    | [] -> Some ids
    | (term : Term.t) :: rest -> (
      let bound =
        match term with Term.Cst c -> Some c | Term.Var v -> Subst.find subst v
      in
      match bound with
      | None -> go (i + 1) rest
      | Some v ->
        let vid = value_id t v in
        if vid < 0 then None
        else begin
          ids.(i) <- vid;
          go (i + 1) rest
        end)
  in
  go 0 pattern.args

(* Active matches of [pattern] under [subst], ascending id; [first]
   stops after one.  A fully bound pattern is a unique-key probe;
   otherwise the group's id columns are scanned.  Bindings come from
   the stored tuple through [Subst.match_atom], which also enforces
   repeated free variables. *)
let find_matches t (pattern : Atom.t) subst ~first =
  let arity = List.length pattern.args in
  match (group_of t pattern.pred arity, pattern_ids t pattern subst) with
  | None, _ | _, None -> []
  | Some g, Some ids ->
    let try_row row acc =
      let id = Intvec.unsafe_get g.cg_rows row in
      if not (active_id t id) then acc
      else
        let f = fact_of t id in
        match Subst.match_atom subst ~pattern f.Fact.args with
        | Some s -> (f, s) :: acc
        | None -> acc
    in
    if Array.for_all (fun vid -> vid >= 0) ids then begin
      let row = key_row g ids in
      if row < 0 then [] else try_row row []
    end
    else begin
      let row_fits row =
        let c = ref 0 in
        while
          !c < arity
          && (ids.(!c) < 0 || Intvec.unsafe_get g.cg_cols.(!c) row = ids.(!c))
        do
          incr c
        done;
        !c = arity
      in
      let acc = ref [] and row = ref 0 in
      let rows = Intvec.length g.cg_rows in
      while !row < rows && not (first && !acc <> []) do
        if row_fits !row then acc := try_row !row !acc;
        incr row
      done;
      List.rev !acc
    end

let matching t pattern subst = find_matches t pattern subst ~first:false
let exists_matching t pattern subst = find_matches t pattern subst ~first:true <> []

(* --- columnar access and hash indexes ---------------------------------------

   The hash-join matcher works entirely in interned ids: it resolves a
   pattern's constants through [value_id], folds the ids of the
   planner-chosen key columns through [key_hash_add], and probes the
   colgroup's index for the bucket of candidate rows.  Buckets keep rows
   in ascending order, so the probe enumerates facts in ascending id
   order, exactly as a scan of the group would. *)

module Cols = struct
  type group = colgroup

  let find = find_group
  let rows (g : group) = Intvec.length g.cg_rows
  let arity (g : group) = g.cg_arity
  let fact_id (g : group) row = Intvec.unsafe_get g.cg_rows row
  let col (g : group) i row = Intvec.unsafe_get g.cg_cols.(i) row
end

let rec value_of_id t vid =
  if vid < 0 || vid >= t.val_count then invalid_arg "Database.value_of_id";
  if vid >= t.base_vals then t.val_arr.(vid - t.base_vals)
  else match t.base with Some b -> value_of_id b vid | None -> assert false

let find_index (g : colgroup) mask = List.assoc_opt mask (Atomic.get g.cg_indexes)

(* index rows [ix.ix_rows, rows) of [g] on the columns set in [mask] *)
let index_rows (g : colgroup) ix ~mask =
  let nrows = Intvec.length g.cg_rows in
  let fresh = nrows - ix.ix_rows in
  if fresh > 0 then begin
    let keycols = ref [] in
    for i = g.cg_arity - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then keycols := i :: !keycols
    done;
    let keycols = Array.of_list !keycols in
    for row = ix.ix_rows to nrows - 1 do
      let h = ref 0 in
      Array.iter
        (fun c -> h := key_hash_add !h (Intvec.unsafe_get g.cg_cols.(c) row))
        keycols;
      ix_add ix !h row
    done;
    ix.ix_rows <- nrows
  end;
  max 0 fresh

(* A frozen group's rows never change, so its index is built once,
   complete, under the owner's lock, and only then published: a reader
   that finds it through [find_index] sees a finished table, and the
   overlays of every concurrent query share it. *)
let shared_index owner (g : colgroup) ~mask =
  let fresh () =
    match find_index g mask with
    | Some ix -> ix.ix_rows = Intvec.length g.cg_rows
    | None -> false
  in
  if fresh () then 0
  else
    Mutex.protect owner.ix_lock (fun () ->
        if fresh () then 0
        else begin
          let ix = ix_create () in
          let n = index_rows g ix ~mask in
          Atomic.set g.cg_indexes
            ((mask, ix) :: List.remove_assoc mask (Atomic.get g.cg_indexes));
          n
        end)

let ensure_index t ~sym ~arity ~mask =
  if mask = 0 then 0
  else
    match owned_group t ~sym ~arity with
    | None -> 0
    | Some (owner, g) when owner.frozen -> shared_index owner g ~mask
    | Some (_, g) ->
      let ix =
        match find_index g mask with
        | Some ix -> ix
        | None ->
          let ix = ix_create () in
          Atomic.set g.cg_indexes ((mask, ix) :: Atomic.get g.cg_indexes);
          ix
      in
      index_rows g ix ~mask

type index_handle = colindex

let index_handle (g : Cols.group) ~mask =
  match find_index g mask with
  | Some ix when ix.ix_rows = Intvec.length g.cg_rows -> Some ix
  | Some _ | None -> None

let probe_handle (ix : index_handle) ~hash =
  let cap_mask = ix.ix_cap_mask in
  let keys = ix.ix_keys and buckets = ix.ix_buckets in
  let i = ref (ix_slot cap_mask hash) in
  let res = ref empty_bucket in
  let searching = ref true in
  while !searching do
    let b = Array.unsafe_get buckets !i in
    if b == empty_bucket then searching := false
    else if Array.unsafe_get keys !i = hash then begin
      res := b;
      searching := false
    end
    else i := (!i + 1) land cap_mask
  done;
  !res

(* --- snapshot codec ----------------------------------------------------------

   The encoding stores the insertion sequence, not the column groups:
   [decode] replays every fact through [add] in id order, which
   rebuilds the groups with their unique keys, the interned value ids
   and the activation bitmap, and re-interns predicates in exactly the
   original order (symbols are assigned at first insertion).  The symbol table is
   still written explicitly so decode can verify the replay reproduced
   it bit-for-bit.  Hash-join indexes are caches and are not
   persisted — [ensure_index] rebuilds them on demand. *)

let encode b t =
  Symtab.encode b t.syms;
  Wire.w_int b t.next_id;
  for id = 0 to t.next_id - 1 do
    let f = fact_of t id in
    Wire.w_int b (sym_of t id);
    Wire.w_int b (Array.length f.Fact.args);
    Array.iter (Wire.w_value b) f.Fact.args
  done;
  Wire.w_int b t.inactive_count;
  (* ascending id order reproduces the sorted list the previous
     hash-set representation wrote: the wire format is unchanged *)
  for id = 0 to t.next_id - 1 do
    if not (active_id t id) then Wire.w_int b id
  done;
  Wire.w_int b t.null_counter

let decode r =
  let syms = Symtab.decode r in
  let t = create () in
  let n = Wire.r_int r in
  if n < 0 then raise (Wire.Corrupt "Database: negative fact count");
  for id = 0 to n - 1 do
    let sym = Wire.r_int r in
    if sym < 0 || sym >= Symtab.size syms then
      raise (Wire.Corrupt "Database: fact symbol out of range");
    let arity = Wire.r_int r in
    if arity < 0 then raise (Wire.Corrupt "Database: negative arity");
    let args = Array.make arity (Ekg_kernel.Value.Int 0) in
    for i = 0 to arity - 1 do
      args.(i) <- Wire.r_value r
    done;
    match add t (Symtab.name syms sym) args with
    | `Added f when f.Fact.id = id -> ()
    | `Added _ | `Existing _ ->
      raise (Wire.Corrupt "Database: replay did not reproduce fact ids")
  done;
  if Symtab.size t.syms <> Symtab.size syms then
    raise (Wire.Corrupt "Database: replay did not reproduce the symbol table");
  Symtab.iter
    (fun id name ->
      if Symtab.find t.syms name <> Some id then
        raise (Wire.Corrupt "Database: replay did not reproduce the symbol table"))
    syms;
  let inactive = Wire.r_int r in
  if inactive < 0 then raise (Wire.Corrupt "Database: negative inactive count");
  for _ = 1 to inactive do
    let id = Wire.r_int r in
    if id < 0 || id >= t.next_id then
      raise (Wire.Corrupt "Database: inactive id out of range");
    deactivate t id
  done;
  let null_counter = Wire.r_int r in
  if null_counter < 0 then
    raise (Wire.Corrupt "Database: negative null counter");
  t.null_counter <- null_counter;
  t
