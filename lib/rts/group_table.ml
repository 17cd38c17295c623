(* The flat group table both aggregation operators keep their groups in,
   stored by column as the paper's generated C would lay it out: per
   group-key column an [int array] payload and one tag byte per slot,
   plus one occupancy byte and one accumulator array per slot. Int, Ip
   and Null keys live unboxed; a key of any other kind goes to a
   [Value.t array] created the first time such a key lands in that
   column. The operators own the policy (which slot a key goes to, when
   a slot is emptied); this module owns the representation. *)

let tag_null = '\000'
let tag_int = '\001'
let tag_ip = '\002'
let tag_boxed = '\003'

type column = {
  ints : int array;  (** Int/Ip payload; 0 for other tags *)
  tags : Bytes.t;
  mutable boxed : Value.t array;  (** [[||]] until a boxed key appears *)
}

type t = {
  cols : column array;
  used : Bytes.t;  (** '\001' marks an occupied slot *)
  accs : Agg_fn.acc array array;  (** per slot; [[||]] until first used *)
}

type key = {
  k_ints : int array;
  k_tags : Bytes.t;
  k_boxed : Value.t array;
  mutable k_hash : int;
}

let empty = { cols = [||]; used = Bytes.empty; accs = [||] }

let create ~keys ~slots =
  {
    cols =
      Array.init keys (fun _ ->
          { ints = Array.make slots 0; tags = Bytes.make slots tag_null; boxed = [||] });
    used = Bytes.make slots '\000';
    accs = Array.make slots [||];
  }

let slots t = Bytes.length t.used

let make_key n =
  { k_ints = Array.make n 0; k_tags = Bytes.make n tag_null; k_boxed = Array.make n Value.Null; k_hash = 0 }

let hash k = k.k_hash

(* Evaluate the group keys into [k] and their [Value.hash_array] into
   [k_hash]; return key [epoch]'s value ([Null] when [epoch] is no key
   index). Raises [Value.No_value] when a key has none. *)
let read_key k keys values ~epoch =
  let h = ref 0 and ev = ref Value.Null in
  for i = 0 to Array.length keys - 1 do
    let v = keys.(i) values in
    h := Value.hash_combine !h v;
    if i = epoch then ev := v;
    match v with
    | Value.Int x ->
        Bytes.unsafe_set k.k_tags i tag_int;
        k.k_ints.(i) <- x
    | Value.Ip x ->
        Bytes.unsafe_set k.k_tags i tag_ip;
        k.k_ints.(i) <- x
    | Value.Null ->
        Bytes.unsafe_set k.k_tags i tag_null;
        k.k_ints.(i) <- 0
    | _ ->
        Bytes.unsafe_set k.k_tags i tag_boxed;
        k.k_ints.(i) <- 0;
        k.k_boxed.(i) <- v
  done;
  k.k_hash <- !h land max_int;
  !ev

let boxed_value tag ints boxed i =
  if tag = tag_int then Value.Int ints.(i)
  else if tag = tag_ip then Value.Ip ints.(i)
  else if tag = tag_boxed then boxed.(i)
  else Value.Null

let slot_value c idx = boxed_value (Bytes.unsafe_get c.tags idx) c.ints c.boxed idx
let key_value k i = boxed_value (Bytes.unsafe_get k.k_tags i) k.k_ints k.k_boxed i
let occupied t idx = Bytes.unsafe_get t.used idx <> '\000'

(* Key equality is [Value.equal]'s: unboxed entries of one tag compare by
   payload, Int/Ip/Null entries of different tags never match, and a
   boxed entry on either side (a Float can equal an Int) compares the two
   values. *)
let column_matches k i c idx =
  let kt = Bytes.unsafe_get k.k_tags i and st = Bytes.unsafe_get c.tags idx in
  if kt = st && kt <> tag_boxed then k.k_ints.(i) = c.ints.(idx)
  else if kt = tag_boxed || st = tag_boxed then Value.equal (key_value k i) (slot_value c idx)
  else false

let matches t idx k =
  let n = Array.length t.cols in
  let i = ref 0 in
  while !i < n && column_matches k !i t.cols.(!i) idx do
    incr i
  done;
  !i = n

let store_key t idx k =
  for i = 0 to Array.length t.cols - 1 do
    let c = t.cols.(i) in
    let tag = Bytes.unsafe_get k.k_tags i in
    Bytes.unsafe_set c.tags idx tag;
    c.ints.(idx) <- k.k_ints.(i);
    if tag = tag_boxed then begin
      if Array.length c.boxed = 0 then c.boxed <- Array.make (Array.length c.ints) Value.Null;
      c.boxed.(idx) <- k.k_boxed.(i)
    end
    else if Array.length c.boxed > 0 then c.boxed.(idx) <- Value.Null
  done

(* A slot's accumulators, from zero: created at the slot's first use,
   reset in place after that. *)
let insert t idx k aggs =
  Bytes.unsafe_set t.used idx '\001';
  store_key t idx k;
  let accs = t.accs.(idx) in
  if Array.length accs = 0 then begin
    let accs = Array.map (fun sp -> Agg_fn.init sp.Agg_fn.kind) aggs in
    t.accs.(idx) <- accs;
    accs
  end
  else begin
    Array.iter Agg_fn.reset accs;
    accs
  end

let accs t idx = t.accs.(idx)
let release t idx = Bytes.unsafe_set t.used idx '\000'

let move ~src i ~dst j =
  Bytes.unsafe_set dst.used j '\001';
  dst.accs.(j) <- src.accs.(i);
  for c = 0 to Array.length src.cols - 1 do
    let s = src.cols.(c) and d = dst.cols.(c) in
    let tag = Bytes.unsafe_get s.tags i in
    Bytes.unsafe_set d.tags j tag;
    d.ints.(j) <- s.ints.(i);
    if tag = tag_boxed then begin
      if Array.length d.boxed = 0 then d.boxed <- Array.make (Array.length d.ints) Value.Null;
      d.boxed.(j) <- s.boxed.(i)
    end
  done

let fill t idx virt =
  let n = Array.length t.cols in
  for i = 0 to n - 1 do
    virt.(i) <- slot_value t.cols.(i) idx
  done;
  let accs = t.accs.(idx) in
  for i = 0 to Array.length accs - 1 do
    virt.(n + i) <- Agg_fn.final accs.(i)
  done

(* The comparator reproduces polymorphic [compare] on the key arrays the
   slots would box: arrays of one length compare element by element, the
   constant [Null] sorts before every constructor with an argument, and
   those sort by declaration order (Bool, Int, Float, Str, Ip, Sketch),
   then by payload. [Float.compare] orders floats as [compare] does (nan
   equal to itself and below every other float, [-0.0] equal to [0.0]),
   and [String.compare] is [compare] on strings. *)
let rank_of_value = function
  | Value.Null -> 0
  | Value.Bool _ -> 1
  | Value.Int _ -> 2
  | Value.Float _ -> 3
  | Value.Str _ -> 4
  | Value.Ip _ -> 5
  | Value.Sketch _ -> 6

let rank c idx =
  let tag = Bytes.unsafe_get c.tags idx in
  if tag = tag_int then 2
  else if tag = tag_ip then 5
  else if tag = tag_boxed then rank_of_value c.boxed.(idx)
  else 0

let compare_boxed a b =
  match (a, b) with
  | Value.Bool x, Value.Bool y -> Bool.compare x y
  | Value.Float x, Value.Float y -> Float.compare x y
  | Value.Str x, Value.Str y -> String.compare x y
  | _ ->
      let c = Int.compare (rank_of_value a) (rank_of_value b) in
      if c <> 0 then c else compare a b

(* Ints and Ips are never boxed, so two entries of one rank are either
   both unboxed with one tag or both boxed. *)
let compare_column c a b =
  let ta = Bytes.unsafe_get c.tags a and tb = Bytes.unsafe_get c.tags b in
  if ta = tb && ta <> tag_boxed then Int.compare c.ints.(a) c.ints.(b)
  else if ta = tag_boxed && tb = tag_boxed then compare_boxed c.boxed.(a) c.boxed.(b)
  else Int.compare (rank c a) (rank c b)

let compare_slots t a b =
  let n = Array.length t.cols in
  let r = ref 0 and i = ref 0 in
  while !r = 0 && !i < n do
    r := compare_column t.cols.(!i) a b;
    incr i
  done;
  !r

(* [compare_slots] order for many slots. Leading columns that hold one
   unboxed value in every slot (an epoch's epoch key) cannot order
   anything. The first column left gives each slot a primary key, its
   payload when the column holds one unboxed tag and its kind's rank
   otherwise, and the merge carries it beside the slot: most
   comparisons then read two ints the merge streams through, and only
   ties call [compare_slots]. *)
let sort t live n =
  let k = Array.length t.cols in
  (* column [i] has slot 0's unboxed tag in every slot, and its payload
     too when [payload] *)
  let uniform i ~payload =
    let c = t.cols.(i) and s0 = live.(0) in
    let tag = Bytes.get c.tags s0 in
    let same = ref (tag <> tag_boxed) and j = ref 1 in
    while !same && !j < n do
      let s = live.(!j) in
      same := Bytes.unsafe_get c.tags s = tag && ((not payload) || c.ints.(s) = c.ints.(s0));
      incr j
    done;
    !same
  in
  let first = ref 0 in
  while n > 0 && !first < k && uniform !first ~payload:true do
    incr first
  done;
  let src_p =
    if n = 0 || !first = k then Array.make n 0
    else
      let c = t.cols.(!first) in
      if uniform !first ~payload:false then Array.init n (fun j -> c.ints.(live.(j)))
      else Array.init n (fun j -> rank c live.(j))
  in
  (* A bottom-up merge sort of (primary key, slot) pairs, written for
     [int] arrays: [Array.stable_sort] is polymorphic, so each of its
     stores would go through the write barrier. *)
  let src_p = ref src_p and src_s = ref (Array.sub live 0 n) in
  let dst_p = ref (Array.make n 0) and dst_s = ref (Array.make n 0) in
  let width = ref 1 in
  while !width < n do
    let sp = !src_p and ss = !src_s and dp = !dst_p and ds = !dst_s in
    let lo = ref 0 in
    while !lo < n do
      let mid = min (!lo + !width) n and hi = min (!lo + (2 * !width)) n in
      let i = ref !lo and j = ref mid in
      for o = !lo to hi - 1 do
        let left =
          !j >= hi
          || !i < mid
             &&
             let c = Int.compare sp.(!i) sp.(!j) in
             c < 0 || (c = 0 && compare_slots t ss.(!i) ss.(!j) <= 0)
        in
        let from = if left then !i else !j in
        dp.(o) <- sp.(from);
        ds.(o) <- ss.(from);
        if left then incr i else incr j
      done;
      lo := hi
    done;
    src_p := dp;
    src_s := ds;
    dst_p := sp;
    dst_s := ss;
    width := 2 * !width
  done;
  !src_s

