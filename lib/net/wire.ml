module Schema = Gigascope_rts.Schema
module Value = Gigascope_rts.Value
module Item = Gigascope_rts.Item
module Batch = Gigascope_rts.Batch
module Ty = Gigascope_rts.Ty
module Order_prop = Gigascope_rts.Order_prop
module Sketch = Gigascope_sketch.Sketch

let protocol_version = 3
let header_len = 9
let max_payload = 16 * 1024 * 1024

type query_info = { q_name : string; q_kind : string; q_schema : Schema.t }

type msg =
  | Hello of { version : int; peer : string }
  | List_queries
  | Queries of query_info list
  | Subscribe of string
  | Subscribed of { name : string; schema : Schema.t; sub_id : int; gap : int }
  | Publish of string
  | Publish_ok of { iface : string; schema : Schema.t }
  | Batch of Batch.t
  | Err of string
  | Bye
  | Resume of { name : string; sub_id : int; token : int }
  | Heartbeat

let msg_label = function
  | Hello _ -> "hello"
  | List_queries -> "list_queries"
  | Queries _ -> "queries"
  | Subscribe _ -> "subscribe"
  | Subscribed _ -> "subscribed"
  | Publish _ -> "publish"
  | Publish_ok _ -> "publish_ok"
  | Batch _ -> "batch"
  | Err _ -> "err"
  | Bye -> "bye"
  | Resume _ -> "resume"
  | Heartbeat -> "heartbeat"

let tag_of_msg = function
  | Hello _ -> 1
  | List_queries -> 2
  | Queries _ -> 3
  | Subscribe _ -> 4
  | Subscribed _ -> 5
  | Publish _ -> 6
  | Publish_ok _ -> 7
  | Batch _ -> 8
  | Err _ -> 9
  | Bye -> 10
  | Resume _ -> 11
  | Heartbeat -> 12

(* ------------------------------ encoding ------------------------------- *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_u16 buf v =
  put_u8 buf (v lsr 8);
  put_u8 buf v

let put_u32 buf v =
  put_u16 buf ((v lsr 16) land 0xffff);
  put_u16 buf (v land 0xffff)

let put_i64 buf v =
  let v64 = Int64.of_int v in
  for i = 7 downto 0 do
    put_u8 buf (Int64.to_int (Int64.shift_right_logical v64 (i * 8)) land 0xff)
  done

let put_f64 buf v =
  let bits = Int64.bits_of_float v in
  for i = 7 downto 0 do
    put_u8 buf (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xff)
  done

let put_str buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_value buf = function
  | Value.Null -> put_u8 buf 0
  | Value.Bool false -> put_u8 buf 1
  | Value.Bool true -> put_u8 buf 2
  | Value.Int v ->
      put_u8 buf 3;
      put_i64 buf v
  | Value.Float v ->
      put_u8 buf 4;
      put_f64 buf v
  | Value.Str s ->
      put_u8 buf 5;
      put_str buf s
  | Value.Ip v ->
      put_u8 buf 6;
      put_u32 buf v
  | Value.Sketch s ->
      (* opaque sketch state: the sketch library's own versioned codec,
         length-prefixed like a string *)
      put_u8 buf 7;
      put_str buf (Sketch.encode s)

let ty_tag = function
  | Ty.Bool -> 0
  | Ty.Int -> 1
  | Ty.Float -> 2
  | Ty.Str -> 3
  | Ty.Ip -> 4
  | Ty.Sketch -> 5

let dir_bit = function Order_prop.Asc -> 0 | Order_prop.Desc -> 1

let put_order buf (o : Order_prop.t) =
  match o with
  | Order_prop.Unordered -> put_u8 buf 0
  | Order_prop.Strict d -> put_u8 buf (1 + dir_bit d)
  | Order_prop.Monotone d -> put_u8 buf (3 + dir_bit d)
  | Order_prop.Nonrepeating -> put_u8 buf 5
  | Order_prop.Banded (d, band) ->
      put_u8 buf (6 + dir_bit d);
      put_f64 buf band
  | Order_prop.In_group (fields, d) ->
      put_u8 buf (8 + dir_bit d);
      put_u16 buf (List.length fields);
      List.iter (put_str buf) fields

let put_schema buf schema =
  let fields = Schema.fields schema in
  put_u16 buf (Array.length fields);
  Array.iter
    (fun (f : Schema.field) ->
      put_str buf f.Schema.name;
      put_u8 buf (ty_tag f.Schema.ty);
      put_order buf f.Schema.order)
    fields

let put_tuple buf values =
  put_u16 buf (Array.length values);
  Array.iter (put_value buf) values

let put_punct buf bounds =
  put_u16 buf (List.length bounds);
  List.iter
    (fun (idx, v) ->
      put_u16 buf idx;
      put_value buf v)
    bounds

let put_batch buf batch =
  let tuples = Batch.tuples batch in
  put_u32 buf (Array.length tuples);
  Array.iter (put_tuple buf) tuples;
  (match Batch.ctrl batch with
  | None -> put_u8 buf 0
  | Some (Item.Punct bounds) ->
      put_u8 buf 1;
      put_punct buf bounds
  | Some Item.Flush -> put_u8 buf 2
  | Some Item.Eof -> put_u8 buf 3
  | Some (Item.Error e) ->
      put_u8 buf 4;
      put_str buf e
  | Some (Item.Gap n) ->
      put_u8 buf 5;
      put_i64 buf n
  | Some (Item.Tuple _) -> assert false (* Batch.make rejects a tuple ctrl *));
  (* v2: the latency-stamp column. Unconditional flag byte (so the
     trailing-bytes corruption check stays exact), i64 per tuple when
     present — stamped batches are the sampled exception, so the
     common case costs one byte. *)
  match Batch.stamps batch with
  | None -> put_u8 buf 0
  | Some st ->
      put_u8 buf 1;
      Array.iter (put_i64 buf) st

let put_query_info buf { q_name; q_kind; q_schema } =
  put_str buf q_name;
  put_str buf q_kind;
  put_schema buf q_schema

let put_payload buf = function
  | Hello { version; peer } ->
      put_u16 buf version;
      put_str buf peer
  | List_queries | Bye -> ()
  | Queries qs ->
      put_u16 buf (List.length qs);
      List.iter (put_query_info buf) qs
  | Subscribe name | Publish name -> put_str buf name
  | Subscribed { name; schema; sub_id; gap } ->
      put_str buf name;
      put_schema buf schema;
      put_i64 buf sub_id;
      put_i64 buf gap
  | Publish_ok { iface; schema } ->
      put_str buf iface;
      put_schema buf schema
  | Batch b -> put_batch buf b
  | Err e -> put_str buf e
  | Resume { name; sub_id; token } ->
      put_str buf name;
      put_i64 buf sub_id;
      put_i64 buf token
  | Heartbeat -> ()

let encode msg =
  let payload = Buffer.create 64 in
  put_payload payload msg;
  let n = Buffer.length payload in
  if n > max_payload then
    invalid_arg (Printf.sprintf "Wire.encode: %s payload %d exceeds max_payload" (msg_label msg) n);
  let frame = Buffer.create (header_len + n) in
  Buffer.add_string frame "GSW";
  put_u8 frame protocol_version;
  put_u8 frame (tag_of_msg msg);
  put_u32 frame n;
  Buffer.add_buffer frame payload;
  Buffer.to_bytes frame

(* ------------------------------ decoding ------------------------------- *)

(* The payload parser reads through a bounds-checked cursor; any
   out-of-bounds read or bad tag raises [Bad], caught once at the decode
   boundary — the exception never escapes this module. *)
exception Bad of string

type cursor = { b : bytes; mutable pos : int; stop : int }

let need cur n what =
  if cur.stop - cur.pos < n then raise (Bad (Printf.sprintf "truncated %s" what))

let get_u8 cur what =
  need cur 1 what;
  let v = Char.code (Bytes.get cur.b cur.pos) in
  cur.pos <- cur.pos + 1;
  v

let get_u16 cur what =
  let hi = get_u8 cur what in
  let lo = get_u8 cur what in
  (hi lsl 8) lor lo

let get_u32 cur what =
  let hi = get_u16 cur what in
  let lo = get_u16 cur what in
  (hi lsl 16) lor lo

let get_i64 cur what =
  need cur 8 what;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 cur what))
  done;
  Int64.to_int !v

let get_f64 cur what =
  need cur 8 what;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 cur what))
  done;
  Int64.float_of_bits !v

let get_str cur what =
  let n = get_u32 cur what in
  need cur n what;
  let s = Bytes.sub_string cur.b cur.pos n in
  cur.pos <- cur.pos + n;
  s

let get_value cur =
  match get_u8 cur "value tag" with
  | 0 -> Value.Null
  | 1 -> Value.Bool false
  | 2 -> Value.Bool true
  | 3 -> Value.Int (get_i64 cur "int value")
  | 4 -> Value.Float (get_f64 cur "float value")
  | 5 -> Value.Str (get_str cur "string value")
  | 6 -> Value.Ip (get_u32 cur "ip value")
  | 7 -> (
      (* sketch decode failures (truncation, version skew, corrupt dims)
         surface as Corrupt like any other malformed payload *)
      match Sketch.decode (get_str cur "sketch value") with
      | Ok s -> Value.Sketch s
      | Error e -> raise (Bad ("sketch value: " ^ e)))
  | t -> raise (Bad (Printf.sprintf "unknown value tag %d" t))

let get_ty cur =
  match get_u8 cur "type tag" with
  | 0 -> Ty.Bool
  | 1 -> Ty.Int
  | 2 -> Ty.Float
  | 3 -> Ty.Str
  | 4 -> Ty.Ip
  | 5 -> Ty.Sketch
  | t -> raise (Bad (Printf.sprintf "unknown type tag %d" t))

let dir_of_bit = function 0 -> Order_prop.Asc | _ -> Order_prop.Desc

let get_order cur =
  match get_u8 cur "order tag" with
  | 0 -> Order_prop.Unordered
  | (1 | 2) as t -> Order_prop.Strict (dir_of_bit (t - 1))
  | (3 | 4) as t -> Order_prop.Monotone (dir_of_bit (t - 3))
  | 5 -> Order_prop.Nonrepeating
  | (6 | 7) as t ->
      let d = dir_of_bit (t - 6) in
      Order_prop.Banded (d, get_f64 cur "band")
  | (8 | 9) as t ->
      let d = dir_of_bit (t - 8) in
      let n = get_u16 cur "group field count" in
      let fields = List.init n (fun _ -> get_str cur "group field") in
      Order_prop.In_group (fields, d)
  | t -> raise (Bad (Printf.sprintf "unknown order tag %d" t))

let get_schema cur =
  let n = get_u16 cur "field count" in
  let fields =
    List.init n (fun _ ->
        let name = get_str cur "field name" in
        let ty = get_ty cur in
        let order = get_order cur in
        { Schema.name; ty; order })
  in
  match Schema.make fields with
  | s -> s
  | exception Invalid_argument e -> raise (Bad ("schema: " ^ e))

let get_tuple cur =
  let arity = get_u16 cur "tuple arity" in
  (* cheap pre-check: a tuple value is at least one tag byte, so a lying
     arity cannot make us allocate an array bigger than the payload *)
  need cur arity "tuple values";
  Array.init arity (fun _ -> get_value cur)

let get_punct cur =
  let n = get_u16 cur "punct bound count" in
  List.init n (fun _ ->
      let idx = get_u16 cur "punct field index" in
      (idx, get_value cur))

let get_batch cur =
  let n = get_u32 cur "batch tuple count" in
  (* each tuple costs at least 2 bytes of arity on the wire *)
  need cur (2 * n) "batch tuples";
  let tuples = Array.init n (fun _ -> get_tuple cur) in
  let ctrl =
    match get_u8 cur "batch control tag" with
    | 0 -> None
    | 1 -> Some (Item.Punct (get_punct cur))
    | 2 -> Some Item.Flush
    | 3 -> Some Item.Eof
    | 4 -> Some (Item.Error (get_str cur "error control"))
    | 5 -> Some (Item.Gap (get_i64 cur "gap control"))
    | t -> raise (Bad (Printf.sprintf "unknown batch control tag %d" t))
  in
  let stamps =
    match get_u8 cur "batch stamp flag" with
    | 0 -> None
    | 1 ->
        need cur (8 * n) "batch stamps";
        Some (Array.init n (fun _ -> get_i64 cur "batch stamp"))
    | t -> raise (Bad (Printf.sprintf "unknown batch stamp flag %d" t))
  in
  Batch.make ?stamps tuples ctrl

let get_query_info cur =
  let q_name = get_str cur "query name" in
  let q_kind = get_str cur "query kind" in
  let q_schema = get_schema cur in
  { q_name; q_kind; q_schema }

let parse_payload tag cur =
  match tag with
  | 1 ->
      let version = get_u16 cur "hello version" in
      let peer = get_str cur "hello peer" in
      Hello { version; peer }
  | 2 -> List_queries
  | 3 ->
      let n = get_u16 cur "query count" in
      Queries (List.init n (fun _ -> get_query_info cur))
  | 4 -> Subscribe (get_str cur "subscribe name")
  | 5 ->
      let name = get_str cur "subscribed name" in
      let schema = get_schema cur in
      let sub_id = get_i64 cur "subscribed sub id" in
      let gap = get_i64 cur "subscribed gap" in
      Subscribed { name; schema; sub_id; gap }
  | 6 -> Publish (get_str cur "publish iface")
  | 7 ->
      let iface = get_str cur "publish_ok iface" in
      let schema = get_schema cur in
      Publish_ok { iface; schema }
  | 8 -> Batch (get_batch cur)
  | 9 -> Err (get_str cur "error text")
  | 10 -> Bye
  | 11 ->
      let name = get_str cur "resume name" in
      let sub_id = get_i64 cur "resume sub id" in
      let token = get_i64 cur "resume token" in
      Resume { name; sub_id; token }
  | 12 -> Heartbeat
  | t -> raise (Bad (Printf.sprintf "unknown message type %d" t))

type decoded = Frame of msg * int | Need_more | Corrupt of string

let decode b ~pos ~len =
  let len = min len (Bytes.length b) in
  if pos < 0 || pos > len then Corrupt "decode: position out of range"
  else if len - pos < header_len then Need_more
  else if not (Bytes.get b pos = 'G' && Bytes.get b (pos + 1) = 'S' && Bytes.get b (pos + 2) = 'W')
  then Corrupt "bad magic: not a Gigascope wire frame"
  else if Char.code (Bytes.get b (pos + 3)) <> protocol_version then
    Corrupt
      (Printf.sprintf "protocol version %d, expected %d"
         (Char.code (Bytes.get b (pos + 3)))
         protocol_version)
  else begin
    let tag = Char.code (Bytes.get b (pos + 4)) in
    let paylen =
      let g i = Char.code (Bytes.get b (pos + 5 + i)) in
      (g 0 lsl 24) lor (g 1 lsl 16) lor (g 2 lsl 8) lor g 3
    in
    if paylen > max_payload then
      Corrupt (Printf.sprintf "frame claims %d payload bytes (max %d)" paylen max_payload)
    else if len - pos - header_len < paylen then Need_more
    else
      let cur = { b; pos = pos + header_len; stop = pos + header_len + paylen } in
      match parse_payload tag cur with
      | msg ->
          if cur.pos <> cur.stop then
            Corrupt
              (Printf.sprintf "%s frame: %d trailing payload bytes" (msg_label msg)
                 (cur.stop - cur.pos))
          else Frame (msg, cur.stop)
      | exception Bad e -> Corrupt e
      | exception Invalid_argument e -> Corrupt e
  end
