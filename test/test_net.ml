(* The network data plane: wire codec round-trips and fuzz (the decoder
   is total — a monitor's control port is attack surface just like its
   packet path), framed-connection reassembly, and end-to-end loopback
   through a live server: subscribers, slow-consumer policies, ingest
   publishing and cross-engine chaining. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Item = Rts.Item
module Value = Rts.Value
module Schema = Rts.Schema
module Ty = Rts.Ty
module Order_prop = Rts.Order_prop
module Batch = Rts.Batch
module Metrics = Gigascope_obs.Metrics
module Wire = Gigascope_net.Wire
module Conn = Gigascope_net.Conn
module Addr = Gigascope_net.Addr
module Server = Gigascope_net.Server
module Client = Gigascope_net.Client
module Sketch = Gigascope_sketch.Sketch

let qtest name gen law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:500 gen law)

(* ------------------------------ wire codec ------------------------------ *)

let schema_small =
  Schema.make
    [
      { Schema.name = "time"; ty = Ty.Int; order = Order_prop.Monotone Order_prop.Asc };
      { Schema.name = "srcip"; ty = Ty.Ip; order = Order_prop.Unordered };
      { Schema.name = "note"; ty = Ty.Str; order = Order_prop.Nonrepeating };
    ]

let schema_exotic =
  Schema.make
    [
      { Schema.name = "st"; ty = Ty.Float; order = Order_prop.Banded (Order_prop.Desc, 30.5) };
      {
        Schema.name = "seq";
        ty = Ty.Int;
        order = Order_prop.In_group ([ "srcip"; "destip" ], Order_prop.Asc);
      };
      { Schema.name = "ok"; ty = Ty.Bool; order = Order_prop.Strict Order_prop.Asc };
    ]

let sample_batch =
  Batch.make
    [|
      [| Value.Int 42; Value.Ip 0x0a000001; Value.Str "x" |];
      [| Value.Null; Value.Bool true; Value.Float 2.5 |];
      [| Value.Str ""; Value.Int (-7); Value.Bool false |];
    |]
    (Some (Item.Punct [ (0, Value.Int 43); (2, Value.Float 1.0) ]))

(* Populated sketch states of every kind: the opaque column type rides
   the wire via the sketch library's own versioned codec, so batches
   carrying them must round-trip byte-identically like any other value. *)
let sketch_state kind =
  let s =
    match kind with
    | `Cm -> Sketch.cm ~eps:0.01 ~delta:0.01
    | `Topk -> Sketch.topk ~k:8
    | `Hll -> Sketch.hll ~precision:10
  in
  for i = 0 to 199 do
    Sketch.add s (Printf.sprintf "key-%d" (i mod 23))
  done;
  s

let sample_msgs =
  [
    Wire.Hello { version = Wire.protocol_version; peer = "unit-test" };
    Wire.List_queries;
    Wire.Queries
      [
        { Wire.q_name = "tcpdest0"; q_kind = "lfta"; q_schema = schema_small };
        { Wire.q_name = "odd"; q_kind = "hfta"; q_schema = schema_exotic };
      ];
    Wire.Subscribe "portcounts";
    Wire.Subscribed { name = "portcounts"; schema = schema_exotic; sub_id = 7; gap = 0 };
    Wire.Subscribed { name = "portcounts"; schema = schema_small; sub_id = 8; gap = -1 };
    Wire.Publish "feed";
    Wire.Publish_ok { iface = "feed"; schema = schema_small };
    Wire.Batch sample_batch;
    Wire.Batch (Batch.make [||] (Some Item.Eof));
    Wire.Batch (Batch.make [||] (Some Item.Flush));
    Wire.Batch (Batch.make [| [| Value.Int 1 |] |] None);
    Wire.Err "no such query";
    Wire.Bye;
    (* failure-model control frames: heartbeat, resume, in-band loss *)
    Wire.Heartbeat;
    Wire.Resume { name = "portcounts"; sub_id = 7; token = 123456 };
    Wire.Batch (Batch.make [| [| Value.Int 1; Value.Bool true; Value.Str "x" |] |] (Some (Item.Gap 42)));
    Wire.Batch (Batch.make [||] (Some (Item.Gap (-1))));
    Wire.Batch (Batch.make [||] (Some (Item.Error "operator total crashed: injected")));
    (* v2 latency-stamp column: mixed stamped/unstamped slots, a fully
       stamped singleton, and a stamped batch sealed by a control item *)
    Wire.Batch
      (Batch.make
         ~stamps:[| 123_456_789_000; 0; 987_654_321_000 |]
         [|
           [| Value.Int 1; Value.Str "a" |];
           [| Value.Int 2; Value.Str "b" |];
           [| Value.Int 3; Value.Str "c" |];
         |]
         None);
    Wire.Batch (Batch.make ~stamps:[| 1 |] [| [| Value.Int 9 |] |] None);
    Wire.Batch
      (Batch.make ~stamps:[| 0; 55_000_000 |]
         [| [| Value.Bool false |]; [| Value.Bool true |] |]
         (Some (Item.Punct [ (0, Value.Int 7) ])));
    (* sketch-state columns: every kind, mixed with plain values, empty
       states, and a sketch batch sealed by a control item *)
    Wire.Batch
      (Batch.make
         [|
           [| Value.Int 1; Value.Sketch (sketch_state `Cm) |];
           [| Value.Int 2; Value.Sketch (sketch_state `Topk) |];
           [| Value.Int 3; Value.Sketch (sketch_state `Hll) |];
         |]
         None);
    Wire.Batch
      (Batch.make
         [| [| Value.Sketch (Sketch.hll ~precision:4); Value.Null |] |]
         (Some (Item.Punct [ (0, Value.Int 9) ])));
    Wire.Batch
      (Batch.make ~stamps:[| 77_000 |]
         [| [| Value.Sketch (sketch_state `Topk) |] |]
         (Some Item.Flush));
  ]

(* Byte-level equality after a re-encode sidesteps the need for a
   structural equality on batches and schemas. *)
let check_round_trip msg =
  let b = Wire.encode msg in
  match Wire.decode b ~pos:0 ~len:(Bytes.length b) with
  | Wire.Frame (msg', consumed) ->
      Alcotest.(check int) (Wire.msg_label msg ^ " consumed") (Bytes.length b) consumed;
      Alcotest.(check bool)
        (Wire.msg_label msg ^ " re-encodes identically")
        true
        (Bytes.equal b (Wire.encode msg'))
  | Wire.Need_more -> Alcotest.failf "%s: Need_more on a complete frame" (Wire.msg_label msg)
  | Wire.Corrupt e -> Alcotest.failf "%s: Corrupt: %s" (Wire.msg_label msg) e

let test_round_trips () = List.iter check_round_trip sample_msgs

let test_prefixes_need_more () =
  List.iter
    (fun msg ->
      let b = Wire.encode msg in
      for n = 0 to Bytes.length b - 1 do
        match Wire.decode b ~pos:0 ~len:n with
        | Wire.Need_more -> ()
        | Wire.Frame _ -> Alcotest.failf "%s: decoded from a %d-byte prefix" (Wire.msg_label msg) n
        | Wire.Corrupt e ->
            Alcotest.failf "%s: prefix of %d bytes is Corrupt (%s), want Need_more"
              (Wire.msg_label msg) n e
      done)
    sample_msgs

let test_back_to_back () =
  let a = Wire.encode (Wire.Subscribe "one") in
  let b = Wire.encode Wire.Bye in
  let buf = Bytes.cat a b in
  match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
  | Wire.Frame (Wire.Subscribe "one", consumed) -> (
      Alcotest.(check int) "first frame length" (Bytes.length a) consumed;
      match Wire.decode buf ~pos:consumed ~len:(Bytes.length buf) with
      | Wire.Frame (Wire.Bye, consumed') ->
          Alcotest.(check int) "second frame end" (Bytes.length buf) consumed'
      | _ -> Alcotest.fail "second frame did not decode")
  | _ -> Alcotest.fail "first frame did not decode"

let expect_corrupt what b =
  match Wire.decode b ~pos:0 ~len:(Bytes.length b) with
  | Wire.Corrupt _ -> ()
  | Wire.Frame _ -> Alcotest.failf "%s: decoded" what
  | Wire.Need_more -> Alcotest.failf "%s: Need_more" what

let test_corrupt_frames () =
  let good = Wire.encode Wire.Bye in
  let bad_magic = Bytes.copy good in
  Bytes.set bad_magic 0 'X';
  expect_corrupt "bad magic" bad_magic;
  let bad_version = Bytes.copy good in
  Bytes.set bad_version 3 '\x63';
  expect_corrupt "unknown version" bad_version;
  let bad_type = Bytes.copy good in
  Bytes.set bad_type 4 '\xff';
  expect_corrupt "unknown message type" bad_type;
  (* a 4-byte length field must not talk the decoder into buffering 2 GiB *)
  let oversized = Bytes.copy good in
  Bytes.set_int32_be oversized 5 0x7fffffffl;
  expect_corrupt "oversized payload length" oversized;
  (* trailing payload bytes: claim one byte more than Bye carries *)
  let trailing = Bytes.cat good (Bytes.make 1 '\x00') in
  Bytes.set_int32_be trailing 5 1l;
  expect_corrupt "trailing payload bytes" trailing;
  (* a batch frame whose tuple count lies about the bytes that follow *)
  let b = Wire.encode (Wire.Batch sample_batch) in
  let lying = Bytes.copy b in
  Bytes.set_int32_be lying Wire.header_len 0x00ffffffl;
  expect_corrupt "lying batch tuple count" lying;
  (* v1 frames are rejected: the stamp column changed the batch layout *)
  let v1 = Bytes.copy good in
  Bytes.set v1 3 '\x01';
  expect_corrupt "protocol version 1" v1;
  (* the stamp flag byte admits exactly 0 and 1 *)
  let stamped = Wire.encode (Wire.Batch (Batch.make ~stamps:[| 5 |] [| [| Value.Int 1 |] |] None)) in
  let bad_flag = Bytes.copy stamped in
  (* the flag byte sits 8 stamp bytes from the end *)
  Bytes.set bad_flag (Bytes.length bad_flag - 9) '\x02';
  expect_corrupt "bad stamp flag" bad_flag;
  (* a stamped batch whose column is truncated mid-stamp *)
  let truncated = Bytes.sub stamped 0 (Bytes.length stamped - 3) in
  Bytes.set_int32_be truncated 5 (Int32.of_int (Bytes.length truncated - Wire.header_len));
  expect_corrupt "truncated stamp column" truncated

(* Find the unique offset of [needle] inside [hay] — used to locate a
   sketch state's bytes within its encoded frame. *)
let find_sub hay needle =
  let hl = Bytes.length hay and nl = String.length needle in
  let rec go i =
    if i + nl > hl then Alcotest.fail "sketch bytes not found in frame"
    else if String.equal (Bytes.sub_string hay i nl) needle then i
    else go (i + 1)
  in
  go 0

(* Sketch payloads inside batch frames: a skewed codec version is
   rejected as Corrupt with a message naming the version, and every
   truncation of the sketch state inside an otherwise well-formed frame
   is Corrupt — the decoder maps the sketch codec's Error into the
   frame-level failure, never an exception. *)
let test_sketch_payload_version_skew () =
  let s = sketch_state `Hll in
  let enc = Sketch.encode s in
  let frame = Wire.encode (Wire.Batch (Batch.make [| [| Value.Sketch s |] |] None)) in
  let off = find_sub frame enc in
  let skewed = Bytes.copy frame in
  Bytes.set skewed off (Char.chr ((Sketch.codec_version + 1) land 0xff));
  match Wire.decode skewed ~pos:0 ~len:(Bytes.length skewed) with
  | Wire.Corrupt e ->
      Alcotest.(check bool)
        (Printf.sprintf "corruption message mentions version: %s" e)
        true
        (let lower = String.lowercase_ascii e in
         let pat = "version" in
         let rec has i =
           i + String.length pat <= String.length lower
           && (String.equal (String.sub lower i (String.length pat)) pat || has (i + 1))
         in
         has 0)
  | Wire.Frame _ -> Alcotest.fail "version-skewed sketch decoded"
  | Wire.Need_more -> Alcotest.fail "version-skewed sketch: Need_more"

let test_sketch_payload_truncation () =
  List.iter
    (fun kind ->
      let s = sketch_state kind in
      let enc = Sketch.encode s in
      let frame = Wire.encode (Wire.Batch (Batch.make [| [| Value.Sketch s |] |] None)) in
      let off = find_sub frame enc in
      (* the u32 string length prefix sits just before the sketch bytes;
         shrinking it hands Sketch.decode a strict prefix of the state *)
      for keep = 0 to String.length enc - 1 do
        let b = Bytes.copy frame in
        Bytes.set_int32_be b (off - 4) (Int32.of_int keep);
        match Wire.decode b ~pos:0 ~len:(Bytes.length b) with
        | Wire.Corrupt _ -> ()
        | Wire.Frame _ ->
            Alcotest.failf "%s: sketch truncated to %d bytes decoded" (Sketch.kind_name s) keep
        | Wire.Need_more ->
            Alcotest.failf "%s: sketch truncated to %d bytes: Need_more" (Sketch.kind_name s) keep
      done)
    [ `Cm; `Topk; `Hll ]

(* Whatever the bytes, decode returns a value — never raises. *)
let fuzz_decode_total =
  qtest "wire: decode is total on random bytes"
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      let b = Bytes.of_string s in
      match Wire.decode b ~pos:0 ~len:(Bytes.length b) with
      | Wire.Frame _ | Wire.Need_more | Wire.Corrupt _ -> true)

let fuzz_mutated_frames =
  qtest "wire: decode survives mutated valid frames"
    QCheck.(triple (int_bound (List.length sample_msgs - 1)) small_nat (int_bound 255))
    (fun (which, pos, byte) ->
      let b = Wire.encode (List.nth sample_msgs which) in
      if Bytes.length b = 0 then true
      else begin
        Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
        match Wire.decode b ~pos:0 ~len:(Bytes.length b) with
        | Wire.Frame _ | Wire.Need_more | Wire.Corrupt _ -> true
      end)

let fuzz_truncation_total =
  qtest "wire: decode is total on every truncation"
    QCheck.(pair (int_bound (List.length sample_msgs - 1)) small_nat)
    (fun (which, n) ->
      let b = Wire.encode (List.nth sample_msgs which) in
      let n = n mod (Bytes.length b + 1) in
      match Wire.decode b ~pos:0 ~len:n with
      | Wire.Frame _ -> n = Bytes.length b
      | Wire.Need_more -> n < Bytes.length b
      | Wire.Corrupt _ -> false)

(* ------------------------- framed connections --------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_conn_reassembles_split_frames () =
  with_socketpair (fun a b ->
      let conn = Conn.of_fd b in
      let frame = Wire.encode (Wire.Batch sample_batch) in
      (* drip the frame through the socket a few bytes at a time, from a
         thread (recv blocks the main one) *)
      let writer =
        Thread.create
          (fun () ->
            let n = Bytes.length frame in
            let chunk = 7 in
            let rec go off =
              if off < n then begin
                let k = min chunk (n - off) in
                ignore (Unix.write a frame off k);
                Thread.delay 0.001;
                go (off + k)
              end
            in
            go 0)
          ()
      in
      (match Conn.recv conn with
      | Ok (Wire.Batch got) ->
          Alcotest.(check bool)
            "reassembled batch re-encodes identically" true
            (Bytes.equal (Wire.encode (Wire.Batch got)) frame)
      | Ok msg -> Alcotest.failf "expected batch, got %s" (Wire.msg_label msg)
      | Error e -> Alcotest.fail e);
      Thread.join writer)

let test_conn_two_frames_one_write () =
  with_socketpair (fun a b ->
      let conn = Conn.of_fd b in
      let buf = Bytes.cat (Wire.encode (Wire.Subscribe "q")) (Wire.encode Wire.Bye) in
      ignore (Unix.write a buf 0 (Bytes.length buf));
      (match Conn.recv conn with
      | Ok (Wire.Subscribe "q") -> ()
      | _ -> Alcotest.fail "first frame");
      match Conn.recv conn with
      | Ok Wire.Bye -> ()
      | _ -> Alcotest.fail "second frame")

let test_conn_rejects_garbage () =
  with_socketpair (fun a b ->
      let conn = Conn.of_fd b in
      let junk = Bytes.of_string "GET / HTTP/1.1\r\nHost: nope\r\n\r\n" in
      ignore (Unix.write a junk 0 (Bytes.length junk));
      match Conn.recv conn with
      | Error _ -> ()
      | Ok msg -> Alcotest.failf "junk decoded as %s" (Wire.msg_label msg))

(* ----------------------------- loopback --------------------------------- *)

let sock_counter = ref 0

let fresh_sock_path () =
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gsq-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

let counter_value snapshot name =
  match Metrics.find snapshot name with
  | Some (Metrics.Counter n) -> n
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> 0

(* A payload-carrying passthrough: each tuple hauls a packet payload, so
   a stalled subscriber's socket buffer fills in a bounded number of
   tuples — what makes the slow-consumer tests deterministic. *)
let payload_program =
  {|
  DEFINE { query_name pay; }
  SELECT time, len, payload FROM eth0.tcp WHERE ipversion = 4
|}

let payload_workload =
  {
    Workloads.wname = "pay";
    program = (fun () -> payload_program);
    setup = Workloads.eth0_setup ~rate:20.0 ~duration:0.5;
    outputs = [ "pay" ];
    params = [];
  }

let await ?(timeout = 10.0) what cond =
  let deadline = Gigascope_obs.Clock.now_ns () +. (timeout *. 1e9) in
  let rec go () =
    if cond () then ()
    else if Gigascope_obs.Clock.now_ns () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(* The acceptance scenario: one engine, two remote subscribers on the
   same query — one reads promptly, one stalls until the run is over.
   Under Drop_newest the fast subscriber's stream is byte-identical to a
   local subscription, and every tuple the slow one missed is accounted
   for in net.subscriber.drops. *)
let test_loopback_drop_newest () =
  let seed = 11 in
  let baseline, _ = Workloads.exec payload_workload ~seed ~parallel:1 () in
  let expected = List.assoc "pay" baseline in
  let total = List.length expected in
  Alcotest.(check bool) "workload produces enough traffic" true (total > 500);
  let engine = E.create ~shards:1 () in
  payload_workload.Workloads.setup ~seed engine;
  (match E.install_program engine payload_program with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* two servers on one engine: the fast subscriber gets an egress queue
     that can hold the whole run (it must not lose anything to scheduling
     jitter), the slow one a tiny queue that must overflow *)
  let srv_fast = Server.create ~policy:Server.Drop_newest ~egress_capacity:(total + 1024) engine in
  let srv_slow = Server.create ~policy:Server.Drop_newest ~egress_capacity:32 engine in
  let addr_fast = Result.get_ok (Server.listen srv_fast (Addr.Unix_sock (fresh_sock_path ()))) in
  let addr_slow = Result.get_ok (Server.listen srv_slow (Addr.Unix_sock (fresh_sock_path ()))) in
  let run_done = Atomic.make false in
  let fast_rows = ref [] in
  let fast_err = ref None in
  let fast_thread =
    Thread.create
      (fun () ->
        match Client.connect addr_fast with
        | Error e -> fast_err := Some e
        | Ok c -> (
            match Client.subscribe c "pay" with
            | Error e -> fast_err := Some e
            | Ok _ -> (
                match
                  Client.iter c (fun item ->
                      match item with
                      | Item.Tuple row -> fast_rows := Workloads.row_to_string row :: !fast_rows
                      | _ -> ())
                with
                | Ok () -> Client.close c
                | Error e -> fast_err := Some e)))
      ()
  in
  let slow_count = ref 0 and slow_gaps = ref 0 in
  let slow_err = ref None in
  let slow_thread =
    Thread.create
      (fun () ->
        match Client.connect addr_slow with
        | Error e -> slow_err := Some e
        | Ok c -> (
            match Client.subscribe c "pay" with
            | Error e -> slow_err := Some e
            | Ok _ -> (
                (* stall: read nothing until the producer has finished, so
                   the tiny egress queue must overflow *)
                await "engine run" (fun () -> Atomic.get run_done);
                match
                  Client.iter c (function
                    | Item.Tuple _ -> incr slow_count
                    | Item.Gap g -> slow_gaps := !slow_gaps + g
                    | _ -> ())
                with
                | Ok () -> Client.close c
                | Error e -> slow_err := Some e)))
      ()
  in
  await "both subscribers" (fun () ->
      Server.subscriber_count srv_fast = 1 && Server.subscriber_count srv_slow = 1);
  (match E.run engine ~parallel:1 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Atomic.set run_done true;
  Thread.join fast_thread;
  Thread.join slow_thread;
  ignore (Server.drain ~timeout:5.0 srv_fast);
  ignore (Server.drain ~timeout:5.0 srv_slow);
  Server.stop srv_fast;
  Server.stop srv_slow;
  (match !fast_err with Some e -> Alcotest.fail ("fast subscriber: " ^ e) | None -> ());
  (match !slow_err with Some e -> Alcotest.fail ("slow subscriber: " ^ e) | None -> ());
  Alcotest.(check (list string))
    "fast subscriber sees the exact local stream" expected (List.rev !fast_rows);
  let snap = E.metrics_snapshot engine in
  let drops = counter_value snap "net.subscriber.drops" in
  Alcotest.(check bool) "the stalled subscriber dropped" true (drops > 0);
  Alcotest.(check int) "every missing tuple is a counted drop" total (!slow_count + drops);
  Alcotest.(check int) "the slow subscriber's gaps announce every drop" drops !slow_gaps;
  Alcotest.(check bool)
    "connection metrics counted" true
    (counter_value snap "net.connections" >= 2
    && counter_value snap "net.frames_out" > 0
    && counter_value snap "net.bytes_out" > 0)

(* Block stalls the engine instead of dropping. The subscriber starts
   reading only once its queue holds a full capacity of items, so the
   engine has had to wait; it still gets the exact local stream, nothing
   is dropped, and the run completes. With latency sampling on, the
   stamped tuples reach net.latency.pay through the queue. *)
let test_block_policy () =
  let seed = 11 in
  let baseline, _ = Workloads.exec payload_workload ~seed ~parallel:1 () in
  let expected = List.assoc "pay" baseline in
  let engine = E.create ~shards:1 () in
  payload_workload.Workloads.setup ~seed engine;
  (match E.install_program engine payload_program with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let srv = Server.create ~policy:Server.Block ~egress_capacity:32 engine in
  (* what [add_sub] raises a small queue to *)
  let capacity = max 32 (E.certified_burst engine "pay" + 64) in
  let addr = Result.get_ok (Server.listen srv (Addr.Unix_sock (fresh_sock_path ()))) in
  let depth () =
    match Metrics.find (E.metrics_snapshot engine) "net.subscriber.queue_depth" with
    | Some (Metrics.Gauge v) -> int_of_float v
    | _ -> 0
  in
  let rows = ref [] and err = ref None in
  let th =
    Thread.create
      (fun () ->
        match Client.connect addr with
        | Error e -> err := Some e
        | Ok c -> (
            match Client.subscribe c "pay" with
            | Error e -> err := Some e
            | Ok _ -> (
                await "a full egress queue" (fun () -> depth () >= capacity);
                match
                  Client.iter c (function
                    | Item.Tuple row -> rows := Workloads.row_to_string row :: !rows
                    | _ -> ())
                with
                | Ok () -> Client.close c
                | Error e -> err := Some e)))
      ()
  in
  await "subscriber" (fun () -> Server.subscriber_count srv = 1);
  (match E.run engine ~parallel:1 ~latency_sample:4 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Thread.join th;
  ignore (Server.drain ~timeout:5.0 srv);
  Server.stop srv;
  (match !err with Some e -> Alcotest.fail ("subscriber: " ^ e) | None -> ());
  Alcotest.(check (list string)) "the exact local stream" expected (List.rev !rows);
  let snap = E.metrics_snapshot engine in
  Alcotest.(check int) "nothing dropped" 0 (counter_value snap "net.subscriber.drops");
  match Metrics.find snap "net.latency.pay" with
  | Some (Metrics.Histogram h) ->
      Alcotest.(check bool) "stamped tuples reach net.latency.pay" true (h.Metrics.h_count > 0)
  | _ -> Alcotest.fail "no net.latency.pay histogram"

let test_disconnect_policy () =
  let seed = 12 in
  let engine = E.create ~shards:1 () in
  payload_workload.Workloads.setup ~seed engine;
  (match E.install_program engine payload_program with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let srv = Server.create ~policy:Server.Disconnect ~egress_capacity:8 engine in
  let addr = Result.get_ok (Server.listen srv (Addr.Unix_sock (fresh_sock_path ()))) in
  let run_done = Atomic.make false in
  let outcome = ref `Pending in
  let th =
    Thread.create
      (fun () ->
        match Client.connect addr with
        | Error e -> outcome := `Fail e
        | Ok c -> (
            match Client.subscribe c "pay" with
            | Error e -> outcome := `Fail e
            | Ok _ ->
                await "engine run" (fun () -> Atomic.get run_done);
                let rec drain () =
                  match Client.next c with
                  | Ok (Some _) -> drain ()
                  | Ok None -> outcome := `Clean_eof
                  | Error _ -> outcome := `Severed
                in
                drain ();
                Client.close c))
      ()
  in
  await "subscriber" (fun () -> Server.subscriber_count srv = 1);
  (match E.run engine ~parallel:1 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Atomic.set run_done true;
  Thread.join th;
  Server.stop srv;
  let snap = E.metrics_snapshot engine in
  Alcotest.(check int) "slow subscriber disconnected" 1
    (counter_value snap "net.subscriber.disconnects");
  match !outcome with
  | `Severed -> ()
  | `Clean_eof -> Alcotest.fail "stalled subscriber reached EOF under Disconnect"
  | `Pending -> Alcotest.fail "subscriber never finished"
  | `Fail e -> Alcotest.fail e

let test_list_and_unknown_query () =
  let engine = E.create () in
  payload_workload.Workloads.setup ~seed:1 engine;
  (match E.install_program engine payload_program with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let srv = Server.create engine in
  let addr = Result.get_ok (Server.listen srv (Addr.Unix_sock (fresh_sock_path ()))) in
  let c = Result.get_ok (Client.connect addr) in
  (match Client.list c with
  | Ok qs ->
      let names = List.map (fun q -> q.Wire.q_name) qs in
      Alcotest.(check bool) "listing includes the query" true (List.mem "pay" names);
      Alcotest.(check bool) "listing includes the source" true (List.mem "eth0.tcp" names)
  | Error e -> Alcotest.fail e);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Client.subscribe c "no_such_query" with
  | Error e ->
      Alcotest.(check bool) "unknown query names itself" true (contains e "no_such_query")
  | Ok _ -> Alcotest.fail "subscribed to a query that does not exist");
  Client.close c;
  Server.stop srv

(* The server outlives clients that speak garbage: raw junk before the
   handshake, an oversized frame header, a vanished peer — each kills
   its own connection only. *)
let test_server_survives_garbage () =
  let engine = E.create () in
  payload_workload.Workloads.setup ~seed:1 engine;
  (match E.install_program engine payload_program with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let srv = Server.create engine in
  let addr = Result.get_ok (Server.listen srv (Addr.Unix_sock (fresh_sock_path ()))) in
  let sockaddr = Result.get_ok (Addr.to_sockaddr addr) in
  let raw_send bytes =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd sockaddr;
    ignore (Unix.write fd bytes 0 (Bytes.length bytes));
    (* give the handler a beat, then vanish without a goodbye *)
    Thread.delay 0.02;
    Unix.close fd
  in
  raw_send (Bytes.of_string "\x00\x01\x02\x03 utter nonsense \xff\xfe");
  (let oversized = Bytes.make Wire.header_len '\x00' in
   Bytes.blit_string "GSW" 0 oversized 0 3;
   Bytes.set oversized 3 (Char.chr Wire.protocol_version);
   Bytes.set oversized 4 '\x01';
   Bytes.set_int32_be oversized 5 0x7fffffffl;
   raw_send oversized);
  raw_send (Wire.encode (Wire.Hello { version = 99; peer = "from the future" }));
  (* half a frame, then silence: the handler must not decode it as whole *)
  (let frame = Wire.encode (Wire.Hello { version = Wire.protocol_version; peer = "half" }) in
   raw_send (Bytes.sub frame 0 (Bytes.length frame - 2)));
  (* after all that abuse, a well-behaved client still gets served *)
  let c = Result.get_ok (Client.connect addr) in
  (match Client.list c with
  | Ok qs -> Alcotest.(check bool) "server still lists queries" true (List.length qs > 0)
  | Error e -> Alcotest.fail ("server unusable after garbage: " ^ e));
  Client.close c;
  Server.stop srv;
  let snap = E.metrics_snapshot engine in
  Alcotest.(check bool) "protocol errors were counted" true
    (counter_value snap "net.errors" > 0)

(* ------------------------------- ingest --------------------------------- *)

let feed_schema =
  Schema.make
    [
      { Schema.name = "t"; ty = Ty.Int; order = Order_prop.Monotone Order_prop.Asc };
      { Schema.name = "v"; ty = Ty.Int; order = Order_prop.Unordered };
    ]

let test_publish_ingest () =
  let engine = E.create () in
  let srv = Server.create engine in
  (match Server.add_ingest srv ~name:"feed" ~schema:feed_schema () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     E.install_program engine
       {|
  DEFINE { query_name fed; }
  SELECT t, v FROM feed WHERE v >= 0
|}
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let addr = Result.get_ok (Server.listen srv (Addr.Unix_sock (fresh_sock_path ()))) in
  let n = 200 in
  let publisher =
    Thread.create
      (fun () ->
        let c = Result.get_ok (Client.connect addr) in
        (match Client.publish c ~iface:"feed" with
        | Ok schema -> Alcotest.(check int) "published schema arity" 2 (Schema.arity schema)
        | Error e -> Alcotest.fail e);
        for i = 1 to n do
          (* every other value filtered out by the WHERE *)
          let v = if i mod 2 = 0 then i else -i in
          Result.get_ok (Client.send_tuple c [| Value.Int i; Value.Int v |])
        done;
        Result.get_ok (Client.finish c);
        Client.close c)
      ()
  in
  let rows = ref [] in
  Result.get_ok (E.on_tuple engine "fed" (fun row -> rows := Array.copy row :: !rows));
  (match E.run engine ~parallel:1 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Thread.join publisher;
  Server.stop srv;
  let got = List.rev_map (fun r -> r.(0)) !rows in
  let want = List.init (n / 2) (fun i -> Value.Int (2 * (i + 1))) in
  Alcotest.(check bool) "filtered published tuples arrive in order" true (got = want);
  Alcotest.(check int) "ingest tuple counter" n
    (counter_value (E.metrics_snapshot engine) "net.ingest.tuples")

(* One gsq engine feeds another: engine A serves a query, engine B
   mounts it as a local source over the wire and queries it — the
   paper's two-level LFTA/HFTA split stretched across a socket. *)
let test_cross_engine_chaining () =
  let seed = 13 in
  let baseline, _ = Workloads.exec payload_workload ~seed ~parallel:1 () in
  let expected = List.assoc "pay" baseline in
  let engine_a = E.create () in
  payload_workload.Workloads.setup ~seed engine_a;
  (match E.install_program engine_a payload_program with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let srv = Server.create ~egress_capacity:(List.length expected + 1024) engine_a in
  let addr = Result.get_ok (Server.listen srv (Addr.Unix_sock (fresh_sock_path ()))) in
  let engine_b = E.create () in
  (* subscribes now, so nothing is lost when A starts running *)
  (match Client.add_remote_interface engine_b ~name:"upstream" addr ~query:"pay" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     E.install_program engine_b
       {|
  DEFINE { query_name relay; }
  SELECT time, len, payload FROM upstream
|}
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let rows = ref [] in
  Result.get_ok
    (E.on_tuple engine_b "relay" (fun row ->
         rows := Workloads.row_to_string row :: !rows));
  let upstream =
    Thread.create
      (fun () ->
        (match E.run engine_a ~parallel:1 () with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "engine A: %s" e);
        ignore (Server.drain ~timeout:5.0 srv))
      ()
  in
  (match E.run engine_b ~parallel:1 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "engine B: %s" e);
  Thread.join upstream;
  Server.stop srv;
  Alcotest.(check (list string))
    "downstream engine sees the upstream stream intact" expected (List.rev !rows)

(* ------------------------------- addr ----------------------------------- *)

let test_addr_parsing () =
  (match Addr.of_string "unix:/tmp/x.sock" with
  | Ok (Addr.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix form");
  (match Addr.of_string "localhost:5577" with
  | Ok (Addr.Tcp ("localhost", 5577)) -> ()
  | _ -> Alcotest.fail "host:port form");
  (match Addr.of_string ":5577" with
  | Ok (Addr.Tcp (_, 5577)) -> ()
  | _ -> Alcotest.fail ":port form");
  (match Addr.of_string "no-port-here" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "portless string accepted");
  match Addr.of_string "host:notaport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric port accepted"

(* A client that subscribes to a Protocol source while the engine runs
   gets every field of every tuple it receives, payload included, though
   the only LFTA on the source reads two fields. The subscription is
   requested at round 10 and lands whenever the server thread gets to
   it; by round 40 the scheduler waits for it, so it always lands
   mid-run. *)
let test_midrun_source_subscription () =
  let packets =
    let g = Gigascope_traffic.Gen.create { Gigascope_traffic.Gen.default with seed = 3; duration = 10.0 } in
    List.init 10_000 (fun _ -> Option.get (Gigascope_traffic.Gen.next g))
  in
  let whole =
    let tbl = Hashtbl.create 16384 in
    List.iter
      (fun p ->
        Option.iter
          (fun t -> Hashtbl.replace tbl (Workloads.row_to_string t) ())
          (Gigascope.Default_protocols.tcp.Gigascope.Default_protocols.interpret p))
      packets;
    tbl
  in
  let engine = E.create ~shards:1 () in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  (match
     E.install_program engine
       {| DEFINE { query_name p80; } SELECT time, destport FROM eth0.tcp WHERE destport = 80 |}
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let srv = Server.create ~egress_capacity:16_384 engine in
  let addr = Result.get_ok (Server.listen srv (Addr.Unix_sock (fresh_sock_path ()))) in
  let go = Atomic.make false in
  let rows = ref [] and err = ref None in
  let client =
    Thread.create
      (fun () ->
        await "round 10" (fun () -> Atomic.get go);
        match Client.connect addr with
        | Error e -> err := Some e
        | Ok c -> (
            match Client.subscribe c "eth0.tcp" with
            | Error e -> err := Some e
            | Ok _ -> (
                match
                  Client.iter c (function Item.Tuple row -> rows := row :: !rows | _ -> ())
                with
                | Ok () -> Client.close c
                | Error e -> err := Some e)))
      ()
  in
  (match
     E.run engine ~quantum:16
       ~on_round:(fun round ->
         if round = 10 then Atomic.set go true;
         if round = 40 then await "the subscription" (fun () -> Server.subscriber_count srv = 1))
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Thread.join client;
  Server.stop srv;
  (match !err with Some e -> Alcotest.fail ("subscriber: " ^ e) | None -> ());
  let n = List.length !rows in
  Alcotest.(check bool) "subscribed mid-run" true (n > 0 && n < Hashtbl.length whole);
  List.iter
    (fun row ->
      if not (Hashtbl.mem whole (Workloads.row_to_string row)) then
        Alcotest.failf "not a whole tuple: %s" (Workloads.row_to_string row))
    !rows

let test_tcp_loopback () =
  let engine = E.create () in
  payload_workload.Workloads.setup ~seed:1 engine;
  (match E.install_program engine payload_program with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let srv = Server.create engine in
  (* port 0: the kernel picks; the bound address reports which *)
  match Server.listen srv (Addr.Tcp ("127.0.0.1", 0)) with
  | Error e -> Alcotest.fail e
  | Ok bound ->
      (match bound with
      | Addr.Tcp (_, port) -> Alcotest.(check bool) "real port" true (port > 0)
      | _ -> Alcotest.fail "bound address is not TCP");
      let c = Result.get_ok (Client.connect bound) in
      (match Client.list c with
      | Ok qs -> Alcotest.(check bool) "TCP listing works" true (List.length qs > 0)
      | Error e -> Alcotest.fail e);
      Client.close c;
      Server.stop srv

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "round-trips every message" `Quick test_round_trips;
          Alcotest.test_case "prefixes want more bytes" `Quick test_prefixes_need_more;
          Alcotest.test_case "back-to-back frames" `Quick test_back_to_back;
          Alcotest.test_case "corrupt frames rejected" `Quick test_corrupt_frames;
          Alcotest.test_case "sketch codec version skew rejected" `Quick
            test_sketch_payload_version_skew;
          Alcotest.test_case "sketch payload truncation is Corrupt" `Quick
            test_sketch_payload_truncation;
          fuzz_decode_total;
          fuzz_mutated_frames;
          fuzz_truncation_total;
        ] );
      ( "conn",
        [
          Alcotest.test_case "reassembles split frames" `Quick test_conn_reassembles_split_frames;
          Alcotest.test_case "two frames in one read" `Quick test_conn_two_frames_one_write;
          Alcotest.test_case "rejects garbage" `Quick test_conn_rejects_garbage;
        ] );
      ( "addr",
        [
          Alcotest.test_case "parsing" `Quick test_addr_parsing;
        ] );
      ( "server",
        [
          Alcotest.test_case "loopback under Drop_newest" `Quick test_loopback_drop_newest;
          Alcotest.test_case "Block stalls the engine, drops nothing" `Quick test_block_policy;
          Alcotest.test_case "Disconnect severs the slow subscriber" `Quick test_disconnect_policy;
          Alcotest.test_case "list and unknown query" `Quick test_list_and_unknown_query;
          Alcotest.test_case "survives garbage connections" `Quick test_server_survives_garbage;
          Alcotest.test_case "publish feeds an ingest" `Quick test_publish_ingest;
          Alcotest.test_case "one engine feeds another" `Quick test_cross_engine_chaining;
          Alcotest.test_case "TCP loopback on an ephemeral port" `Quick test_tcp_loopback;
          Alcotest.test_case "mid-run source subscription: every field" `Quick
            test_midrun_source_subscription;
        ] );
    ]
