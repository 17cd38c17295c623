(* Tests for the core facade: the built-in Protocol library's
   interpretation functions, TCP session extraction, the defragmenting
   interface, FROM-clause subqueries, and the engine's settings. *)

module E = Gigascope.Engine
module Sessions = Gigascope.Sessions
module DP = Gigascope.Default_protocols
module Rts = Gigascope_rts
module Value = Rts.Value
module P = Gigascope_packet
module Packet = P.Packet
module Tcp = P.Tcp
module Ipaddr = P.Ipaddr
module Metrics = Gigascope_obs.Metrics

let check = Alcotest.check

let ip = Ipaddr.of_string

let tcp_pkt ?(flags = { Tcp.no_flags with Tcp.ack = true }) ts src dst sport dport payload =
  Packet.tcp ~ts ~flags ~src:(ip src) ~dst:(ip dst) ~src_port:sport ~dst_port:dport
    ~payload:(Bytes.of_string payload) ()

(* --------------------- Default_protocols interpretation ----------------- *)

let test_tcp_interpret () =
  let proto = Option.get (DP.find "tcp") in
  let pkt = tcp_pkt 12.75 "10.0.0.1" "10.0.0.2" 4321 80 "hello" in
  match proto.DP.interpret pkt with
  | Some t ->
      check Alcotest.bool "time = floor ts" true (Value.equal t.(0) (Value.Int 12));
      check Alcotest.bool "timestamp exact" true (Value.equal t.(1) (Value.Float 12.75));
      check Alcotest.bool "ipversion" true (Value.equal t.(2) (Value.Int 4));
      check Alcotest.bool "protocol 6" true (Value.equal t.(8) (Value.Int 6));
      check Alcotest.bool "srcip" true (Value.equal t.(9) (Value.Ip (ip "10.0.0.1")));
      check Alcotest.bool "destport" true (Value.equal t.(12) (Value.Int 80));
      check Alcotest.bool "data_length" true (Value.equal t.(17) (Value.Int 5));
      check Alcotest.bool "payload" true (Value.equal t.(18) (Value.Str "hello"))
  | None -> Alcotest.fail "tcp interpret failed"

let test_tcp_interpret_udp_packet () =
  (* the tcp Protocol interprets all IPv4 packets; UDP ports flow through,
     TCP-only fields are zero — the idiom behind WHERE protocol = 6 *)
  let proto = Option.get (DP.find "tcp") in
  let pkt = Packet.udp ~ts:1.0 ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2") ~src_port:53 ~dst_port:5353
              ~payload:(Bytes.of_string "x") () in
  match proto.DP.interpret pkt with
  | Some t ->
      check Alcotest.bool "protocol 17" true (Value.equal t.(8) (Value.Int 17));
      check Alcotest.bool "udp ports visible" true (Value.equal t.(11) (Value.Int 53));
      check Alcotest.bool "tcp flags zero" true (Value.equal t.(13) (Value.Int 0))
  | None -> Alcotest.fail "should interpret UDP under the tcp protocol"

let test_interpret_non_ip () =
  let proto = Option.get (DP.find "ip") in
  let b = Bytes.make 20 '\000' in
  P.Bytes_util.set_u16 b 12 0x0806;
  match Packet.decode b with
  | Ok pkt -> check Alcotest.bool "non-ip skipped" true (proto.DP.interpret pkt = None)
  | Error e -> Alcotest.fail e

let test_clock_fields () =
  let proto = Option.get (DP.find "tcp") in
  let bounds = List.map (fun (i, f) -> (i, f 99.5)) proto.DP.clock_fields in
  check Alcotest.bool "time clock" true (List.assoc 0 bounds = Value.Int 99);
  check Alcotest.bool "timestamp clock" true (List.assoc 1 bounds = Value.Float 99.5)

(* The masked interpreters against [interpret], the all-fields view, on
   every kind of packet: the generator's TCP and UDP, ICMP, non-IP, IP
   fragments, and packets cut by a snap length and decoded from the
   capture bytes as a pcap record is. *)
let gen_packet =
  let open QCheck.Gen in
  let generated =
    map2
      (fun seed k ->
        let g =
          Gigascope_traffic.Gen.create
            { Gigascope_traffic.Gen.default with seed; udp_fraction = 0.4; mean_payload = 200 }
        in
        let rec nth i =
          match Gigascope_traffic.Gen.next g with
          | Some p -> if i = 0 then p else nth (i - 1)
          | None -> Alcotest.fail "generator ran dry"
        in
        nth k)
      (int_range 0 1000) (int_range 0 20)
  in
  let icmp =
    map
      (fun n ->
        Packet.icmp ~ts:7.25 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~icmp_type:8
          ~payload:(Bytes.make n 'x') ())
      (int_range 0 64)
  in
  let non_ip =
    map
      (fun n ->
        let b = Bytes.make (20 + n) '\001' in
        P.Bytes_util.set_u16 b 12 0x0806;
        Result.get_ok (Packet.decode ~ts:3.0 b))
      (int_range 0 40)
  in
  let whole = frequency [ (6, generated); (1, icmp); (1, non_ip) ] in
  let fragment =
    map2
      (fun p (mtu, k) ->
        let frags = P.Frag.fragment ~mtu p in
        List.nth frags (k mod List.length frags))
      whole
      (pair (int_range 68 400) nat)
  in
  let snapped =
    map2
      (fun (p : Packet.t) snap_len ->
        let wire = Packet.encode p in
        match
          Packet.decode ~ts:p.Packet.ts ~wire_len:(Bytes.length wire)
            (Packet.truncate ~snap_len wire)
        with
        | Ok q -> q
        | Error _ -> p)
      whole (int_range 14 160)
  in
  frequency [ (3, whole); (1, fragment); (1, snapped) ]

let constructor = function
  | Value.Null -> 0
  | Value.Bool _ -> 1
  | Value.Int _ -> 2
  | Value.Float _ -> 3
  | Value.Str _ -> 4
  | Value.Ip _ -> 5
  | Value.Sketch _ -> 6

let same a b = constructor a = constructor b && Value.compare a b = 0

let masked_interpreters_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"masked interpreters = interpret on selected fields"
       (QCheck.make
          ~print:(fun (pkt, (proto : DP.t), mask, copy) ->
            Printf.sprintf "%s: %s, fields %x, copy %b" proto.DP.proto_name
              (Packet.to_string pkt) mask copy)
          QCheck.Gen.(
            quad gen_packet (oneofl DP.all)
              (oneof [ int; int_bound 0xFFFF; return 0; return (-1) ])
              bool))
       (fun (pkt, proto, mask, copy) ->
         let schema = proto.DP.catalog_entry.Gigascope_gsql.Catalog.schema in
         let payload i =
           List.mem (Rts.Schema.field_at schema i).Rts.Schema.name
             proto.DP.catalog_entry.Gigascope_gsql.Catalog.payload_fields
         in
         let selected i = mask land (1 lsl i) <> 0 in
         let asked = ref None in
         let sel =
           { DP.fields = mask; copy_payload = (fun t -> asked := Some (Array.copy t); copy) }
         in
         match (proto.DP.interpret pkt, proto.DP.interpret_selected sel pkt) with
         | None, None -> true
         | Some full, Some got ->
             let filled i = selected i && ((not (payload i)) || copy) in
             Array.length got = Array.length full
             && List.for_all
                  (fun i ->
                    if filled i then same got.(i) full.(i) || QCheck.Test.fail_reportf "field %d differs" i
                    else got.(i) = Value.Null || QCheck.Test.fail_reportf "field %d not Null" i)
                  (List.init (Array.length full) Fun.id)
             && (* asked once the other selected fields are in, never when
                   the payload is unselected *)
             (match !asked with
             | None -> not (List.exists (fun i -> payload i && selected i) (List.init (Array.length full) Fun.id))
             | Some t ->
                 List.for_all
                   (fun i -> if payload i then t.(i) = Value.Null else same t.(i) got.(i))
                   (List.init (Array.length full) Fun.id))
         | Some _, None | None, Some _ -> QCheck.Test.fail_report "None on one side only"))

(* ------------------------------ Sessions -------------------------------- *)

let syn = { Tcp.no_flags with Tcp.syn = true }
let fin = { Tcp.no_flags with Tcp.fin = true; ack = true }
let rst = { Tcp.no_flags with Tcp.rst = true }

let test_session_clean_close () =
  let t = Sessions.create () in
  let feed =
    [
      tcp_pkt ~flags:syn 1.0 "10.0.0.1" "10.0.0.2" 1000 80 "";
      tcp_pkt 1.1 "10.0.0.2" "10.0.0.1" 80 1000 "response-data";
      tcp_pkt 1.2 "10.0.0.1" "10.0.0.2" 1000 80 "req";
      tcp_pkt ~flags:fin 1.3 "10.0.0.1" "10.0.0.2" 1000 80 "";
      tcp_pkt ~flags:fin 1.4 "10.0.0.2" "10.0.0.1" 80 1000 "";
    ]
  in
  let closed = List.concat_map (Sessions.push t) feed in
  match closed with
  | [s] ->
      check Alcotest.int "initiator is the SYN sender" (ip "10.0.0.1") s.Sessions.src;
      check Alcotest.int "packets both ways" 5 s.Sessions.packets;
      check Alcotest.int "bytes both ways" 16 s.Sessions.bytes;
      check (Alcotest.float 1e-9) "start" 1.0 s.Sessions.start_ts;
      check (Alcotest.float 1e-9) "end" 1.4 s.Sessions.end_ts;
      check Alcotest.bool "clean" true s.Sessions.clean_close;
      check Alcotest.int "tracker empty" 0 (Sessions.open_sessions t)
  | l -> Alcotest.failf "expected one closed session, got %d" (List.length l)

let test_session_rst_close () =
  let t = Sessions.create () in
  ignore (Sessions.push t (tcp_pkt ~flags:syn 1.0 "10.0.0.1" "10.0.0.2" 1000 80 ""));
  match Sessions.push t (tcp_pkt ~flags:rst 1.5 "10.0.0.2" "10.0.0.1" 80 1000 "") with
  | [s] -> check Alcotest.bool "rst close is not clean" false s.Sessions.clean_close
  | _ -> Alcotest.fail "RST should close the session"

let test_session_idle_timeout () =
  let t = Sessions.create ~idle_timeout:5.0 () in
  ignore (Sessions.push t (tcp_pkt ~flags:syn 1.0 "10.0.0.1" "10.0.0.2" 1000 80 ""));
  (* an unrelated packet far in the future expires the idle session *)
  match Sessions.push t (tcp_pkt 100.0 "10.0.0.3" "10.0.0.4" 2000 443 "") with
  | [s] ->
      check Alcotest.int "expired session is the old one" (ip "10.0.0.1") s.Sessions.src;
      check Alcotest.int "new session open" 1 (Sessions.open_sessions t)
  | _ -> Alcotest.fail "idle session should expire"

let test_session_half_close_stays_open () =
  let t = Sessions.create () in
  ignore (Sessions.push t (tcp_pkt ~flags:syn 1.0 "10.0.0.1" "10.0.0.2" 1000 80 ""));
  let closed = Sessions.push t (tcp_pkt ~flags:fin 1.1 "10.0.0.1" "10.0.0.2" 1000 80 "") in
  check Alcotest.int "one FIN is a half-close" 0 (List.length closed);
  check Alcotest.int "still open" 1 (Sessions.open_sessions t)

let test_session_flush () =
  let t = Sessions.create () in
  ignore (Sessions.push t (tcp_pkt ~flags:syn 1.0 "10.0.0.1" "10.0.0.2" 1000 80 ""));
  ignore (Sessions.push t (tcp_pkt ~flags:syn 2.0 "10.0.0.3" "10.0.0.4" 1001 80 ""));
  let flushed = Sessions.flush t in
  check Alcotest.int "both flushed" 2 (List.length flushed);
  (* flushed in end-time order *)
  match flushed with
  | [a; b] -> check Alcotest.bool "ordered by end" true (a.Sessions.end_ts <= b.Sessions.end_ts)
  | _ -> Alcotest.fail "shape"

let test_session_source_gsql () =
  (* end to end: packets -> session stream -> GSQL aggregation *)
  let feed_packets =
    [
      tcp_pkt ~flags:syn 1.0 "10.0.0.1" "10.0.0.2" 1000 80 "";
      tcp_pkt 1.1 "10.0.0.1" "10.0.0.2" 1000 80 "12345";
      tcp_pkt ~flags:fin 1.2 "10.0.0.1" "10.0.0.2" 1000 80 "";
      tcp_pkt ~flags:fin 1.3 "10.0.0.2" "10.0.0.1" 80 1000 "";
      tcp_pkt ~flags:syn 2.0 "10.0.0.5" "10.0.0.6" 1001 443 "";
      tcp_pkt ~flags:rst 2.5 "10.0.0.6" "10.0.0.5" 443 1001 "";
    ]
  in
  let engine = E.create () in
  let remaining = ref feed_packets in
  let feed () =
    match !remaining with
    | [] -> None
    | p :: rest ->
        remaining := rest;
        Some p
  in
  (match E.add_session_source engine ~name:"sessions" ~feed () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     E.install_query engine ~name:"per_port"
       {| SELECT destport, count(*) as sessions, sum(bytes) as bytes
          FROM sessions GROUP BY end_time/1000 as tb, destport |}
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let rows = ref [] in
  Result.get_ok (E.on_tuple engine "per_port" (fun t -> rows := Array.copy t :: !rows));
  (match E.run engine () with Ok _ -> () | Error e -> Alcotest.fail e);
  let as_strings =
    List.sort compare
      (List.map (fun t -> String.concat "," (List.map Value.to_string (Array.to_list t))) !rows)
  in
  check Alcotest.(list string) "session aggregation" ["443,1,0"; "80,1,5"] as_strings

(* --------------------------- defrag interface --------------------------- *)

let test_defrag_interface () =
  (* a large UDP datagram fragmented at the source: without defrag only the
     first fragment has ports; with defrag the query sees the whole
     payload length *)
  let payload = Bytes.make 3000 'z' in
  let whole =
    Packet.udp ~ts:1.0 ~ident:42 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:5000
      ~dst_port:6000 ~payload ()
  in
  let frags = P.Frag.fragment ~mtu:576 whole in
  check Alcotest.bool "actually fragmented" true (List.length frags > 1);
  let run_with_defrag use_defrag =
    let engine = E.create () in
    let feed () =
      let remaining = ref frags in
      fun () ->
        match !remaining with
        | [] -> None
        | p :: rest ->
            remaining := rest;
            Some p
    in
    if use_defrag then E.add_defrag_interface engine ~name:"eth0" ~feed ()
    else E.add_interface engine ~name:"eth0" ~feed ();
    (match
       E.install_query engine ~name:"big"
         "SELECT time, data_length FROM eth0.udp WHERE destport = 6000"
     with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    let rows = ref [] in
    Result.get_ok (E.on_tuple engine "big" (fun t -> rows := Array.copy t :: !rows));
    (match E.run engine () with Ok _ -> () | Error e -> Alcotest.fail e);
    !rows
  in
  (match run_with_defrag true with
  | [[| _; Value.Int len |]] -> check Alcotest.int "whole datagram seen" 3000 len
  | rows -> Alcotest.failf "defrag: expected one row, got %d" (List.length rows));
  match run_with_defrag false with
  | [[| _; Value.Int len |]] ->
      check Alcotest.bool "without defrag only the first fragment matches" true (len < 3000)
  | rows -> Alcotest.failf "no-defrag: expected one row, got %d" (List.length rows)

(* --------------------------- FROM subqueries ---------------------------- *)

let test_from_subquery () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1 80 "aaaa";
      tcp_pkt 1.5 "10.0.0.1" "10.0.0.2" 1 22 "bb";
      tcp_pkt 2.0 "10.0.0.1" "10.0.0.2" 1 80 "c";
    ];
  (match
     E.install_query engine ~name:"subq"
       {| SELECT tb, count(*) as c, sum(data_length) as s
          FROM (SELECT time, data_length FROM eth0.tcp WHERE destport = 80) web
          GROUP BY time/10 as tb |}
   with
  | Ok inst ->
      (* the hoisted helper is registered too *)
      check Alcotest.bool "helper stream registered" true
        (Rts.Manager.find (E.manager engine) "_sub1_subq" <> None);
      ignore inst
  | Error e -> Alcotest.fail e);
  let rows = ref [] in
  Result.get_ok (E.on_tuple engine "subq" (fun t -> rows := Array.copy t :: !rows));
  (match E.run engine () with Ok _ -> () | Error e -> Alcotest.fail e);
  match !rows with
  | [[| Value.Int 0; Value.Int 2; Value.Int 5 |]] -> ()
  | rows -> Alcotest.failf "unexpected result rows (%d)" (List.length rows)

let test_nested_subqueries () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1 80 "x"] ;
  match
    E.install_query engine ~name:"deep"
      {| SELECT time
         FROM (SELECT time, destport
               FROM (SELECT time, destport, protocol FROM eth0.tcp) inner1
               WHERE protocol = 6) outer1
         WHERE destport = 80 |}
  with
  | Ok _ -> (
      let n = ref 0 in
      Result.get_ok (E.on_tuple engine "deep" (fun _ -> incr n));
      match E.run engine () with
      | Ok _ -> check Alcotest.int "row through two levels" 1 !n
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

(* --------------------------- engine error paths ------------------------- *)

let test_engine_unknown_interface () =
  let engine = E.create () in
  match E.install_query engine ~name:"nope" "SELECT time FROM ghost0.tcp" with
  | Error e -> check Alcotest.bool "names the interface" true
      (let rec has i = i + 6 <= String.length e && (String.sub e i 6 = "ghost0" || has (i+1)) in
       String.length e >= 6 && has 0)
  | Ok _ -> Alcotest.fail "unknown interface accepted"

let test_engine_unknown_protocol () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" [];
  match E.install_query engine ~name:"nope" "SELECT x FROM eth0.ghostproto" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown protocol accepted"

let test_engine_duplicate_query_name () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" [];
  (match E.install_query engine ~name:"dup" "SELECT time FROM eth0.tcp" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match E.install_query engine ~name:"dup2"
          {| DEFINE { query_name dup; } SELECT time FROM eth0.tcp |} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate query name accepted"

(* ------------------------ env knob fallback ----------------------------- *)

(* GIGASCOPE_PARALLEL / GIGASCOPE_BATCH are the CI matrix's hooks; a
   value that fails to parse must degrade to 1 loudly — silently voiding
   what the matrix claims to test is how configuration bugs hide. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* putenv cannot unset, so an originally-absent variable restores to
   [default] — "1" for the numeric knobs (behaviorally identical to
   absent: both default to 1), "" for GIGASCOPE_FAULTS (empty = off). *)
let with_env ?(default = "1") name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name (Option.value old ~default)) f

let capture_warnings f =
  let old_reporter = Logs.reporter () in
  let old_level = Logs.level () in
  let buf = Buffer.create 128 in
  let reporter =
    {
      Logs.report =
        (fun _src level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun s ->
                  if level = Logs.Warning then begin
                    Buffer.add_string buf s;
                    Buffer.add_char buf '\n'
                  end;
                  over ();
                  k ())
                fmt));
    }
  in
  Logs.set_reporter reporter;
  Logs.set_level (Some Logs.Warning);
  let restore () =
    Logs.set_reporter old_reporter;
    Logs.set_level old_level
  in
  let result = try f () with e -> restore (); raise e in
  restore ();
  (result, Buffer.contents buf)

(* An engine with no sources: run consults the knobs, then finds nothing
   to schedule — the cheapest way to exercise the fallback path. *)
let empty_run () =
  match E.run (E.create ()) () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_env_parallel_garbage_warns () =
  let (), warnings =
    capture_warnings (fun () -> with_env "GIGASCOPE_PARALLEL" "abc" empty_run)
  in
  check Alcotest.bool "warning names the variable and value" true
    (contains warnings "GIGASCOPE_PARALLEL" && contains warnings "abc")

let test_env_batch_negative_warns () =
  let (), warnings =
    capture_warnings (fun () -> with_env "GIGASCOPE_BATCH" "-3" empty_run)
  in
  check Alcotest.bool "warning names the variable and value" true
    (contains warnings "GIGASCOPE_BATCH" && contains warnings "-3")

let test_env_clean_value_silent () =
  (* GIGASCOPE_FAULTS is pinned off: an ambient chaos spec (make ci's
     chaos pass) legitimately logs a fault-injection notice, and this
     test is about the knob parsers staying quiet, not about faults. *)
  let (), warnings =
    capture_warnings (fun () ->
        with_env ~default:"" "GIGASCOPE_FAULTS" "" (fun () ->
            with_env "GIGASCOPE_PARALLEL" "2" (fun () ->
                with_env "GIGASCOPE_BATCH" " 8 " empty_run)))
  in
  check Alcotest.string "no warnings for parseable values" "" warnings

(* A custom stream of [n] tuples, all in one one-second epoch (ts = 1)
   with a distinct key k each, and [query] installed over it: an engine
   whose settings show in its metrics. *)
let ticks_engine ?default_capacity ?(n = 5000) query =
  let engine = E.create ?default_capacity () in
  let i = ref 0 in
  let field name order = { Rts.Schema.name; ty = Rts.Ty.Int; order } in
  Result.get_ok
    (E.add_custom_source engine ~name:"ticks"
       ~schema:
         (Rts.Schema.make
            [
              field "ts" (Rts.Order_prop.Monotone Rts.Order_prop.Asc);
              field "k" Rts.Order_prop.Unordered;
            ])
       ~pull:(fun () ->
         if !i >= n then None
         else begin
           incr i;
           Some (Rts.Item.Tuple [| Value.Int 1; Value.Int !i |])
         end)
       ~clock:(fun () -> [ (0, Value.Int 1) ]));
  (match E.install_program engine query with Ok _ -> () | Error e -> Alcotest.fail e);
  engine

let select_ticks = "DEFINE { query_name sel; } SELECT ts, k FROM ticks"

let count_ticks =
  "DEFINE { query_name per_key; } SELECT tb, k, count(*) as c FROM ticks GROUP BY ts/1 as tb, k"

let run_ok engine f =
  match f engine with Ok _ -> Metrics.snapshot (E.metrics engine) | Error e -> Alcotest.fail e

let with_prefix prefix snap =
  List.filter (fun (name, _) -> String.starts_with ~prefix name) snap

let gauge snap name =
  match Metrics.find snap name with
  | Some (Metrics.Gauge v) -> int_of_float v
  | _ -> Alcotest.failf "no gauge %s" name

let counter snap name =
  match Metrics.find snap name with
  | Some (Metrics.Counter n) -> n
  | _ -> Alcotest.failf "no counter %s" name

let shed_total snap =
  List.fold_left
    (fun acc (_, v) -> match v with Metrics.Counter c -> acc + c | _ -> acc)
    0 (with_prefix "rts.shed." snap)

let watchdog_trips engine =
  List.fold_left
    (fun acc node -> acc + Rts.Node.watchdog_trips node)
    0
    (Rts.Manager.nodes (E.manager engine))

(* An explicit argument goes through the same check as its variable: a
   shed fraction of 0 would shed every tuple that finds its channel
   non-empty. *)
let test_explicit_shed_zero_warns () =
  let engine = ticks_engine select_ticks in
  let snap, warnings =
    capture_warnings (fun () -> run_ok engine (fun e -> E.run e ~shed:0.0 ()))
  in
  check Alcotest.bool "warning names shed" true (contains warnings "shed=0");
  check Alcotest.bool "rts.shed.* counters exist" true (with_prefix "rts.shed." snap <> []);
  check Alcotest.int "nothing shed" 0 (shed_total snap)

(* The epoch's 5,000 groups stay open until Eof: more than half the
   certified bound (4,096 keys per open epoch), well under 2.5 times
   it, so a slack of 0.5 would trip the watchdog. *)
let test_bad_state_slack () =
  let engine = ticks_engine count_ticks in
  let _, warnings =
    capture_warnings (fun () -> run_ok engine (fun e -> E.run e ~state_slack:0.5 ()))
  in
  check Alcotest.bool "slack 0.5 warns naming state_slack" true
    (contains warnings "state_slack=0.5");
  check Alcotest.int "watchdog left disarmed" 0 (watchdog_trips engine)

let test_valid_state_slack () =
  let engine = ticks_engine count_ticks in
  let _, warnings =
    capture_warnings (fun () ->
        with_env ~default:"" "GIGASCOPE_FAULTS" "" (fun () ->
            run_ok engine (fun e -> E.run e ~state_slack:2.5 ())))
  in
  check Alcotest.string "slack 2.5 stays silent" "" warnings;
  check Alcotest.int "slack 2.5 does not trip" 0 (watchdog_trips engine)

(* The default replaces a bad value, not the variable: under
   GIGASCOPE_PARALLEL=2 an explicit 0 still runs on one domain. *)
let test_explicit_zero_batch_parallel () =
  let engine = ticks_engine select_ticks in
  let snap, warnings =
    capture_warnings (fun () -> run_ok engine (fun e -> E.run e ~batch:0 ~parallel:0 ()))
  in
  check Alcotest.bool "batch=0 warns" true (contains warnings "batch=0");
  check Alcotest.bool "parallel=0 warns" true (contains warnings "parallel=0");
  check Alcotest.int "batch 1" 1 (gauge snap "rts.scheduler.batch");
  check Alcotest.int "one domain" 1 (gauge snap "rts.scheduler.domains")

(* A channel capacity below 1 used to fail the next install with
   Ring.create's Invalid_argument, and a quantum below 1 to wedge the
   scheduler: both now warn by name and take their default. *)
let test_explicit_default_capacity_checked () =
  List.iter
    (fun cap ->
      let engine, warnings =
        capture_warnings (fun () -> ticks_engine ~default_capacity:cap ~n:100 select_ticks)
      in
      check Alcotest.bool
        (Printf.sprintf "default_capacity=%d warns" cap)
        true
        (contains warnings (Printf.sprintf "default_capacity=%d" cap));
      let snap = run_ok engine (fun e -> E.run e ()) in
      check Alcotest.int "every tuple selected" 100 (counter snap "rts.node.sel.tuples_out"))
    [ 0; -5 ]

let test_explicit_quantum_checked () =
  List.iter
    (fun quantum ->
      let engine = ticks_engine ~n:100 select_ticks in
      let snap, warnings =
        capture_warnings (fun () -> run_ok engine (fun e -> E.run e ~quantum ()))
      in
      check Alcotest.bool
        (Printf.sprintf "quantum=%d warns" quantum)
        true
        (contains warnings (Printf.sprintf "quantum=%d" quantum));
      check Alcotest.int "every tuple selected" 100 (counter snap "rts.node.sel.tuples_out"))
    [ 0; -5 ]

(* GIGASCOPE_SUPERVISE, _SHED, _LATENCY and _WATCHDOG are retired: each
   is set here to a value the engine once honoured, must be named in a
   warning, and must change nothing. *)
let test_retired_variables_warn () =
  let retired =
    [
      ("GIGASCOPE_SUPERVISE", "isolate");
      ("GIGASCOPE_SHED", "0.001");
      ("GIGASCOPE_LATENCY", "1");
      ("GIGASCOPE_WATCHDOG", "1.0");
    ]
  in
  let in_env body =
    List.fold_left (fun k (var, value) () -> with_env ~default:"" var value k) body retired ()
  in
  let (engine, snap), warnings =
    capture_warnings (fun () ->
        in_env (fun () ->
            let engine = ticks_engine count_ticks in
            (engine, run_ok engine (fun e -> E.run e ()))))
  in
  List.iter
    (fun (var, _) -> check Alcotest.bool (var ^ " named") true (contains warnings var))
    retired;
  check Alcotest.int "nothing shed" 0 (shed_total snap);
  check Alcotest.int "latency sampling off" 0 (gauge snap "rts.scheduler.latency_sample");
  check Alcotest.int "watchdog disarmed" 0 (watchdog_trips engine)

let test_misspelt_variable_warns () =
  let snap, warnings =
    capture_warnings (fun () ->
        with_env ~default:"" "GIGASCOPE_PARALLEL" "" (fun () ->
            with_env ~default:"" "GIGASCOPE_PARALEL" "2" (fun () ->
                let engine = ticks_engine select_ticks in
                run_ok engine (fun e -> E.run e ()))))
  in
  check Alcotest.bool "warning names the misspelt variable" true
    (contains warnings "GIGASCOPE_PARALEL");
  check Alcotest.int "one domain" 1 (gauge snap "rts.scheduler.domains")

let () =
  Alcotest.run "core"
    [
      ( "protocols",
        [
          Alcotest.test_case "tcp interpret" `Quick test_tcp_interpret;
          Alcotest.test_case "tcp over udp packet" `Quick test_tcp_interpret_udp_packet;
          Alcotest.test_case "non-ip skipped" `Quick test_interpret_non_ip;
          Alcotest.test_case "clock fields" `Quick test_clock_fields;
          masked_interpreters_agree;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "clean close" `Quick test_session_clean_close;
          Alcotest.test_case "rst close" `Quick test_session_rst_close;
          Alcotest.test_case "idle timeout" `Quick test_session_idle_timeout;
          Alcotest.test_case "half close stays open" `Quick test_session_half_close_stays_open;
          Alcotest.test_case "flush" `Quick test_session_flush;
          Alcotest.test_case "GSQL over sessions" `Quick test_session_source_gsql;
        ] );
      ("defrag", [Alcotest.test_case "defrag interface" `Quick test_defrag_interface]);
      ( "subqueries",
        [
          Alcotest.test_case "FROM subquery" `Quick test_from_subquery;
          Alcotest.test_case "nested subqueries" `Quick test_nested_subqueries;
        ] );
      ( "engine-errors",
        [
          Alcotest.test_case "unknown interface" `Quick test_engine_unknown_interface;
          Alcotest.test_case "unknown protocol" `Quick test_engine_unknown_protocol;
          Alcotest.test_case "duplicate query name" `Quick test_engine_duplicate_query_name;
        ] );
      ( "env-knobs",
        [
          Alcotest.test_case "garbage GIGASCOPE_PARALLEL warns" `Quick
            test_env_parallel_garbage_warns;
          Alcotest.test_case "negative GIGASCOPE_BATCH warns" `Quick test_env_batch_negative_warns;
          Alcotest.test_case "clean value stays silent" `Quick test_env_clean_value_silent;
          Alcotest.test_case "explicit shed 0 is checked" `Quick test_explicit_shed_zero_warns;
          Alcotest.test_case "bad state_slack warns and disarms" `Quick test_bad_state_slack;
          Alcotest.test_case "valid state_slack stays silent" `Quick test_valid_state_slack;
          Alcotest.test_case "explicit batch/parallel 0 checked" `Quick
            test_explicit_zero_batch_parallel;
          Alcotest.test_case "explicit default_capacity below 1 checked" `Quick
            test_explicit_default_capacity_checked;
          Alcotest.test_case "explicit quantum below 1 checked" `Quick
            test_explicit_quantum_checked;
          Alcotest.test_case "retired variables only warn" `Quick test_retired_variables_warn;
          Alcotest.test_case "misspelt GIGASCOPE_PARALEL warns" `Quick
            test_misspelt_variable_warns;
        ] );
    ]
