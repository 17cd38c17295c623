(* Tests for the core facade: the built-in Protocol library's
   interpretation functions, TCP session extraction, the defragmenting
   interface, FROM-clause subqueries, and periodic heartbeats. *)

module E = Gigascope.Engine
module Sessions = Gigascope.Sessions
module DP = Gigascope.Default_protocols
module Rts = Gigascope_rts
module Value = Rts.Value
module P = Gigascope_packet
module Packet = P.Packet
module Tcp = P.Tcp
module Ipaddr = P.Ipaddr

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

(* ------------------------- periodic heartbeats -------------------------- *)

let test_periodic_heartbeats () =
  let schema =
    Rts.Schema.make
      [{ Rts.Schema.name = "ts"; ty = Rts.Ty.Int; order = Rts.Order_prop.Monotone Rts.Order_prop.Asc }]
  in
  let mgr = Rts.Manager.create () in
  let i = ref 0 in
  ignore
    (Result.get_ok
       (Rts.Manager.add_source mgr ~name:"s" ~schema
          {
            Rts.Node.pull =
              (fun () ->
                if !i >= 1000 then None
                else begin
                  incr i;
                  Some (Rts.Item.Tuple [| Value.Int !i |])
                end);
            clock = (fun () -> [(0, Value.Int !i)]);
          }));
  let puncts = ref 0 in
  Result.get_ok
    (Rts.Manager.on_item mgr "s" (function Rts.Item.Punct _ -> incr puncts | _ -> ()));
  (match Rts.Scheduler.run ~quantum:16 ~heartbeat_period:2 mgr with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "periodic punctuation flowed" true (!puncts > 5)

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

let test_env_supervise_garbage_warns () =
  (* the run must still converge under the default policy — a typo'd
     failure-model knob must never itself be a failure *)
  let (), warnings =
    capture_warnings (fun () ->
        with_env ~default:"" "GIGASCOPE_SUPERVISE" "eventually" empty_run)
  in
  check Alcotest.bool "warning names the variable" true
    (contains warnings "GIGASCOPE_SUPERVISE");
  check Alcotest.bool "warning names the fallback" true (contains warnings "fail_fast")

let test_env_watchdog_garbage_warns () =
  List.iter
    (fun bad ->
      let (), warnings =
        capture_warnings (fun () ->
            with_env ~default:"" "GIGASCOPE_WATCHDOG" bad empty_run)
      in
      check Alcotest.bool
        (Printf.sprintf "GIGASCOPE_WATCHDOG=%S warns and disarms" bad)
        true
        (contains warnings "GIGASCOPE_WATCHDOG" && contains warnings bad))
    [ "0.5" (* below the minimum slack *); "lots" ]

let test_env_watchdog_valid_silent () =
  let (), warnings =
    capture_warnings (fun () ->
        with_env ~default:"" "GIGASCOPE_FAULTS" "" (fun () ->
            with_env ~default:"" "GIGASCOPE_WATCHDOG" "2.5" empty_run))
  in
  check Alcotest.string "a legal slack stays silent" "" warnings

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
      ("heartbeats", [Alcotest.test_case "periodic mode" `Quick test_periodic_heartbeats]);
      ( "env-knobs",
        [
          Alcotest.test_case "garbage GIGASCOPE_PARALLEL warns" `Quick
            test_env_parallel_garbage_warns;
          Alcotest.test_case "negative GIGASCOPE_BATCH warns" `Quick test_env_batch_negative_warns;
          Alcotest.test_case "clean value stays silent" `Quick test_env_clean_value_silent;
          Alcotest.test_case "garbage GIGASCOPE_SUPERVISE warns" `Quick
            test_env_supervise_garbage_warns;
          Alcotest.test_case "bad GIGASCOPE_WATCHDOG warns and disarms" `Quick
            test_env_watchdog_garbage_warns;
          Alcotest.test_case "valid GIGASCOPE_WATCHDOG stays silent" `Quick
            test_env_watchdog_valid_silent;
        ] );
    ]
