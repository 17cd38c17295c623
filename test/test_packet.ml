(* Tests for the packet substrate: header codecs, checksums, whole-packet
   round trips, fragmentation/reassembly, pcap files, Netflow records. *)

module P = Gigascope_packet
module Bytes_util = P.Bytes_util
module Checksum = P.Checksum
module Ipaddr = P.Ipaddr
module Ethernet = P.Ethernet
module Ipv4 = P.Ipv4
module Tcp = P.Tcp
module Udp = P.Udp
module Icmp = P.Icmp
module Packet = P.Packet
module Frag = P.Frag
module Pcap = P.Pcap
module Netflow = P.Netflow
module Prng = Gigascope_util.Prng

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------------------------- Bytes_util ------------------------------- *)

let bytes_u16_roundtrip =
  qtest "u16 roundtrip" QCheck.(int_range 0 0xffff) (fun v ->
      let b = Bytes.create 2 in
      Bytes_util.set_u16 b 0 v;
      Bytes_util.get_u16 b 0 = v)

let bytes_u32_roundtrip =
  qtest "u32 roundtrip" QCheck.(int_range 0 0xffffffff) (fun v ->
      let b = Bytes.create 4 in
      Bytes_util.set_u32 b 0 v;
      Bytes_util.get_u32 b 0 = v)

let bytes_u48_roundtrip =
  qtest "u48 roundtrip" QCheck.(int_range 0 0xffffffffffff) (fun v ->
      let b = Bytes.create 6 in
      Bytes_util.set_u48 b 0 v;
      Bytes_util.get_u48 b 0 = v)

let test_bytes_endianness () =
  let b = Bytes.create 4 in
  Bytes_util.set_u32 b 0 0x01020304;
  check Alcotest.int "big-endian byte 0" 0x01 (Bytes_util.get_u8 b 0);
  check Alcotest.int "big-endian byte 3" 0x04 (Bytes_util.get_u8 b 3)

let test_hexdump () =
  let s = Bytes_util.hexdump (Bytes.of_string "AB\x00") in
  check Alcotest.bool "hexdump mentions bytes" true
    (String.length s > 0
    &&
    let has sub =
      let rec go i = i + String.length sub <= String.length s && (String.sub s i (String.length sub) = sub || go (i + 1)) in
      go 0
    in
    has "41" && has "42" && has "00")

(* ----------------------------- Checksum -------------------------------- *)

let test_checksum_rfc1071_example () =
  (* RFC 1071's worked example: 0001 f203 f4f5 f6f7 -> checksum 0x220d *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check Alcotest.int "rfc1071 example" 0x220d (Checksum.compute b 0 8)

let checksum_validates =
  qtest "filled-in checksum validates" QCheck.(list_of_size (Gen.int_range 4 64) (int_range 0 255))
    (fun byte_list ->
      (* even-length region with a 2-byte checksum slot at offset 0 *)
      let n = (List.length byte_list / 2 * 2) + 2 in
      let b = Bytes.make n '\000' in
      List.iteri (fun i v -> if i + 2 < n then Bytes_util.set_u8 b (i + 2) v) byte_list;
      let csum = Checksum.compute b 0 n in
      Bytes_util.set_u16 b 0 csum;
      Checksum.valid b 0 n)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x12\x34\x56" in
  (* trailing odd byte padded as high octet *)
  let sum = Checksum.sum16 b 0 3 in
  check Alcotest.int "odd trailing byte" (0x1234 + 0x5600) sum

(* ------------------------------ Ipaddr --------------------------------- *)

let ipaddr_roundtrip =
  qtest "parse/print roundtrip" QCheck.(int_range 0 0xffffffff) (fun ip ->
      Ipaddr.of_string (Ipaddr.to_string ip) = ip)

let test_ipaddr_parsing () =
  check Alcotest.int "basic" (Ipaddr.of_octets 10 0 0 1) (Ipaddr.of_string "10.0.0.1");
  check Alcotest.(option int) "bad octet" None (Ipaddr.of_string_opt "10.0.0.256");
  check Alcotest.(option int) "too few parts" None (Ipaddr.of_string_opt "10.0.0");
  check Alcotest.(option int) "garbage" None (Ipaddr.of_string_opt "a.b.c.d");
  check Alcotest.(option int) "empty octet" None (Ipaddr.of_string_opt "10..0.1")

let test_ipaddr_prefix () =
  check Alcotest.int "/8 mask" 0xff000000 (Ipaddr.prefix_mask 8);
  check Alcotest.int "/0 mask" 0 (Ipaddr.prefix_mask 0);
  check Alcotest.int "/32 mask" 0xffffffff (Ipaddr.prefix_mask 32);
  let prefix = Ipaddr.of_string "10.1.0.0" in
  check Alcotest.bool "in prefix" true
    (Ipaddr.in_prefix (Ipaddr.of_string "10.1.2.3") ~prefix ~len:16);
  check Alcotest.bool "outside prefix" false
    (Ipaddr.in_prefix (Ipaddr.of_string "10.2.2.3") ~prefix ~len:16);
  check Alcotest.(pair int int) "parse_prefix with len" (prefix, 16)
    (Ipaddr.parse_prefix "10.1.0.0/16");
  check Alcotest.(pair int int) "bare address is /32"
    (Ipaddr.of_string "1.2.3.4", 32)
    (Ipaddr.parse_prefix "1.2.3.4")

(* ----------------------------- Ethernet -------------------------------- *)

let test_ethernet_roundtrip () =
  let h = { Ethernet.dst = 0x112233445566; src = 0xaabbccddeeff; ethertype = 0x0800 } in
  let b = Bytes.create 14 in
  Ethernet.encode h b 0;
  match Ethernet.decode b 0 with
  | Ok h' ->
      check Alcotest.int "dst" h.Ethernet.dst h'.Ethernet.dst;
      check Alcotest.int "src" h.Ethernet.src h'.Ethernet.src;
      check Alcotest.int "ethertype" h.Ethernet.ethertype h'.Ethernet.ethertype
  | Error e -> Alcotest.fail e

let test_ethernet_truncated () =
  match Ethernet.decode (Bytes.create 10) 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected truncation error"

(* ------------------------------- Ipv4 ---------------------------------- *)

let arbitrary_ipv4 =
  QCheck.make
    (QCheck.Gen.map
       (fun (seed : int) ->
         let rng = Prng.create seed in
         Ipv4.make ~tos:(Prng.int rng 256) ~ident:(Prng.int rng 65536)
           ~dont_fragment:(Prng.bool rng) ~ttl:(1 + Prng.int rng 255)
           ~protocol:(Prng.int rng 256)
           ~src:(Prng.int rng 0x40000000)
           ~dst:(Prng.int rng 0x40000000)
           ~payload_len:(Prng.int rng 1000) ())
       QCheck.Gen.int)

let ipv4_roundtrip =
  qtest "ipv4 header roundtrip" arbitrary_ipv4 (fun h ->
      let b = Bytes.create (Ipv4.header_len h + 4) in
      Ipv4.encode h b 0;
      match Ipv4.decode b 0 with
      | Ok h' -> h = h'
      | Error _ -> false)

let test_ipv4_checksum_detects_corruption () =
  let h = Ipv4.make ~protocol:6 ~src:(Ipaddr.of_string "1.2.3.4") ~dst:(Ipaddr.of_string "5.6.7.8") ~payload_len:0 () in
  let b = Bytes.create 20 in
  Ipv4.encode h b 0;
  Bytes_util.set_u8 b 8 (Bytes_util.get_u8 b 8 lxor 0xff);
  match Ipv4.decode b 0 with
  | Error msg -> check Alcotest.bool "checksum error reported" true (msg = "ipv4: bad header checksum")
  | Ok _ -> Alcotest.fail "corruption not detected"

let test_ipv4_rejects_v6 () =
  let b = Bytes.make 20 '\000' in
  Bytes_util.set_u8 b 0 0x60;
  match Ipv4.decode b 0 with Error _ -> () | Ok _ -> Alcotest.fail "v6 accepted"

let test_ipv4_options () =
  let options = Bytes.of_string "\x01\x01\x01\x01" (* four NOPs *) in
  let h = Ipv4.make ~options ~protocol:17 ~src:1 ~dst:2 ~payload_len:8 () in
  check Alcotest.int "header len includes options" 24 (Ipv4.header_len h);
  let b = Bytes.create 24 in
  Ipv4.encode h b 0;
  match Ipv4.decode b 0 with
  | Ok h' -> check Alcotest.string "options preserved" "\x01\x01\x01\x01" (Bytes.to_string h'.Ipv4.options)
  | Error e -> Alcotest.fail e

let test_ipv4_bad_options_rejected () =
  Alcotest.check_raises "unaligned options" (Invalid_argument "Ipv4.make: bad options length")
    (fun () -> ignore (Ipv4.make ~options:(Bytes.create 3) ~protocol:6 ~src:1 ~dst:2 ~payload_len:0 ()))

(* ----------------------------- TCP / UDP ------------------------------- *)

let test_tcp_roundtrip () =
  let flags = { Tcp.no_flags with Tcp.syn = true; ack = true } in
  let h = Tcp.make ~seq:123456 ~ack_seq:654321 ~flags ~window:8192 ~src_port:4242 ~dst_port:80 () in
  let payload = Bytes.of_string "hello tcp" in
  let b = Bytes.create (20 + Bytes.length payload) in
  Tcp.encode h ~src_ip:1 ~dst_ip:2 ~payload b 0;
  match Tcp.decode b 0 ~avail:(Bytes.length b) with
  | Ok (h', off) ->
      check Alcotest.int "payload offset" 20 off;
      check Alcotest.int "src port" 4242 h'.Tcp.src_port;
      check Alcotest.int "seq" 123456 h'.Tcp.seq;
      check Alcotest.bool "syn" true h'.Tcp.flags.Tcp.syn;
      check Alcotest.bool "ack flag" true h'.Tcp.flags.Tcp.ack;
      check Alcotest.bool "fin clear" false h'.Tcp.flags.Tcp.fin
  | Error e -> Alcotest.fail e

let tcp_flags_roundtrip =
  qtest "tcp flags bits roundtrip" QCheck.(int_range 0 63) (fun bits ->
      Tcp.flags_to_int (Tcp.flags_of_int bits) = bits)

let test_tcp_checksum_valid () =
  (* end-to-end: the encoded segment plus pseudo-header sums to zero *)
  let h = Tcp.make ~src_port:1 ~dst_port:2 () in
  let payload = Bytes.of_string "data" in
  let seg_len = 20 + Bytes.length payload in
  let b = Bytes.create seg_len in
  Tcp.encode h ~src_ip:0x0a000001 ~dst_ip:0x0a000002 ~payload b 0;
  let total =
    Tcp.pseudo_sum ~src_ip:0x0a000001 ~dst_ip:0x0a000002 ~protocol:6 ~seg_len
    + Checksum.sum16 b 0 seg_len
  in
  check Alcotest.int "tcp checksum validates" 0 (Checksum.finish total)

let test_udp_roundtrip () =
  let h = { Udp.src_port = 53; dst_port = 5353; length = 0 } in
  let payload = Bytes.of_string "dns-ish" in
  let b = Bytes.create (8 + Bytes.length payload) in
  Udp.encode h ~src_ip:1 ~dst_ip:2 ~payload b 0;
  match Udp.decode b 0 ~avail:(Bytes.length b) with
  | Ok h' ->
      check Alcotest.int "src port" 53 h'.Udp.src_port;
      check Alcotest.int "length" 15 h'.Udp.length
  | Error e -> Alcotest.fail e

let test_icmp_roundtrip () =
  let h = { Icmp.icmp_type = Icmp.type_echo_request; code = 0; rest = 0xdead } in
  let b = Bytes.create 16 in
  Icmp.encode h ~payload:(Bytes.of_string "12345678") b 0;
  match Icmp.decode b 0 ~avail:16 with
  | Ok h' ->
      check Alcotest.int "type" 8 h'.Icmp.icmp_type;
      check Alcotest.int "rest" 0xdead h'.Icmp.rest;
      check Alcotest.bool "checksum valid" true (Checksum.valid b 0 16)
  | Error e -> Alcotest.fail e

(* ------------------------------ Packet --------------------------------- *)

let test_packet_tcp_roundtrip () =
  let payload = Bytes.of_string "GET / HTTP/1.1\r\n" in
  let pkt =
    Packet.tcp ~ts:12.5 ~src:(Ipaddr.of_string "10.0.0.1") ~dst:(Ipaddr.of_string "10.0.0.2")
      ~src_port:55555 ~dst_port:80 ~payload ()
  in
  let wire = Packet.encode pkt in
  match Packet.decode ~ts:12.5 wire with
  | Ok pkt' -> (
      match pkt'.Packet.net with
      | Packet.Ipv4 (ip, Packet.Tcp (tcp, pay)) ->
          check Alcotest.int "src ip" (Ipaddr.of_string "10.0.0.1") ip.Ipv4.src;
          check Alcotest.int "dst port" 80 tcp.Tcp.dst_port;
          check Alcotest.string "payload" (Bytes.to_string payload) (Bytes.to_string pay)
      | _ -> Alcotest.fail "wrong shape")
  | Error e -> Alcotest.fail e

let packet_roundtrip_random =
  qtest ~count:300 "random tcp/udp packets roundtrip" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let payload = Bytes.init (Prng.int rng 200) (fun _ -> Char.chr (Prng.int rng 256)) in
      let src = Prng.int rng 0x7fffffff and dst = Prng.int rng 0x7fffffff in
      let sp = Prng.int rng 65536 and dp = Prng.int rng 65536 in
      let pkt =
        if Prng.bool rng then Packet.tcp ~src ~dst ~src_port:sp ~dst_port:dp ~payload ()
        else Packet.udp ~src ~dst ~src_port:sp ~dst_port:dp ~payload ()
      in
      match Packet.decode (Packet.encode pkt) with
      | Ok pkt' -> Bytes.to_string (Packet.payload pkt') = Bytes.to_string payload
      | Error _ -> false)

let test_packet_snap_truncation () =
  let payload = Bytes.of_string (String.make 500 'x') in
  let pkt = Packet.tcp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 ~payload () in
  let wire = Packet.encode pkt in
  let snapped = Packet.truncate ~snap_len:100 wire in
  check Alcotest.int "truncated to snap" 100 (Bytes.length snapped);
  match Packet.decode ~wire_len:(Bytes.length wire) snapped with
  | Ok pkt' ->
      check Alcotest.int "wire length preserved" (Bytes.length wire) pkt'.Packet.wire_len;
      check Alcotest.bool "payload shortened" true (Bytes.length (Packet.payload pkt') < 500)
  | Error e -> Alcotest.fail e

let test_packet_non_ip () =
  let b = Bytes.make 20 '\000' in
  Bytes_util.set_u16 b 12 0x0806 (* ARP *);
  match Packet.decode b with
  | Ok { Packet.net = Packet.Non_ip _; _ } -> ()
  | Ok _ -> Alcotest.fail "expected Non_ip"
  | Error e -> Alcotest.fail e

let test_packet_accessors () =
  let pkt = Packet.udp ~src:1 ~dst:2 ~src_port:53 ~dst_port:99 ~payload:(Bytes.of_string "z") () in
  check Alcotest.bool "ip header present" true (Packet.ip_header pkt <> None);
  check Alcotest.bool "udp header present" true (Packet.udp_header pkt <> None);
  check Alcotest.bool "tcp header absent" true (Packet.tcp_header pkt = None)

(* ------------------------------- Frag ---------------------------------- *)

let test_fragment_and_reassemble () =
  let payload = Bytes.init 2000 (fun i -> Char.chr (i land 0xff)) in
  let pkt = Packet.udp ~ident:77 ~src:1 ~dst:2 ~src_port:9 ~dst_port:10 ~payload () in
  let frags = Frag.fragment ~mtu:576 pkt in
  check Alcotest.bool "fragmented into several" true (List.length frags > 1);
  (* each fragment is a valid packet *)
  List.iter
    (fun f ->
      match Packet.decode (Packet.encode f) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("fragment does not re-decode: " ^ e))
    frags;
  let r = Frag.create_reassembler () in
  let result = List.filter_map (Frag.push r) frags in
  match result with
  | [whole] ->
      check Alcotest.string "payload reassembled" (Bytes.to_string payload)
        (Bytes.to_string (Packet.payload whole));
      check Alcotest.int "nothing pending" 0 (Frag.pending r)
  | _ -> Alcotest.fail "expected exactly one reassembled packet"

let test_reassemble_out_of_order () =
  let payload = Bytes.init 1500 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let pkt = Packet.udp ~ident:5 ~src:3 ~dst:4 ~src_port:1 ~dst_port:2 ~payload () in
  let frags = Frag.fragment ~mtu:600 pkt in
  let r = Frag.create_reassembler () in
  let shuffled = List.rev frags in
  let result = List.filter_map (Frag.push r) shuffled in
  match result with
  | [whole] ->
      check Alcotest.string "out-of-order reassembly" (Bytes.to_string payload)
        (Bytes.to_string (Packet.payload whole))
  | _ -> Alcotest.fail "reassembly failed out of order"

let frag_roundtrip_random =
  qtest ~count:100 "fragment/reassemble roundtrip" QCheck.(pair small_int (int_range 1200 4000))
    (fun (seed, size) ->
      let rng = Prng.create seed in
      let payload = Bytes.init size (fun _ -> Char.chr (Prng.int rng 256)) in
      let mtu = 400 + Prng.int rng 800 in
      let pkt = Packet.udp ~ident:(Prng.int rng 60000) ~src:9 ~dst:8 ~src_port:1 ~dst_port:2 ~payload () in
      let frags = Frag.fragment ~mtu pkt in
      let r = Frag.create_reassembler () in
      match List.filter_map (Frag.push r) frags with
      | [whole] -> Bytes.to_string (Packet.payload whole) = Bytes.to_string payload
      | _ -> false)

let test_small_packet_not_fragmented () =
  let pkt = Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 ~payload:(Bytes.of_string "tiny") () in
  check Alcotest.int "passes through" 1 (List.length (Frag.fragment ~mtu:1500 pkt))

let test_df_not_fragmented () =
  let payload = Bytes.create 3000 in
  let pkt = Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 ~payload () in
  (* rebuild with DF set *)
  let pkt =
    match pkt.Packet.net with
    | Packet.Ipv4 (ip, t) -> { pkt with Packet.net = Packet.Ipv4 ({ ip with Ipv4.dont_fragment = true }, t) }
    | _ -> pkt
  in
  check Alcotest.int "DF respected" 1 (List.length (Frag.fragment ~mtu:576 pkt))

let test_reassembler_timeout () =
  let payload = Bytes.create 2000 in
  let pkt = Packet.udp ~ts:100.0 ~ident:3 ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 ~payload () in
  let frags = Frag.fragment ~mtu:576 pkt in
  let r = Frag.create_reassembler ~timeout:10.0 () in
  (* feed only the first fragment, then expire *)
  ignore (Frag.push r (List.hd frags));
  check Alcotest.int "one pending" 1 (Frag.pending r);
  check Alcotest.int "expired after timeout" 1 (Frag.expired r 200.0);
  check Alcotest.int "nothing pending" 0 (Frag.pending r)

(* ------------------------------- Pcap ---------------------------------- *)

let test_pcap_memory_roundtrip () =
  let records =
    [
      { Pcap.ts = 1.000001; orig_len = 100; data = Bytes.of_string "abcdef" };
      { Pcap.ts = 2.5; orig_len = 6; data = Bytes.of_string "ghijkl" };
    ]
  in
  match Pcap.decode_file (Pcap.encode_file records) with
  | Ok (hdr, records') ->
      check Alcotest.int "linktype" Pcap.linktype_ethernet hdr.Pcap.linktype;
      check Alcotest.int "record count" 2 (List.length records');
      let r0 = List.nth records' 0 in
      check (Alcotest.float 1e-5) "timestamp with microseconds" 1.000001 r0.Pcap.ts;
      check Alcotest.int "orig_len" 100 r0.Pcap.orig_len;
      check Alcotest.string "data" "abcdef" (Bytes.to_string r0.Pcap.data)
  | Error e -> Alcotest.fail e

let test_pcap_file_roundtrip () =
  let path = Filename.temp_file "gs_test" ".pcap" in
  let pkt1 = Packet.tcp ~ts:10.0 ~src:1 ~dst:2 ~src_port:1 ~dst_port:80 ~payload:(Bytes.of_string "x") () in
  let pkt2 = Packet.udp ~ts:11.0 ~src:3 ~dst:4 ~src_port:53 ~dst_port:53 ~payload:(Bytes.of_string "y") () in
  let w = Pcap.open_writer path in
  Pcap.write_packet w pkt1;
  Pcap.write_packet w pkt2;
  Pcap.close_writer w;
  (match Pcap.read_file path with
  | Ok (_, records) ->
      check Alcotest.int "two records" 2 (List.length records);
      let r = List.hd records in
      (match Packet.decode ~ts:r.Pcap.ts r.Pcap.data with
      | Ok pkt -> check Alcotest.bool "tcp decodes back" true (Packet.tcp_header pkt <> None)
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_pcap_snaplen_applied () =
  let path = Filename.temp_file "gs_snap" ".pcap" in
  let pkt = Packet.tcp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 ~payload:(Bytes.make 1000 'q') () in
  let w = Pcap.open_writer ~snaplen:96 path in
  Pcap.write_packet w pkt;
  Pcap.close_writer w;
  (match Pcap.read_file path with
  | Ok (hdr, [r]) ->
      check Alcotest.int "file snaplen" 96 hdr.Pcap.snaplen;
      check Alcotest.int "captured bytes" 96 (Bytes.length r.Pcap.data);
      check Alcotest.bool "orig_len larger" true (r.Pcap.orig_len > 96)
  | Ok _ -> Alcotest.fail "expected one record"
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_pcap_fold_file () =
  let path = Filename.temp_file "gs_fold" ".pcap" in
  let w = Pcap.open_writer path in
  for i = 1 to 5 do
    Pcap.write_packet w
      (Packet.udp ~ts:(float_of_int i) ~src:1 ~dst:2 ~src_port:1 ~dst_port:2
         ~payload:(Bytes.of_string "x") ())
  done;
  Pcap.close_writer w;
  (match Pcap.fold_file path ~init:0 ~f:(fun acc _ -> acc + 1) with
  | Ok n -> check Alcotest.int "folded all records" 5 n
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_pcap_bad_magic () =
  match Pcap.decode_file (Bytes.make 24 'z') with
  | Error msg -> check Alcotest.bool "magic error" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "bad magic accepted"

let test_pcap_truncated_record () =
  let good = Pcap.encode_file [{ Pcap.ts = 1.0; orig_len = 4; data = Bytes.of_string "abcd" }] in
  let cut = Bytes.sub good 0 (Bytes.length good - 2) in
  match Pcap.decode_file cut with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated record accepted"

(* Each malformed-input branch by its exact message: a capture file is
   untrusted input, and "which byte was wrong" is the whole diagnostic. *)

let expect_pcap_error what expected b =
  match Pcap.decode_file b with
  | Error msg -> check Alcotest.string what expected msg
  | Ok _ -> Alcotest.failf "%s: accepted" what

let test_pcap_truncated_global_header () =
  expect_pcap_error "empty file" "pcap: truncated global header" Bytes.empty;
  expect_pcap_error "header cut short" "pcap: truncated global header" (Bytes.make 23 '\x00')

let test_pcap_bad_magic_message () =
  let b = Bytes.make 24 '\x00' in
  (* the message echoes the magic as read from disk (little-endian) *)
  Bytes.set_int32_le b 0 0xdeadbeefl;
  expect_pcap_error "wrong magic value" "pcap: bad magic 0xdeadbeef" b

let test_pcap_truncated_record_header () =
  let good = Pcap.encode_file [ { Pcap.ts = 1.0; orig_len = 4; data = Bytes.of_string "abcd" } ] in
  (* keep the global header plus half a record header *)
  expect_pcap_error "record header cut" "pcap: truncated record header" (Bytes.sub good 0 (24 + 8))

let test_pcap_truncated_record_body () =
  let good = Pcap.encode_file [ { Pcap.ts = 1.0; orig_len = 4; data = Bytes.of_string "abcd" } ] in
  (* whole record header, body short of its declared caplen *)
  expect_pcap_error "record body cut" "pcap: truncated record body"
    (Bytes.sub good 0 (Bytes.length good - 2))

let test_pcap_read_file_missing () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "gsq-no-such-file.pcap" in
  (try Sys.remove path with Sys_error _ -> ());
  (match Pcap.read_file path with
  | Error msg -> check Alcotest.bool "error is tagged pcap:" true
      (String.length msg > 5 && String.sub msg 0 5 = "pcap:")
  | Ok _ -> Alcotest.fail "read a file that does not exist");
  match Pcap.fold_file path ~init:0 ~f:(fun n _ -> n + 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "folded a file that does not exist"

let test_pcap_big_endian_read () =
  (* hand-build a big-endian file: swapped magic *)
  let b = Bytes.make (24 + 16 + 2) '\000' in
  Bytes_util.set_u32 b 0 0xa1b2c3d4 (* big-endian on-disk = reader sees swapped *);
  Bytes_util.set_u16 b 4 2;
  Bytes_util.set_u16 b 6 4;
  Bytes_util.set_u32 b 16 65535;
  Bytes_util.set_u32 b 20 1;
  Bytes_util.set_u32 b 24 7 (* sec *);
  Bytes_util.set_u32 b 28 0;
  Bytes_util.set_u32 b 32 2 (* caplen *);
  Bytes_util.set_u32 b 36 2 (* origlen *);
  Bytes.set b 40 'h';
  Bytes.set b 41 'i';
  match Pcap.decode_file b with
  | Ok (hdr, [r]) ->
      check Alcotest.int "be snaplen" 65535 hdr.Pcap.snaplen;
      check (Alcotest.float 1e-9) "be ts" 7.0 r.Pcap.ts;
      check Alcotest.string "be data" "hi" (Bytes.to_string r.Pcap.data)
  | Ok _ -> Alcotest.fail "expected one record"
  | Error e -> Alcotest.fail e

(* ------------------------------ Netflow -------------------------------- *)

let sample_record =
  {
    Netflow.src = Ipaddr.of_string "10.0.0.1";
    dst = Ipaddr.of_string "10.0.0.2";
    src_port = 1234;
    dst_port = 80;
    protocol = 6;
    packets = 42;
    octets = 12345;
    start_ts = 1000.25;
    end_ts = 1010.75;
    tcp_flags = 0x1b;
  }

let test_netflow_roundtrip () =
  let boot_ts = 900.0 in
  let dg = Netflow.encode_datagram ~boot_ts [sample_record; { sample_record with Netflow.packets = 1 }] in
  match Netflow.decode_datagram ~boot_ts dg with
  | Ok [r1; r2] ->
      check Alcotest.int "src" sample_record.Netflow.src r1.Netflow.src;
      check Alcotest.int "packets" 42 r1.Netflow.packets;
      check Alcotest.int "packets 2" 1 r2.Netflow.packets;
      check (Alcotest.float 1e-3) "start ts ms precision" 1000.25 r1.Netflow.start_ts;
      check (Alcotest.float 1e-3) "end ts" 1010.75 r1.Netflow.end_ts;
      check Alcotest.int "flags" 0x1b r1.Netflow.tcp_flags
  | Ok _ -> Alcotest.fail "wrong record count"
  | Error e -> Alcotest.fail e

let test_netflow_too_many () =
  let records = List.init 31 (fun _ -> sample_record) in
  Alcotest.check_raises "31 records rejected"
    (Invalid_argument "Netflow.encode_datagram: more than 30 records") (fun () ->
      ignore (Netflow.encode_datagram ~boot_ts:0.0 records))

let test_netflow_truncated () =
  match Netflow.decode_datagram ~boot_ts:0.0 (Bytes.create 4) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated datagram accepted"

(* ---------------------------- encoded_len ------------------------------ *)

(* [encoded_len] must equal the length of the frame [encode] builds for
   every packet shape the engine meets: the constructors, fragments,
   non-IP frames, the traffic generator's packets (both modes), and
   packets decoded from a pcap capture, snapped ones included. *)
let packet_of_seed seed =
  let rng = Prng.create seed in
  let bytes n = Bytes.init n (fun _ -> Char.chr (Prng.int rng 256)) in
  let src = Prng.int rng 0x7fffffff and dst = Prng.int rng 0x7fffffff in
  let sp = Prng.int rng 65536 and dp = Prng.int rng 65536 in
  let built () =
    match Prng.int rng 5 with
    | 0 ->
        ("tcp", Packet.tcp ~src ~dst ~src_port:sp ~dst_port:dp ~payload:(bytes (Prng.int rng 1400)) ())
    | 1 ->
        ("udp", Packet.udp ~src ~dst ~src_port:sp ~dst_port:dp ~payload:(bytes (Prng.int rng 1400)) ())
    | 2 ->
        ( "icmp",
          Packet.icmp ~src ~dst ~icmp_type:Icmp.type_echo_request ~payload:(bytes (Prng.int rng 200)) () )
    | 3 ->
        let big =
          Packet.udp ~src ~dst ~src_port:sp ~dst_port:dp ~payload:(bytes (1500 + Prng.int rng 2500)) ()
        in
        let frags = Frag.fragment ~mtu:(576 + Prng.int rng 900) big in
        ("fragment", List.nth frags (Prng.int rng (List.length frags)))
    | _ -> (
        let b = bytes (Ethernet.header_len + Prng.int rng 100) in
        Bytes_util.set_u16 b 12 0x0806;
        match Packet.decode b with
        | Ok p -> ("non-ip", p)
        | Error e -> failwith e)
  in
  let generated () =
    let cfg =
      {
        Gigascope_traffic.Gen.default with
        seed;
        duration = 0.01;
        uniform_random = Prng.bool rng;
      }
    in
    let g = Gigascope_traffic.Gen.create cfg in
    let rec nth k last =
      match Gigascope_traffic.Gen.next g with
      | Some p when k > 0 -> nth (k - 1) (Some p)
      | Some p -> Some p
      | None -> last
    in
    match nth (Prng.int rng 50) None with
    | Some p -> ("gen", p)
    | None -> built ()
  in
  let label, p = if Prng.bool rng then generated () else built () in
  if Prng.int rng 3 > 0 then (label, p)
  else
    (* through a capture file, snapped at a random length *)
    let wire = Packet.encode p in
    let snaplen = Ethernet.header_len + Prng.int rng (Bytes.length wire) in
    let record = { Pcap.ts = 1.0; orig_len = Bytes.length wire; data = Packet.truncate ~snap_len:snaplen wire } in
    match Pcap.decode_file (Pcap.encode_file ~snaplen [ record ]) with
    | Ok (_, [ r ]) -> (
        match Packet.decode ~ts:r.Pcap.ts ~wire_len:r.Pcap.orig_len r.Pcap.data with
        | Ok p' -> (Printf.sprintf "%s via pcap, snap %d" label snaplen, p')
        | Error _ -> (label, p))
    | _ -> failwith "pcap roundtrip"

let encoded_len_law =
  qtest ~count:500 "encoded_len = length of encode"
    (QCheck.make ~print:(fun seed -> fst (packet_of_seed seed)) QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let _, p = packet_of_seed seed in
      Packet.encoded_len p = Bytes.length (Packet.encode p))

let () =
  Alcotest.run "packet"
    [
      ( "bytes",
        [
          bytes_u16_roundtrip;
          bytes_u32_roundtrip;
          bytes_u48_roundtrip;
          Alcotest.test_case "endianness" `Quick test_bytes_endianness;
          Alcotest.test_case "hexdump" `Quick test_hexdump;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_checksum_rfc1071_example;
          checksum_validates;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
        ] );
      ( "ipaddr",
        [
          ipaddr_roundtrip;
          Alcotest.test_case "parsing" `Quick test_ipaddr_parsing;
          Alcotest.test_case "prefixes" `Quick test_ipaddr_prefix;
        ] );
      ( "ethernet",
        [
          Alcotest.test_case "roundtrip" `Quick test_ethernet_roundtrip;
          Alcotest.test_case "truncated" `Quick test_ethernet_truncated;
        ] );
      ( "ipv4",
        [
          ipv4_roundtrip;
          Alcotest.test_case "checksum detects corruption" `Quick test_ipv4_checksum_detects_corruption;
          Alcotest.test_case "rejects v6" `Quick test_ipv4_rejects_v6;
          Alcotest.test_case "options" `Quick test_ipv4_options;
          Alcotest.test_case "bad options" `Quick test_ipv4_bad_options_rejected;
        ] );
      ( "tcp-udp-icmp",
        [
          Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
          tcp_flags_roundtrip;
          Alcotest.test_case "tcp checksum" `Quick test_tcp_checksum_valid;
          Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "icmp roundtrip" `Quick test_icmp_roundtrip;
        ] );
      ( "packet",
        [
          Alcotest.test_case "tcp roundtrip" `Quick test_packet_tcp_roundtrip;
          packet_roundtrip_random;
          Alcotest.test_case "snap truncation" `Quick test_packet_snap_truncation;
          Alcotest.test_case "non-ip" `Quick test_packet_non_ip;
          Alcotest.test_case "accessors" `Quick test_packet_accessors;
          encoded_len_law;
        ] );
      ( "frag",
        [
          Alcotest.test_case "fragment + reassemble" `Quick test_fragment_and_reassemble;
          Alcotest.test_case "out of order" `Quick test_reassemble_out_of_order;
          frag_roundtrip_random;
          Alcotest.test_case "small not fragmented" `Quick test_small_packet_not_fragmented;
          Alcotest.test_case "DF respected" `Quick test_df_not_fragmented;
          Alcotest.test_case "timeout eviction" `Quick test_reassembler_timeout;
        ] );
      ( "pcap",
        [
          Alcotest.test_case "memory roundtrip" `Quick test_pcap_memory_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_pcap_file_roundtrip;
          Alcotest.test_case "snaplen applied" `Quick test_pcap_snaplen_applied;
          Alcotest.test_case "fold_file" `Quick test_pcap_fold_file;
          Alcotest.test_case "bad magic" `Quick test_pcap_bad_magic;
          Alcotest.test_case "truncated record" `Quick test_pcap_truncated_record;
          Alcotest.test_case "truncated global header" `Quick test_pcap_truncated_global_header;
          Alcotest.test_case "bad magic message" `Quick test_pcap_bad_magic_message;
          Alcotest.test_case "truncated record header" `Quick test_pcap_truncated_record_header;
          Alcotest.test_case "truncated record body" `Quick test_pcap_truncated_record_body;
          Alcotest.test_case "missing file" `Quick test_pcap_read_file_missing;
          Alcotest.test_case "big-endian read" `Quick test_pcap_big_endian_read;
        ] );
      ( "netflow",
        [
          Alcotest.test_case "roundtrip" `Quick test_netflow_roundtrip;
          Alcotest.test_case "too many records" `Quick test_netflow_too_many;
          Alcotest.test_case "truncated" `Quick test_netflow_truncated;
        ] );
    ]
