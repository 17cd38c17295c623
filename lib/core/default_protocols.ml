module Rts = Gigascope_rts
module Gsql = Gigascope_gsql
module Bpf = Gigascope_bpf
module P = Gigascope_packet
module Packet = P.Packet
module Netflow = P.Netflow
module Value = Rts.Value
module Ty = Rts.Ty
module Schema = Rts.Schema
module Order_prop = Rts.Order_prop

type selection = { fields : int; copy_payload : Value.t array -> bool }

type t = {
  proto_name : string;
  catalog_entry : Gsql.Catalog.protocol;
  interpret_selected : selection -> Packet.t -> Value.t array option;
  interpret : Packet.t -> Value.t array option;
  clock_fields : (int * (float -> Value.t)) list;
}

let every_field = { fields = -1; copy_payload = (fun _ -> true) }

let selection_of_fields fields ~copy_payload =
  { fields = List.fold_left (fun m i -> m lor (1 lsl i)) 0 fields; copy_payload }

let mono = Order_prop.Monotone Order_prop.Asc
let un = Order_prop.Unordered

let fld name ty order = { Schema.name; ty; order }

let time_clock = [(0, fun ts -> Value.Int (int_of_float ts)); (1, fun ts -> Value.Float ts)]

(* The per-field interpretation functions of Section 2.2, one masked
   interpreter per Protocol: slot [k] is filled only when bit [k] of the
   selection is set, and stays [Null] otherwise. The payload slot is
   filled last, and only if [copy_payload] accepts the tuple built so
   far. Non-TCP transports read as 0 in the TCP-only fields. *)
let[@inline] has m k = m land (1 lsl k) <> 0

let zero = Value.Int 0
let ipv4 = Value.Int 4

let transport_payload = function
  | Packet.Tcp (_, p) | Packet.Udp (_, p) | Packet.Icmp (_, p) | Packet.Raw_transport p -> p

(* the time fields, slots 0 and 1 of every packet Protocol *)
let fill_time t m (pkt : Packet.t) =
  if has m 0 then t.(0) <- Value.Int (int_of_float pkt.Packet.ts);
  if has m 1 then t.(1) <- Value.Float pkt.Packet.ts

(* source and destination ports at [k] and [k + 1] *)
let fill_ports t m k transport =
  match transport with
  | Packet.Tcp (h, _) ->
      if has m k then t.(k) <- Value.Int h.P.Tcp.src_port;
      if has m (k + 1) then t.(k + 1) <- Value.Int h.P.Tcp.dst_port
  | Packet.Udp (h, _) ->
      if has m k then t.(k) <- Value.Int h.P.Udp.src_port;
      if has m (k + 1) then t.(k + 1) <- Value.Int h.P.Udp.dst_port
  | Packet.Icmp _ | Packet.Raw_transport _ ->
      if has m k then t.(k) <- zero;
      if has m (k + 1) then t.(k + 1) <- zero

(* data_length at [k], the payload at [k + 1] *)
let fill_payload t sel k transport =
  let payload = transport_payload transport in
  if has sel.fields k then t.(k) <- Value.Int (Bytes.length payload);
  if has sel.fields (k + 1) && sel.copy_payload t then
    t.(k + 1) <- Value.Str (Bytes.to_string payload)

let tcp =
  let schema =
    Schema.make
      [
        fld "time" Ty.Int mono;
        fld "timestamp" Ty.Float mono;
        fld "ipversion" Ty.Int un;
        fld "hdr_length" Ty.Int un;
        fld "tos" Ty.Int un;
        fld "len" Ty.Int un;
        fld "ident" Ty.Int un;
        fld "ttl" Ty.Int un;
        fld "protocol" Ty.Int un;
        fld "srcip" Ty.Ip un;
        fld "destip" Ty.Ip un;
        fld "srcport" Ty.Int un;
        fld "destport" Ty.Int un;
        fld "flags" Ty.Int un;
        fld "seq" Ty.Int un;
        fld "ack" Ty.Int un;
        fld "window" Ty.Int un;
        fld "data_length" Ty.Int un;
        fld "payload" Ty.Str un;
      ]
  in
  let bpf_fields =
    [
      ("ipversion", Bpf.Filter.Ip_version);
      ("hdr_length", Bpf.Filter.Ip_hdr_len);
      ("tos", Bpf.Filter.Ip_tos);
      ("len", Bpf.Filter.Ip_total_len);
      ("ident", Bpf.Filter.Ip_ident);
      ("ttl", Bpf.Filter.Ip_ttl);
      ("protocol", Bpf.Filter.Ip_protocol);
      ("srcip", Bpf.Filter.Ip_src);
      ("destip", Bpf.Filter.Ip_dst);
      ("srcport", Bpf.Filter.Src_port);
      ("destport", Bpf.Filter.Dst_port);
      ("flags", Bpf.Filter.Tcp_flags);
    ]
  in
  let interpret_selected sel (pkt : Packet.t) =
    match pkt.Packet.net with
    | Packet.Non_ip _ -> None
    | Packet.Ipv4 (ip, transport) ->
        let m = sel.fields in
        let t = Array.make 19 Value.Null in
        fill_time t m pkt;
        if has m 2 then t.(2) <- ipv4;
        if has m 3 then t.(3) <- Value.Int (P.Ipv4.header_len ip);
        if has m 4 then t.(4) <- Value.Int ip.P.Ipv4.tos;
        if has m 5 then t.(5) <- Value.Int ip.P.Ipv4.total_len;
        if has m 6 then t.(6) <- Value.Int ip.P.Ipv4.ident;
        if has m 7 then t.(7) <- Value.Int ip.P.Ipv4.ttl;
        if has m 8 then t.(8) <- Value.Int ip.P.Ipv4.protocol;
        if has m 9 then t.(9) <- Value.Ip ip.P.Ipv4.src;
        if has m 10 then t.(10) <- Value.Ip ip.P.Ipv4.dst;
        fill_ports t m 11 transport;
        (match transport with
        | Packet.Tcp (h, _) ->
            if has m 13 then t.(13) <- Value.Int (P.Tcp.flags_to_int h.P.Tcp.flags);
            if has m 14 then t.(14) <- Value.Int h.P.Tcp.seq;
            if has m 15 then t.(15) <- Value.Int h.P.Tcp.ack_seq;
            if has m 16 then t.(16) <- Value.Int h.P.Tcp.window
        | Packet.Udp _ | Packet.Icmp _ | Packet.Raw_transport _ ->
            for k = 13 to 16 do
              if has m k then t.(k) <- zero
            done);
        fill_payload t sel 17 transport;
        Some t
  in
  {
    proto_name = "tcp";
    catalog_entry = { Gsql.Catalog.schema; bpf_fields; payload_fields = ["payload"] };
    interpret_selected;
    interpret = interpret_selected every_field;
    clock_fields = time_clock;
  }

let udp =
  let schema =
    Schema.make
      [
        fld "time" Ty.Int mono;
        fld "timestamp" Ty.Float mono;
        fld "ipversion" Ty.Int un;
        fld "len" Ty.Int un;
        fld "ttl" Ty.Int un;
        fld "protocol" Ty.Int un;
        fld "srcip" Ty.Ip un;
        fld "destip" Ty.Ip un;
        fld "srcport" Ty.Int un;
        fld "destport" Ty.Int un;
        fld "data_length" Ty.Int un;
        fld "payload" Ty.Str un;
      ]
  in
  let bpf_fields =
    [
      ("ipversion", Bpf.Filter.Ip_version);
      ("len", Bpf.Filter.Ip_total_len);
      ("ttl", Bpf.Filter.Ip_ttl);
      ("protocol", Bpf.Filter.Ip_protocol);
      ("srcip", Bpf.Filter.Ip_src);
      ("destip", Bpf.Filter.Ip_dst);
      ("srcport", Bpf.Filter.Src_port);
      ("destport", Bpf.Filter.Dst_port);
    ]
  in
  let interpret_selected sel (pkt : Packet.t) =
    match pkt.Packet.net with
    | Packet.Non_ip _ -> None
    | Packet.Ipv4 (ip, transport) ->
        let m = sel.fields in
        let t = Array.make 12 Value.Null in
        fill_time t m pkt;
        if has m 2 then t.(2) <- ipv4;
        if has m 3 then t.(3) <- Value.Int ip.P.Ipv4.total_len;
        if has m 4 then t.(4) <- Value.Int ip.P.Ipv4.ttl;
        if has m 5 then t.(5) <- Value.Int ip.P.Ipv4.protocol;
        if has m 6 then t.(6) <- Value.Ip ip.P.Ipv4.src;
        if has m 7 then t.(7) <- Value.Ip ip.P.Ipv4.dst;
        fill_ports t m 8 transport;
        fill_payload t sel 10 transport;
        Some t
  in
  {
    proto_name = "udp";
    catalog_entry = { Gsql.Catalog.schema; bpf_fields; payload_fields = ["payload"] };
    interpret_selected;
    interpret = interpret_selected every_field;
    clock_fields = time_clock;
  }

let ip =
  let schema =
    Schema.make
      [
        fld "time" Ty.Int mono;
        fld "timestamp" Ty.Float mono;
        fld "ipversion" Ty.Int un;
        fld "hdr_length" Ty.Int un;
        fld "len" Ty.Int un;
        fld "ident" Ty.Int un;
        fld "frag_offset" Ty.Int un;
        fld "more_fragments" Ty.Int un;
        fld "ttl" Ty.Int un;
        fld "protocol" Ty.Int un;
        fld "srcip" Ty.Ip un;
        fld "destip" Ty.Ip un;
        fld "data_length" Ty.Int un;
      ]
  in
  let bpf_fields =
    [
      ("ipversion", Bpf.Filter.Ip_version);
      ("hdr_length", Bpf.Filter.Ip_hdr_len);
      ("len", Bpf.Filter.Ip_total_len);
      ("ident", Bpf.Filter.Ip_ident);
      ("frag_offset", Bpf.Filter.Ip_frag_offset);
      ("ttl", Bpf.Filter.Ip_ttl);
      ("protocol", Bpf.Filter.Ip_protocol);
      ("srcip", Bpf.Filter.Ip_src);
      ("destip", Bpf.Filter.Ip_dst);
    ]
  in
  let interpret_selected sel (pkt : Packet.t) =
    match pkt.Packet.net with
    | Packet.Non_ip _ -> None
    | Packet.Ipv4 (ip_h, transport) ->
        let m = sel.fields in
        let t = Array.make 13 Value.Null in
        fill_time t m pkt;
        if has m 2 then t.(2) <- ipv4;
        if has m 3 then t.(3) <- Value.Int (P.Ipv4.header_len ip_h);
        if has m 4 then t.(4) <- Value.Int ip_h.P.Ipv4.total_len;
        if has m 5 then t.(5) <- Value.Int ip_h.P.Ipv4.ident;
        if has m 6 then t.(6) <- Value.Int ip_h.P.Ipv4.frag_offset;
        if has m 7 then t.(7) <- (if ip_h.P.Ipv4.more_fragments then Value.Int 1 else zero);
        if has m 8 then t.(8) <- Value.Int ip_h.P.Ipv4.ttl;
        if has m 9 then t.(9) <- Value.Int ip_h.P.Ipv4.protocol;
        if has m 10 then t.(10) <- Value.Ip ip_h.P.Ipv4.src;
        if has m 11 then t.(11) <- Value.Ip ip_h.P.Ipv4.dst;
        if has m 12 then t.(12) <- Value.Int (Bytes.length (transport_payload transport));
        Some t
  in
  {
    proto_name = "ip";
    catalog_entry = { Gsql.Catalog.schema; bpf_fields; payload_fields = [] };
    interpret_selected;
    interpret = interpret_selected every_field;
    clock_fields = time_clock;
  }

let all = [tcp; udp; ip]

let register catalog =
  List.iter
    (fun p -> Gsql.Catalog.add_protocol catalog ~name:p.proto_name p.catalog_entry)
    all

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun p -> p.proto_name = name) all

let netflow_schema =
  Schema.make
    [
      fld "srcip" Ty.Ip un;
      fld "destip" Ty.Ip un;
      fld "srcport" Ty.Int un;
      fld "destport" Ty.Int un;
      fld "protocol" Ty.Int un;
      fld "packets" Ty.Int un;
      fld "octets" Ty.Int un;
      fld "start_time" Ty.Int (Order_prop.Banded (Order_prop.Asc, 30.0));
      fld "end_time" Ty.Int mono;
      fld "flags" Ty.Int un;
    ]

let netflow_tuple (r : Netflow.t) =
  [|
    Value.Ip r.Netflow.src;
    Value.Ip r.Netflow.dst;
    Value.Int r.Netflow.src_port;
    Value.Int r.Netflow.dst_port;
    Value.Int r.Netflow.protocol;
    Value.Int r.Netflow.packets;
    Value.Int r.Netflow.octets;
    Value.Int (int_of_float r.Netflow.start_ts);
    Value.Int (int_of_float r.Netflow.end_ts);
    Value.Int r.Netflow.tcp_flags;
  |]
