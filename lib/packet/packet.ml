type transport =
  | Tcp of Tcp.t * bytes
  | Udp of Udp.t * bytes
  | Icmp of Icmp.t * bytes
  | Raw_transport of bytes

type network = Ipv4 of Ipv4.t * transport | Non_ip of bytes

type t = { ts : float; wire_len : int; eth : Ethernet.t; net : network }

let default_mac_src = 0x020000000001
let default_mac_dst = 0x020000000002

let default_eth =
  { Ethernet.dst = default_mac_dst; src = default_mac_src; ethertype = Ethernet.ethertype_ipv4 }

let wire_len_of ~ip = Ethernet.header_len + ip.Ipv4.total_len

let tcp ?(ts = 0.0) ?seq ?ack_seq ?flags ?window ?ttl ?ident ~src ~dst ~src_port ~dst_port
    ~payload () =
  let tcp_h = Tcp.make ?seq ?ack_seq ?flags ?window ~src_port ~dst_port () in
  let seg_len = Tcp.header_len tcp_h + Bytes.length payload in
  let ip =
    Ipv4.make ?ttl ?ident ~protocol:Ipv4.proto_tcp ~src ~dst ~payload_len:seg_len ()
  in
  { ts; wire_len = wire_len_of ~ip; eth = default_eth; net = Ipv4 (ip, Tcp (tcp_h, payload)) }

let udp ?(ts = 0.0) ?ttl ?ident ~src ~dst ~src_port ~dst_port ~payload () =
  let len = Udp.header_len + Bytes.length payload in
  let udp_h = { Udp.src_port; dst_port; length = len } in
  let ip = Ipv4.make ?ttl ?ident ~protocol:Ipv4.proto_udp ~src ~dst ~payload_len:len () in
  { ts; wire_len = wire_len_of ~ip; eth = default_eth; net = Ipv4 (ip, Udp (udp_h, payload)) }

let icmp ?(ts = 0.0) ?ttl ?(code = 0) ~src ~dst ~icmp_type ~payload () =
  let icmp_h = { Icmp.icmp_type; code; rest = 0 } in
  let len = Icmp.header_len + Bytes.length payload in
  let ip = Ipv4.make ?ttl ~protocol:Ipv4.proto_icmp ~src ~dst ~payload_len:len () in
  { ts; wire_len = wire_len_of ~ip; eth = default_eth; net = Ipv4 (ip, Icmp (icmp_h, payload)) }

let encoded_len t =
  match t.net with
  | Non_ip raw -> Ethernet.header_len + Bytes.length raw
  | Ipv4 (ip, _) -> wire_len_of ~ip

let encode t =
  let buf = Bytes.create (encoded_len t) in
  match t.net with
  | Non_ip raw ->
      Ethernet.encode t.eth buf 0;
      Bytes.blit raw 0 buf Ethernet.header_len (Bytes.length raw);
      buf
  | Ipv4 (ip, transport) ->
      Ethernet.encode t.eth buf 0;
      Ipv4.encode ip buf Ethernet.header_len;
      let l4_off = Ethernet.header_len + Ipv4.header_len ip in
      (match transport with
      | Tcp (h, payload) -> Tcp.encode h ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst ~payload buf l4_off
      | Udp (h, payload) -> Udp.encode h ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst ~payload buf l4_off
      | Icmp (h, payload) -> Icmp.encode h ~payload buf l4_off
      | Raw_transport raw -> Bytes.blit raw 0 buf l4_off (Bytes.length raw));
      buf

let ( let* ) = Result.bind

let decode ?(ts = 0.0) ?wire_len buf =
  let wire_len = match wire_len with Some l -> l | None -> Bytes.length buf in
  let* eth = Ethernet.decode buf 0 in
  if eth.Ethernet.ethertype <> Ethernet.ethertype_ipv4 then
    Ok
      {
        ts;
        wire_len;
        eth;
        net = Non_ip (Bytes.sub buf Ethernet.header_len (Bytes.length buf - Ethernet.header_len));
      }
  else
    let ip_off = Ethernet.header_len in
    let* ip = Ipv4.decode buf ip_off in
    let l4_off = ip_off + Ipv4.header_len ip in
    (* The captured (possibly snapped) extent of the L4 segment. *)
    let avail = min (Bytes.length buf) (ip_off + ip.Ipv4.total_len) - l4_off in
    if avail < 0 then Error "ipv4: header extends past capture"
    else if ip.Ipv4.frag_offset > 0 then
      (* Non-first fragment: no transport header present. *)
      Ok { ts; wire_len; eth; net = Ipv4 (ip, Raw_transport (Bytes.sub buf l4_off avail)) }
    else
      let* transport =
        if ip.Ipv4.protocol = Ipv4.proto_tcp then
          let* h, data_off = Tcp.decode buf l4_off ~avail in
          (* a corrupted data offset can point past the captured bytes;
             clamp so the (empty) payload slice stays in bounds *)
          let pay_avail = max 0 (avail - data_off) in
          let pay_off = l4_off + min data_off avail in
          Ok (Tcp (h, Bytes.sub buf pay_off pay_avail))
        else if ip.Ipv4.protocol = Ipv4.proto_udp then
          let* h = Udp.decode buf l4_off ~avail in
          Ok (Udp (h, Bytes.sub buf (l4_off + Udp.header_len) (max 0 (avail - Udp.header_len))))
        else if ip.Ipv4.protocol = Ipv4.proto_icmp then
          let* h = Icmp.decode buf l4_off ~avail in
          Ok (Icmp (h, Bytes.sub buf (l4_off + Icmp.header_len) (max 0 (avail - Icmp.header_len))))
        else Ok (Raw_transport (Bytes.sub buf l4_off avail))
      in
      Ok { ts; wire_len; eth; net = Ipv4 (ip, transport) }

let truncate ~snap_len buf =
  if Bytes.length buf <= snap_len then buf else Bytes.sub buf 0 snap_len

let ip_header t = match t.net with Ipv4 (ip, _) -> Some ip | Non_ip _ -> None

let tcp_header t =
  match t.net with Ipv4 (_, Tcp (h, _)) -> Some h | Ipv4 _ | Non_ip _ -> None

let udp_header t =
  match t.net with Ipv4 (_, Udp (h, _)) -> Some h | Ipv4 _ | Non_ip _ -> None

let payload t =
  match t.net with
  | Ipv4 (_, Tcp (_, p)) | Ipv4 (_, Udp (_, p)) | Ipv4 (_, Icmp (_, p))
  | Ipv4 (_, Raw_transport p) ->
      p
  | Non_ip _ -> Bytes.empty

let to_string t =
  let body =
    match t.net with
    | Non_ip _ -> "non-ip"
    | Ipv4 (ip, transport) ->
        let l4 =
          match transport with
          | Tcp (h, p) -> Printf.sprintf "%s payload=%dB" (Tcp.to_string h) (Bytes.length p)
          | Udp (h, p) -> Printf.sprintf "%s payload=%dB" (Udp.to_string h) (Bytes.length p)
          | Icmp (h, _) -> Icmp.to_string h
          | Raw_transport p -> Printf.sprintf "raw %dB" (Bytes.length p)
        in
        Printf.sprintf "%s | %s" (Ipv4.to_string ip) l4
  in
  Printf.sprintf "[%.6f] %s" t.ts body
