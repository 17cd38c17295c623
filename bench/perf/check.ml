(* Output checking and close-latency capture.

   Every subscriber tuple goes through a [sink]: a count, an
   order-sensitive running hash (byte-identity between two runs of the
   same packets) and an order-insensitive one (equality with the
   reference computation below, which does not share the engine's group
   order). Tuples of the epoch queries also record how long after the
   epoch's last packet they arrived.

   The tuple hash is computed from the values, not with [Hashtbl.hash]
   on the array, so that it survives a change in how [Value.t] is laid
   out in memory. *)

module Value = Gigascope_rts.Value
module Clock = Gigascope_obs.Clock
module Packet = Gigascope_packet.Packet
module Ipaddr = Gigascope_packet.Ipaddr

let mix h v =
  let h = (h lxor v) * 0x100000001b3 in
  h lxor (h lsr 29)

let value_hash = function
  | Value.Null -> 0x3c6ef372
  | Value.Bool b -> if b then 0x1f83d9ab else 0x5be0cd19
  | Value.Int n -> mix 1 n
  | Value.Float f -> mix 2 (Int64.to_int (Int64.bits_of_float f))
  | Value.Str s -> mix 3 (Hashtbl.hash s)
  | Value.Ip n -> mix 4 n
  | Value.Sketch _ -> 0x6a09e667

let tuple_hash t = Array.fold_left (fun h v -> mix h (value_hash v)) 0x2545f491 t

type digest = { count : int; ordered : int; bag : int }

(* Per-epoch clocks shared by the feed (writer) and the sinks (readers):
   [closing.(e)] is when epoch [e0 + e]'s last packet was handed to the
   engine (flat-out) or was due (paced). A result of epoch [e] can only
   exist after a later packet or EOF closed it, and it reaches the sink
   through a channel, so the write is visible by then. *)
type epochs = { e0 : int; closing : float array }

let epochs ~e0 ~n = { e0; closing = Array.make n nan }

type sink = {
  query : string;
  ep : epochs;
  timed : bool;  (** column 0 is the epoch [tb] *)
  mutable count : int;
  mutable ordered : int;
  mutable bag : int;
  mutable gaps : int;
  mutable lat : float array;  (** ns, one per timed tuple *)
  mutable nlat : int;
  first : float array;  (** per epoch: arrival of its first / last result *)
  last : float array;
}

let sink ~query ~timed ep =
  let n = Array.length ep.closing in
  {
    query;
    ep;
    timed;
    count = 0;
    ordered = 0x2545f491;
    bag = 0;
    gaps = 0;
    lat = Array.make 1024 0.0;
    nlat = 0;
    first = Array.make n nan;
    last = Array.make n nan;
  }

let record s tuple ~now =
  let h = tuple_hash tuple in
  s.count <- s.count + 1;
  s.ordered <- mix s.ordered h;
  s.bag <- s.bag + h;
  if s.timed then
    match tuple.(0) with
    | Value.Int tb ->
        let e = tb - s.ep.e0 in
        (* The last epoch is closed by the end of the input, which a
           live stream does not have: over ten seeds its share of the
           results moved e2_local's median close latency by a third. *)
        if e >= 0 && e < Array.length s.ep.closing - 1 then begin
          let c = s.ep.closing.(e) in
          if Float.is_finite c then begin
            if s.nlat = Array.length s.lat then begin
              let grown = Array.make (2 * s.nlat) 0.0 in
              Array.blit s.lat 0 grown 0 s.nlat;
              s.lat <- grown
            end;
            s.lat.(s.nlat) <- now -. c;
            s.nlat <- s.nlat + 1;
            if Float.is_nan s.first.(e) then s.first.(e) <- now;
            s.last.(e) <- now
          end
        end
    | _ -> ()

let observe s tuple = record s tuple ~now:(Clock.now_ns ())

let digest s = { count = s.count; ordered = s.ordered; bag = s.bag }

(* Sorted close latencies of all sinks, in ns. *)
let latencies sinks =
  let all = Array.concat (List.map (fun s -> Array.sub s.lat 0 s.nlat) sinks) in
  Array.sort Float.compare all;
  all

(* Per epoch, over all sinks: from the epoch's last packet to its first
   result, and from its first result to its last. *)
let close_spans sinks =
  match sinks with
  | [] -> ([||], [||])
  | s0 :: _ ->
      let n = Array.length s0.ep.closing in
      let first = ref [] and span = ref [] in
      for e = 0 to n - 1 do
        (* a sink with no result in epoch [e] holds nan there *)
        let lo = List.fold_left (fun a s -> if s.first.(e) < a then s.first.(e) else a) infinity sinks in
        let hi = List.fold_left (fun a s -> if s.last.(e) > a then s.last.(e) else a) neg_infinity sinks in
        if Float.is_finite lo then begin
          first := (lo -. s0.ep.closing.(e)) :: !first;
          span := (hi -. lo) :: !span
        end
      done;
      let sorted l =
        let a = Array.of_list l in
        Array.sort Float.compare a;
        a
      in
      (sorted !first, sorted !span)

(* ---------------------------------------------------------------------- *)
(* The reference computation: the e2 queries and tcp_sel evaluated        *)
(* directly over the packets, with plain hash tables. It reads header     *)
(* fields from the decoded packet, not through the Protocol library.      *)

let http_first_line payload =
  let n = Bytes.length payload in
  let rec go i =
    if i + 6 > n then false
    else if Bytes.get payload i = '\n' then false
    else if Bytes.sub_string payload i 6 = "HTTP/1" then true
    else go (i + 1)
  in
  go 0

let bump tbl key f init =
  match Hashtbl.find_opt tbl key with
  | Some v -> Hashtbl.replace tbl key (f v)
  | None -> Hashtbl.replace tbl key (f init)

let reference ~queries ~packets =
  let port80 = Hashtbl.create 64 and http = Hashtbl.create 64 in
  let ports = Hashtbl.create 256 and subnets = Hashtbl.create 4096 in
  let flows = Hashtbl.create 65536 in
  let sel = ref (0, 0) in
  let mask16 = Ipaddr.prefix_mask 16 in
  Array.iter
    (fun (p : Packet.t) ->
      match (Packet.ip_header p, p.Packet.net) with
      | Some ip, Packet.Ipv4 (_, transport) ->
          let tb = int_of_float p.Packet.ts in
          let sport, dport, payload =
            match transport with
            | Packet.Tcp (h, pl) -> (h.Gigascope_packet.Tcp.src_port, h.Gigascope_packet.Tcp.dst_port, pl)
            | Packet.Udp (h, pl) -> (h.Gigascope_packet.Udp.src_port, h.Gigascope_packet.Udp.dst_port, pl)
            | Packet.Icmp (_, pl) | Packet.Raw_transport pl -> (0, 0, pl)
          in
          let open Gigascope_packet.Ipv4 in
          let len = ip.total_len in
          if ip.protocol = 6 && dport = 80 then begin
            bump port80 tb succ 0;
            if http_first_line payload then bump http tb succ 0
          end;
          bump ports (tb, dport) (fun (n, b) -> (n + 1, b + len)) (0, 0);
          bump subnets (tb, ip.src land mask16) succ 0;
          bump flows (tb, ip.src, ip.dst, sport, dport) (fun (n, b) -> (n + 1, b + len)) (0, 0);
          if ip.protocol = 6 then begin
            let h =
              tuple_hash
                Value.[| Int tb; Ip ip.src; Ip ip.dst; Int sport; Int dport; Int len |]
            in
            let n, b = !sel in
            sel := (n + 1, b + h)
          end
      | _ -> ())
    packets;
  let fold tbl tuple =
    Hashtbl.fold (fun k v (n, b) -> (n + 1, b + tuple_hash (tuple k v))) tbl (0, 0)
  in
  let expected = function
    | "e2_port80cnt" -> fold port80 (fun tb n -> Value.[| Int tb; Int n |])
    | "e2_http" -> fold http (fun tb n -> Value.[| Int tb; Int n |])
    | "e2_ports" -> fold ports (fun (tb, port) (n, b) -> Value.[| Int tb; Int port; Int n; Int b |])
    | "e2_subnets" -> fold subnets (fun (tb, net) n -> Value.[| Int tb; Ip net; Int n |])
    | "e2_flows" ->
        fold flows (fun (tb, s, d, sp, dp) (n, b) ->
            Value.[| Int tb; Ip s; Ip d; Int sp; Int dp; Int n; Int b |])
    | "tcp_sel" -> !sel
    | q -> invalid_arg ("no reference for query " ^ q)
  in
  List.map (fun q -> (q, expected q)) queries
