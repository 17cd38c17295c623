(** Whole-packet composition and interpretation.

    A captured packet carries a timestamp, the length seen on the wire, and
    the (possibly snap-length-truncated) bytes that were captured. Decoding
    interprets the layers; building produces wire bytes from typed headers.
    This is the "library of interpretation functions" that Gigascope's
    Protocol schemas bind field names to. *)

type transport =
  | Tcp of Tcp.t * bytes  (** header and captured payload *)
  | Udp of Udp.t * bytes
  | Icmp of Icmp.t * bytes
  | Raw_transport of bytes  (** unknown IP protocol: undecoded bytes *)

type network =
  | Ipv4 of Ipv4.t * transport
  | Non_ip of bytes  (** non-IPv4 ethertype: undecoded bytes *)

type t = {
  ts : float;  (** capture timestamp, seconds *)
  wire_len : int;  (** length on the wire *)
  eth : Ethernet.t;
  net : network;
}

val default_mac_src : int
val default_mac_dst : int

(** {1 Building} *)

val tcp :
  ?ts:float ->
  ?seq:int ->
  ?ack_seq:int ->
  ?flags:Tcp.flags ->
  ?window:int ->
  ?ttl:int ->
  ?ident:int ->
  src:Ipaddr.t ->
  dst:Ipaddr.t ->
  src_port:int ->
  dst_port:int ->
  payload:bytes ->
  unit ->
  t

val udp :
  ?ts:float ->
  ?ttl:int ->
  ?ident:int ->
  src:Ipaddr.t ->
  dst:Ipaddr.t ->
  src_port:int ->
  dst_port:int ->
  payload:bytes ->
  unit ->
  t

val icmp :
  ?ts:float ->
  ?ttl:int ->
  ?code:int ->
  src:Ipaddr.t ->
  dst:Ipaddr.t ->
  icmp_type:int ->
  payload:bytes ->
  unit ->
  t

(** {1 Wire form} *)

val encode : t -> bytes
(** Full wire bytes of the packet (Ethernet frame). *)

val encoded_len : t -> int
(** [Bytes.length (encode t)], computed from the headers without building
    the frame. *)

val decode : ?ts:float -> ?wire_len:int -> bytes -> (t, string) result
(** Interpret captured bytes. [wire_len] defaults to the buffer length; when
    the capture was truncated by a snap length, pass the original length.
    Truncated payloads decode to however many bytes were captured. *)

val truncate : snap_len:int -> bytes -> bytes
(** Model a NIC snap length: keep at most [snap_len] bytes. *)

(** {1 Accessors used by protocol schemas} *)

val ip_header : t -> Ipv4.t option
val tcp_header : t -> Tcp.t option
val udp_header : t -> Udp.t option
val payload : t -> bytes
(** Transport payload bytes ([Bytes.empty] when not applicable). *)

val to_string : t -> string
