(** The built-in Protocol library.

    A Protocol maps field names to interpretation functions over captured
    packets (Section 2.2). These are the schemas the paper's examples use
    ([eth0.tcp] etc.), with ordering properties declared on the timestamp
    fields and the compiler hints (BPF lowering, payload fields) that let
    LFTAs be pushed toward the NIC.

    Note the paper's idiom: the [tcp] protocol interprets {e every} IPv4
    packet (TCP-specific fields are zero elsewhere), which is why queries
    write [WHERE ipversion = 4 and protocol = 6] explicitly.

    Each Protocol has one masked interpreter, {!t.interpret_selected}:
    an engine source runs it with the union of the fields its LFTAs
    read and copies a payload only for packets a payload-reading
    LFTA's guard accepts (DESIGN §23). {!t.interpret} is the same
    interpreter with every field selected. *)

module Rts = Gigascope_rts
module Gsql = Gigascope_gsql
module Packet = Gigascope_packet.Packet
module Netflow = Gigascope_packet.Netflow

(** Which fields an interpretation fills. Bit [i] of [fields] selects
    schema field [i]; an unselected slot holds [Value.Null]. The payload
    field, when selected, is filled last and only if [copy_payload]
    accepts the tuple built so far, every other selected field filled
    in. *)
type selection = {
  fields : int;
  copy_payload : Rts.Value.t array -> bool;
}

val every_field : selection
(** Every field, payload included. *)

val selection_of_fields : int list -> copy_payload:(Rts.Value.t array -> bool) -> selection

type t = {
  proto_name : string;
  catalog_entry : Gsql.Catalog.protocol;
  interpret_selected : selection -> Packet.t -> Rts.Value.t array option;
      (** the Protocol's masked interpreter. A selected field reads
          exactly as in {!interpret}; [None] exactly when {!interpret}
          gives [None]. It allocates the tuple, its [Some], the selected
          fields' values and the payload copy, nothing else. *)
  interpret : Packet.t -> Rts.Value.t array option;
      (** [interpret_selected every_field]: every field. [None]: the
          packet is outside this protocol's domain *)
  clock_fields : (int * (float -> Rts.Value.t)) list;
      (** time-derived fields and how a wall-clock reading maps into them —
          what a heartbeat punctuation publishes *)
}

val tcp : t
(** time, timestamp, ipversion, hdr_length, tos, len, ident, ttl, protocol,
    srcip, destip, srcport, destport, flags, seq, ack, window, data_length,
    payload. *)

val udp : t
val ip : t

val all : t list

val register : Gsql.Catalog.t -> unit
(** Install every built-in protocol into a catalog. *)

val find : string -> t option

(** {1 Netflow}

    Netflow sources deliver records, not packets; the schema is exposed for
    custom sources built with [Engine.add_custom_source]. *)

val netflow_schema : Rts.Schema.t
(** srcip, destip, srcport, destport, protocol, packets, octets,
    start_time (integer seconds, banded-increasing 30 s), end_time
    (integer seconds, increasing), flags. *)

val netflow_tuple : Netflow.t -> Rts.Value.t array
