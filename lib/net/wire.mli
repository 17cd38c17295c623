(** The Gigascope wire protocol: a length-prefixed binary frame codec.

    This is the network analogue of the shared-memory ring buffers
    between FTAs (paper §2.2): the unit of transfer is a whole
    {!Gigascope_rts.Batch}, so a run of tuples costs one frame, and
    punctuation/EOF travel in-band as the batch's sealing control item —
    a remote subscriber sees exactly the item sequence a local
    {!Gigascope_rts.Manager.subscribe} channel carries.

    Frame layout (all integers big-endian):
    {v
      offset  size  field
      0       3     magic "GSW"
      3       1     protocol version (3)
      4       1     message type
      5       4     payload length (bounded by max_payload)
      9       n     payload
    v}

    Version 2 extends the batch frame with an optional latency-stamp
    column: after the control-item section, an unconditional flag byte
    (0 = absent, 1 = present) followed, when present, by one i64 ingest
    stamp per tuple (0 = unstamped). Version 3 adds the resume gap to
    [Subscribed]. Frames of an older version are rejected as [Corrupt] —
    both peers live in this repository.

    The codec is pure — encode and decode work over [bytes], no IO — and
    total: {!decode} never raises, whatever the input; malformed input
    yields [Corrupt], a partial frame yields [Need_more]. That contract
    is fuzz-tested (test/test_net.ml): a monitor's control port is
    attack surface just like its packet path. *)

module Schema = Gigascope_rts.Schema
module Value = Gigascope_rts.Value
module Item = Gigascope_rts.Item
module Batch = Gigascope_rts.Batch

val protocol_version : int

val header_len : int
(** Bytes before the payload: magic + version + type + length. *)

val max_payload : int
(** Upper bound on the payload length field (16 MiB). A frame claiming
    more is [Corrupt] — a decoder must never be talked into buffering
    unbounded data by a 4-byte header. *)

(** A listed query: its registered name, node kind ([source] / [lfta] /
    [hfta]) and output schema. *)
type query_info = { q_name : string; q_kind : string; q_schema : Schema.t }

type msg =
  | Hello of { version : int; peer : string }
      (** First frame in both directions. [peer] is a free-form
          identity string (diagnostics only). *)
  | List_queries
  | Queries of query_info list
  | Subscribe of string  (** attach to the named query's output stream *)
  | Subscribed of { name : string; schema : Schema.t; sub_id : int; gap : int }
      (** [sub_id] names the server-side egress queue; quote it in a
          [Resume] to re-attach to the same queue after a reconnect.
          [gap] is 0 in reply to [Subscribe]. In reply to [Resume] it is
          the number of tuples lost in flight since the client's
          position, or [-1] (unknown) when the queue could not be
          recovered and a fresh one, counting from 0, replaces it. *)
  | Publish of string  (** feed the named ingest interface *)
  | Publish_ok of { iface : string; schema : Schema.t }
  | Batch of Batch.t
      (** Data plane: tuples plus at most one sealing control item.
          EOF travels as a batch sealed by [Item.Eof]. The batch's
          latency-stamp column ({!Gigascope_rts.Batch.stamps}), when
          present, rides the frame and round-trips exactly. *)
  | Err of string
  | Bye  (** clean close *)
  | Resume of { name : string; sub_id : int; token : int }
      (** Re-attach to subscription [sub_id] of query [name] after a
          reconnect. [token] is the client's position in the queue's
          tuple sequence: tuples delivered plus tuples announced lost by
          earlier resumes. The server replays anything newer still in
          the egress queue and announces the rest in [Subscribed]'s
          [gap]. *)
  | Heartbeat
      (** Liveness probe. Carries no payload; either side may send it
          when a connection idles so the peer's read deadline keeps
          proving the link is alive. *)

val encode : msg -> bytes
(** A complete frame, header included. Raises [Invalid_argument] only if
    the message cannot fit in [max_payload] (e.g. a pathological string
    value); every message a running system produces encodes. *)

type decoded =
  | Frame of msg * int  (** decoded message and the offset just past it *)
  | Need_more  (** a prefix of a valid frame: read more bytes *)
  | Corrupt of string  (** not this protocol, or a malformed payload *)

val decode : bytes -> pos:int -> len:int -> decoded
(** Decode one frame from [bytes] within [\[pos, len)]. Total: returns
    [Corrupt] (never raises) on bad magic, unknown version or type,
    oversized length, truncated or trailing payload bytes, and any
    malformed payload content. *)

val msg_label : msg -> string
(** Short constructor name, for logs. *)
