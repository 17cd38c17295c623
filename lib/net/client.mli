(** Client side of the network data plane: the application that
    "contacts the registry, obtains the FTA's output, and subscribes"
    (paper §3) — over a socket instead of shared memory.

    A connection is single-purpose after setup: [subscribe] turns it
    into a stream of items ({!next}/{!iter}), [publish] turns it into a
    tuple sink ({!send_batch}). [list] may be called any number of times
    before that.

    {!source} and {!add_remote_interface} close the loop for
    distribution: a subscribed connection exposed as an engine source
    lets one gsq process feed another — the first step toward running
    LFTAs and HFTAs on different hosts (the paper's two-level split,
    stretched across a network). *)

module Rts = Gigascope_rts

type t

type reconnect = {
  attempts : int;  (** redials before giving up *)
  base_delay : float;  (** seconds; doubles per attempt *)
  max_delay : float;  (** backoff ceiling, seconds *)
  jitter : float;  (** fraction of the backoff added at random *)
  seed : int;  (** jitter generator seed — same seed, same retry instants *)
}

val default_reconnect : reconnect
(** 5 attempts, 50 ms base, 2 s ceiling, 0.5 jitter, seed 0. *)

val connect :
  ?peer_name:string ->
  ?reconnect:reconnect ->
  ?idle_timeout:float ->
  ?metrics:Gigascope_obs.Metrics.t ->
  Addr.t ->
  (t, string) result
(** Dial, exchange [Hello] frames. The client's [Hello] carries
    [peer_name], repeated on every redial; by default a name of its
    own, ["gsq-client-<pid>.<n>"] for the process's [n]th client.

    With [reconnect], a connection lost {e while subscribed} is
    self-healed: redial with exponential backoff plus seeded jitter,
    then [Resume] with the client's position in the server's tuple
    sequence (tuples delivered plus tuples announced lost by earlier
    resumes) as the token — the server replays what it still holds and
    announces the rest, which {!next} surfaces once as an [Item.Gap].
    Counted under [net.reconnects] when [metrics] is given.

    With [idle_timeout] (seconds), a {!next} that sees no frame for
    that long fails with a timeout [Error] instead of blocking forever
    — the fix for clients hanging when the server host dies silently.
    Size it to a multiple of the server's heartbeat interval: a live
    but quiet server keeps the deadline fed with [Heartbeat] frames. *)

val list : t -> (Wire.query_info list, string) result

val subscribe : t -> string -> (Rts.Schema.t, string) result
(** Attach to the named query; returns its output schema and remembers
    the server's subscription id for later [Resume]. *)

val next : t -> (Rts.Item.t option, string) result
(** Next item of a subscribed stream, unbatching wire frames; [Ok None]
    after EOF (or a server [Bye]). [Heartbeat] frames are absorbed
    (counted under [net.heartbeats.recv]). [Error] on protocol
    violations or a lost connection — after the reconnect-and-resume
    loop, if one is configured, has given up. Items may include
    [Item.Gap n] markers for tuples lost to slow-consumer drops or
    across a resume, and [Item.Error] when the producer crashed. *)

val iter : t -> (Rts.Item.t -> unit) -> (unit, string) result
(** Drive {!next} to EOF. *)

val publish : t -> iface:string -> (Rts.Schema.t, string) result
(** Claim the named ingest interface; returns its schema. *)

val send_batch : t -> Rts.Batch.t -> (unit, string) result

val send_tuple : t -> Rts.Value.t array -> (unit, string) result

val finish : t -> (unit, string) result
(** End a published stream cleanly (an EOF-sealed empty batch). *)

val close : t -> unit

val source : t -> Rts.Node.source
(** View a subscribed connection as an engine source: [pull] yields
    tuples and punctuation and returns [None] at EOF; on a lost
    connection (after any configured reconnects) it yields one
    [Item.Error] and then [None] — the loss is explicit downstream and
    the engine never hangs; [clock] republishes the last punctuation
    bounds received, so heartbeats keep working across the wire. *)

val add_remote_interface :
  ?reconnect:reconnect ->
  ?idle_timeout:float ->
  Gigascope.Engine.t ->
  name:string ->
  Addr.t ->
  query:string ->
  (unit, string) result
(** Convenience: connect to [addr], subscribe to [query], and register
    the stream as source [name] (with the remote schema) on the local
    engine — one call to make a remote query's output locally
    queryable. *)
