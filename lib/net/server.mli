(** The stream-manager server: the paper's registry as a network service.

    "An application that wants to access Gigascope data contacts the
    registry, obtains the FTA's output, and subscribes" (§3). This
    module is that registry made long-lived and remote: it listens on
    Unix-domain and/or TCP sockets, maps query names to the live
    {!Gigascope_rts.Manager} nodes of one engine, and streams each
    subscribed query's output — as {!Wire} batch frames — to any number
    of remote subscribers.

    {b Threading.} Each listener runs an accept loop on its own thread;
    each connection gets a handler thread. Subscriber egress is
    decoupled from the packet path by a bounded per-subscriber queue of
    the engine's own batches: the engine-side fanout callback only
    enqueues each batch it is handed (applying the slow-consumer
    policy), and the connection's own thread drains the queue to the
    socket, one wire batch per run of queued batches. A stuck TCP peer therefore never stalls the
    scheduler — unless the [Block] policy is chosen deliberately.

    {b Robustness.} A malformed frame, oversized frame, or half-written
    tail kills that connection only; the accept loop survives transient
    errors; every socket error is an [Error]/log, never an exception
    escaping a thread. *)

module Rts = Gigascope_rts

(** What to do when a batch's tuples do not fit in a subscriber's
    egress queue (its capacity counts items):
    - [Block]: backpressure the engine (the scheduler thread waits while
      the queue is full, then admits the batch whole; use when losing
      tuples is worse than stalling the packet path);
    - [Drop_newest]: keep the prefix that fits and drop the rest, counted
      per tuple under [net.subscriber.drops] and announced in band as
      one [Item.Gap] — the default, matching the paper's drop-not-block
      channels;
    - [Disconnect]: end the slow subscriber's link at the first tuple
      that does not fit, counted under [net.subscriber.disconnects].
    Control items (punctuation, EOF) never wait and are always enqueued
    — a bounded overshoot that keeps stream position and shutdown
    intact. *)
type policy = Block | Drop_newest | Disconnect

val policy_of_string : string -> (policy, string) result
(** ["block"], ["drop"]/["drop_newest"], ["disconnect"]. *)

val policy_to_string : policy -> string

type t

val create :
  ?policy:policy ->
  ?egress_capacity:int ->
  ?peer_name:string ->
  ?heartbeat:float ->
  Gigascope.Engine.t ->
  t
(** [egress_capacity] (default 4096) bounds each subscriber's egress
    queue in items; a query whose certified burst
    ({!Gigascope.Engine.certified_burst}) exceeds it gets a grown queue
    — auto-sizing only ever grows, never shrinks. [heartbeat] (seconds; off by default) sends
    {!Wire.msg} [Heartbeat] liveness frames to every subscriber at that
    interval, counted under [net.heartbeats.sent] — pair with a client
    idle timeout to detect dead peers. Registers the [net.*] metrics in
    the engine's registry. The server serves whatever queries are
    installed by the time {!listen} is called. *)

val add_ingest :
  t -> name:string -> schema:Rts.Schema.t -> ?capacity:int -> unit -> (unit, string) result
(** Register a network-fed source: remote publishers ({!Wire.msg}
    [Publish name]) push tuple batches into a bounded queue that the
    engine reads as the stream [name] — the server half of feeding one
    gsq process from another. Must be called before queries reading
    [name] are installed. The engine-side pull {e blocks} when the queue
    is empty (the run is paced by the publisher); a publisher's EOF or
    disconnect ends the stream. One publisher at a time per ingest. *)

val listen : t -> Addr.t -> (Addr.t, string) result
(** Start accepting on [addr]; returns the actually-bound address (port
    0 resolves to the kernel-chosen port). May be called several times
    — e.g. one Unix-domain and one TCP listener. Attaches the fanout
    callbacks for every query node registered so far. *)

val addresses : t -> Addr.t list

val subscriber_count : t -> int
(** Live subscribers (for [--wait-subscribers] style orchestration). *)

val sever_subscribers : ?query:string -> t -> int
(** Fault injection: abruptly close the socket under every live
    subscriber (of [query] only, when given), exactly as a pulled cable
    would. The subscriptions are orphaned, not removed — a client with
    reconnect configured resumes and is told the precise loss in the
    resume reply, which it surfaces as one {!Gigascope_rts.Item.t}
    [Gap]. Returns the number of connections severed. *)

val drain : ?timeout:float -> t -> bool
(** Wait (up to [timeout] seconds, default 10) until every {e attached}
    subscriber has received its EOF and disconnected; [false] on
    timeout. Orphaned subscriptions (socket died, held for {!Wire.msg}
    [Resume]) are not waited on. Call after the engine run completes. *)

val stop : t -> unit
(** Close listeners, ingests and every connection; wake every blocked
    thread; join them all. Idempotent. *)

val log_src : Logs.src
