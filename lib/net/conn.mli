(** Framed, counted IO over a socket: the transport under {!Server} and
    {!Client}.

    One [recv]/[send] moves one {!Wire.msg}. The receive side buffers
    partial frames ({!Wire.decode}'s [Need_more]) and fails cleanly —
    [Error], never an exception — on corrupt frames, oversized frames,
    peer resets and half-written tails. Sends are serialized by an
    internal lock so a writer thread and a control reply cannot
    interleave bytes on the wire. *)

type counters = {
  frames_in : Gigascope_obs.Metrics.Counter.t;
  frames_out : Gigascope_obs.Metrics.Counter.t;
  bytes_in : Gigascope_obs.Metrics.Counter.t;
  bytes_out : Gigascope_obs.Metrics.Counter.t;
}

val counters_in : Gigascope_obs.Metrics.t -> prefix:string -> counters
(** Get-or-create the four counters under [prefix.frames_in] etc., so
    every connection of one server shares the same cells. *)

type t

val of_fd : ?counters:counters -> ?peer:string -> Unix.file_descr -> t

val peer : t -> string

val set_read_deadline : t -> float -> unit
(** Fail a blocked {!recv} with ["recv: timeout (read deadline
    exceeded)"] after this many seconds of silence (SO_RCVTIMEO);
    [0.] disables. The connection stays usable only in principle —
    callers should treat the timeout as connection loss. *)

val send : t -> Wire.msg -> (unit, string) result

val recv : t -> (Wire.msg, string) result
(** Blocking. [Error] on clean close ("connection closed"), corrupt
    input, or any socket error. After an [Error] the connection is
    unusable; {!close} it. *)

val close : t -> unit
(** Idempotent; concurrent [recv]/[send] on other threads fail with
    [Error] rather than blocking forever. *)

