(** Network interface card models.

    Gigascope pushes work into the NIC when it can (Section 3): some cards
    accept a bpf filter and a snap length ("the number of bytes of
    qualifying packets to be returned"); the Tigon gigabit card could run
    the LFTAs themselves. Three models:

    - [Dumb]: every packet delivered whole;
    - [Filtering]: the card evaluates a filter program and truncates
      accepted packets to the snap length;
    - [Programmable]: like [Filtering], but the host is also relieved of
      LFTA work — the cost difference is modelled by the simulator; the
      data path here is the same.

    Delivery statistics feed the experiments' data-reduction measurements. *)

module Bpf = Gigascope_bpf

type mode =
  | Dumb
  | Filtering of { prog : Bpf.Insn.program option; snap_len : int }
  | Programmable of { prog : Bpf.Insn.program option; snap_len : int }

type stats = {
  packets_seen : int;
  packets_delivered : int;
  bytes_seen : int;
  bytes_delivered : int;
}

type t

val create : ?mode:mode -> unit -> t
val mode : t -> mode

val set_mode : t -> mode -> unit
(** Reconfiguring a NIC corresponds to an RTS restart in the real system. *)

val widen : t -> mode -> unit
(** A second LFTA binds to the same card: keep the union of what both need
    (drop the filter unless identical, take the larger snap length). *)

val deliver : t -> bytes -> bytes option
(** [deliver t wire] runs the card's data path on a wire-format packet:
    [None] if the filter rejects it, otherwise the (possibly snapped)
    bytes the host receives. *)

val deliver_whole : t -> int -> unit
(** [deliver_whole t len] records a [len]-byte packet passed whole, as
    {!deliver} does on a [Dumb] card, without needing its bytes. *)

val stats : t -> stats
