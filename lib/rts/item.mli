(** Items flowing through stream channels.

    Besides data tuples, channels carry {e punctuations} — the
    ordering-update tokens of Tucker & Maier that Gigascope injects to
    unblock merge and join when an input is slow — and an end-of-stream
    marker.

    The failure model adds two more control kinds: [Error] marks a
    stream whose producer crashed (it is always followed by [Eof], so
    downstream terminates normally but knows the result is partial),
    and [Gap] marks a known discontinuity — [n] tuples were lost here
    (shed, dropped on a closed channel, or unrecoverable after a
    reconnect). [Gap (-1)] means the count is unknown. Both mirror the
    paper's stance that loss must be {e reported}, never silent. *)

type t =
  | Tuple of Value.t array
  | Punct of (int * Value.t) list
      (** lower bounds: no future tuple's field [i] will be below (for
          ascending attributes) the paired value *)
  | Flush  (** operator hint: flush open state now (user-requested) *)
  | Eof
  | Error of string
      (** upstream failure marker; the producing subtree is dead and an
          [Eof] follows — results downstream of this point are partial *)
  | Gap of int
      (** [Gap n]: [n] tuples are missing at this stream position;
          [n < 0] when the count is unknown *)

val is_tuple : t -> bool

val pp : Format.formatter -> t -> unit
