(** The operator abstraction query nodes execute.

    An operator is three hooks that {!Node.step_inputs} calls from one
    loop over each popped batch, in this order:
    + [on_tuple] on every tuple of the batch, in order;
    + [on_batch_end] once, after the tuples (also when there were
      none);
    + [on_ctrl] on the batch's trailing control item, if it has one.

    A batch's items therefore reach the operator in stream order, and
    whatever [on_batch_end] emits leaves ahead of the control item's
    output. Only the join does work there (its Ordered_output release).

    The contract:
    - a batch must produce what its items produce fed one per batch, so
      output never depends on the batch size;
    - exactly one [Item.Eof] must be emitted, after the operator has seen
      [Eof] on all its inputs and flushed its state;
    - [Item.Punct] must be translated (not blindly forwarded) so emitted
      bounds refer to {e output} field indices and are actually honoured by
      future output tuples;
    - [blocked_input] names an input whose silence currently prevents
      progress (merge/join), which is what triggers on-demand heartbeat
      requests upstream. *)

type emit = Item.t -> unit

type t = {
  on_tuple : input:int -> Value.t array -> emit:emit -> unit;
  on_batch_end : emit:emit -> unit;
  on_ctrl : input:int -> Item.t -> emit:emit -> unit;
      (** Never receives an [Item.Tuple]: a batch's control position
          holds only punctuation, [Flush], [Eof], [Error] or [Gap]. *)
  blocked_input : unit -> int option;
  buffered : unit -> int;  (** items of internal state, for measurement *)
  reset : (unit -> unit) option;
      (** Restartable operators expose a state reset the supervisor may
          call to restart them in place after a crash ([restart] policy).
          [None] marks the operator as stateful-unrestartable: a crash
          poisons it instead. *)
}
