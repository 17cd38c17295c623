module Prng = Gigascope_util.Prng
module Metrics = Gigascope_obs.Metrics

let make ?dropped ~rate ~seed () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Sample_op.make: rate must be in [0,1]";
  let rng = Prng.create seed in
  let done_ = ref false in
  let on_tuple ~input:_ values ~emit =
    if Prng.float rng 1.0 < rate then emit (Item.Tuple values)
    else match dropped with Some c -> Metrics.Counter.incr c | None -> ()
  in
  let on_ctrl ~input:_ item ~emit =
    match item with
    | Item.Punct _ | Item.Flush | Item.Error _ | Item.Gap _ -> emit item
    | Item.Eof ->
        if not !done_ then begin
          done_ := true;
          emit Item.Eof
        end
    | Item.Tuple _ -> ()
  in
  {
    Operator.on_tuple;
    on_batch_end = (fun ~emit:_ -> ());
    on_ctrl;
    blocked_input = (fun () -> None);
    buffered = (fun () -> 0);
    reset = None;
  }
