module Metrics = Gigascope_obs.Metrics

let make ?rejected ?pred ~project ~punct_map () =
  let done_ = ref false in
  let reject () = match rejected with Some c -> Metrics.Counter.incr c | None -> () in
  let on_tuple ~input:_ values ~emit =
    let pass = match pred with None -> true | Some p -> p values in
    if pass then
      match project values with
      | Some out -> ignore (emit (Item.Tuple out))
      | None -> reject ()
    else reject ()
  in
  let on_ctrl ~input:_ item ~emit =
    match item with
    | Item.Punct bounds ->
        let translated =
          List.filter_map
            (fun (idx, v) ->
              Option.map (fun out_idx -> (out_idx, v)) (List.assoc_opt idx punct_map))
            bounds
        in
        if translated <> [] then emit (Item.Punct translated)
    | (Item.Flush | Item.Error _ | Item.Gap _) as ctrl -> emit ctrl
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
    reset = Some (fun () -> ());
  }
