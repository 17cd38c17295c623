(* A batch is a run of consecutive tuples plus at most one trailing
   control item. Control items seal the batch that carries them, so
   punctuation, Flush and Eof keep their exact stream position: every
   item order observable through a channel is independent of the batch
   size (the property the differential tests enforce).

   Latency observability rides along as an optional parallel column of
   ingest stamps (ns, 0 = unstamped). Unstamped batches carry [None]
   and cost nothing; the column never participates in the item order,
   so the byte-identity invariant is untouched. *)

type t = {
  tuples : Value.t array array;
  stamps : int array option;
  ctrl : Item.t option;
}

let make ?stamps tuples ctrl =
  (match ctrl with
  | Some (Item.Tuple _) -> invalid_arg "Batch.make: control position holds a tuple"
  | Some (Item.Punct _ | Item.Flush | Item.Eof | Item.Error _ | Item.Gap _) | None -> ());
  (match stamps with
  | Some st when Array.length st <> Array.length tuples ->
      invalid_arg "Batch.make: stamp column length differs from tuple count"
  | Some _ | None -> ());
  { tuples; stamps; ctrl }

let of_item = function
  | Item.Tuple values -> { tuples = [| values |]; stamps = None; ctrl = None }
  | (Item.Punct _ | Item.Flush | Item.Eof | Item.Error _ | Item.Gap _) as ctrl ->
      { tuples = [||]; stamps = None; ctrl = Some ctrl }

let tuples t = t.tuples
let stamps t = t.stamps
let ctrl t = t.ctrl
let n_tuples t = Array.length t.tuples
let items t = Array.length t.tuples + match t.ctrl with Some _ -> 1 | None -> 0
let is_empty t = t.ctrl = None && Array.length t.tuples = 0

let iter t f =
  Array.iter (fun values -> f (Item.Tuple values)) t.tuples;
  match t.ctrl with Some ctrl -> f ctrl | None -> ()

let to_items t =
  let tail = match t.ctrl with Some ctrl -> [ ctrl ] | None -> [] in
  Array.fold_right (fun values acc -> Item.Tuple values :: acc) t.tuples tail

let pp fmt t =
  Format.fprintf fmt "@[<h>batch[%d tuples%s%s]@]" (n_tuples t)
    (match t.stamps with Some _ -> "; stamped" | None -> "")
    (match t.ctrl with
    | Some c -> Format.asprintf "; %a" Item.pp c
    | None -> "")
