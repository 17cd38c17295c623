type t =
  | Tuple of Value.t array
  | Punct of (int * Value.t) list
  | Flush
  | Eof
  | Error of string
  | Gap of int

let is_tuple = function
  | Tuple _ -> true
  | Punct _ | Flush | Eof | Error _ | Gap _ -> false

let pp fmt = function
  | Tuple vs ->
      Format.fprintf fmt "tuple(";
      Array.iteri
        (fun i v ->
          if i > 0 then Format.fprintf fmt ", ";
          Value.pp fmt v)
        vs;
      Format.fprintf fmt ")"
  | Punct bounds ->
      Format.fprintf fmt "punct(";
      List.iteri
        (fun i (idx, v) ->
          if i > 0 then Format.fprintf fmt ", ";
          Format.fprintf fmt "#%d>=%a" idx Value.pp v)
        bounds;
      Format.fprintf fmt ")"
  | Flush -> Format.fprintf fmt "flush"
  | Eof -> Format.fprintf fmt "eof"
  | Error msg -> Format.fprintf fmt "error(%s)" msg
  | Gap n -> if n < 0 then Format.fprintf fmt "gap(?)" else Format.fprintf fmt "gap(%d)" n
