module Ipaddr = Gigascope_packet.Ipaddr
module Sketch = Gigascope_sketch.Sketch

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Ip of int
  | Sketch of Sketch.t

exception No_value

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* numeric values share a rank so they compare by value *)
  | Str _ -> 3
  | Ip _ -> 4
  | Sketch _ -> 5

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Ip x, Ip y -> Int.compare x y
  (* canonical encoding: equal sketch states compare equal, and the
     order is total even though the payload is mutable *)
  | Sketch x, Sketch y -> String.compare (Sketch.encode x) (Sketch.encode y)
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> Hashtbl.hash i
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Ip i -> Hashtbl.hash (i lxor 0x5bd1e995)
  | Sketch s -> Hashtbl.hash (Sketch.encode s)

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Null | Str _ | Ip _ | Sketch _ -> None

let is_truthy = function
  | Bool b -> b
  | Int i -> i <> 0
  | Float f -> f <> 0.0
  | Null | Str _ | Ip _ | Sketch _ -> false

let pp fmt = function
  | Null -> Format.fprintf fmt "null"
  | Bool b -> Format.fprintf fmt "%b" b
  | Int i -> Format.fprintf fmt "%d" i
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | Ip i -> Format.fprintf fmt "%s" (Ipaddr.to_string i)
  | Sketch s -> Format.fprintf fmt "<%a>" Sketch.pp s

let to_string v = Format.asprintf "%a" pp v

let hash_combine h v = (h * 31) + hash v

let hash_array arr =
  let h = ref 0 in
  for i = 0 to Array.length arr - 1 do
    h := hash_combine !h (Array.unsafe_get arr i)
  done;
  !h land max_int

let equal_array a b =
  Array.length a = Array.length b
  &&
  let rec go i = i = Array.length a || (equal a.(i) b.(i) && go (i + 1)) in
  go 0
