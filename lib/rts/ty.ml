type t = Bool | Int | Float | Str | Ip | Sketch

let of_value = function
  | Value.Null -> None
  | Value.Bool _ -> Some Bool
  | Value.Int _ -> Some Int
  | Value.Float _ -> Some Float
  | Value.Str _ -> Some Str
  | Value.Ip _ -> Some Ip
  | Value.Sketch _ -> Some Sketch

let is_numeric = function Int | Float -> true | Bool | Str | Ip | Sketch -> false

let of_ddl_name = function
  | "bool" -> Some Bool
  | "int" | "uint" | "time" | "llong" | "ushort" | "ubyte" -> Some Int
  | "float" -> Some Float
  | "string" -> Some Str
  | "ip" -> Some Ip
  | _ -> None

let to_string = function
  | Bool -> "bool"
  | Int -> "int"
  | Float -> "float"
  | Str -> "string"
  | Ip -> "ip"
  | Sketch -> "sketch"

let pp fmt t = Format.pp_print_string fmt (to_string t)
