type field = { name : string; ty : Ty.t; order : Order_prop.t }

type t = { fields : field array; index : (string, int) Hashtbl.t }

let key name = String.lowercase_ascii name

let make field_list =
  let fields = Array.of_list field_list in
  let index = Hashtbl.create (Array.length fields) in
  Array.iteri
    (fun i f ->
      let k = key f.name in
      if Hashtbl.mem index k then
        invalid_arg (Printf.sprintf "Schema.make: duplicate field %s" f.name);
      Hashtbl.replace index k i)
    fields;
  { fields; index }

let fields t = t.fields
let arity t = Array.length t.fields
let field_index t name = Hashtbl.find_opt t.index (key name)
let field_at t i = t.fields.(i)

let ordered_fields t =
  let out = ref [] in
  Array.iteri
    (fun i f -> if Order_prop.usable_for_epoch f.order then out := (i, f) :: !out)
    t.fields;
  List.rev !out

let concat a b =
  let taken = Hashtbl.copy a.index in
  let right =
    Array.map
      (fun f ->
        let name = if Hashtbl.mem taken (key f.name) then f.name ^ "_2" else f.name in
        Hashtbl.replace taken (key name) 0;
        { f with name })
      b.fields
  in
  make (Array.to_list a.fields @ Array.to_list right)

let pp fmt t =
  Format.fprintf fmt "(";
  Array.iteri
    (fun i f ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%s:%a" f.name Ty.pp f.ty;
      match f.order with
      | Order_prop.Unordered -> ()
      | order -> Format.fprintf fmt " [%a]" Order_prop.pp order)
    t.fields;
  Format.fprintf fmt ")"
