module Rts = Gigascope_rts
module Bpf = Gigascope_bpf

type protocol = {
  schema : Rts.Schema.t;
  bpf_fields : (string * Bpf.Filter.field) list;
  payload_fields : string list;
}

type t = {
  protocols : (string, protocol) Hashtbl.t;
  streams : (string, Rts.Schema.t) Hashtbl.t;
  funcs : Rts.Func.registry;
}

let create funcs = { protocols = Hashtbl.create 8; streams = Hashtbl.create 16; funcs }

let functions t = t.funcs

let key = String.lowercase_ascii

let add_protocol t ~name proto = Hashtbl.replace t.protocols (key name) proto
let find_protocol t name = Hashtbl.find_opt t.protocols (key name)

let order_of_spec = function
  | None -> Rts.Order_prop.Unordered
  | Some Ast.Spec_increasing -> Rts.Order_prop.Monotone Rts.Order_prop.Asc
  | Some Ast.Spec_decreasing -> Rts.Order_prop.Monotone Rts.Order_prop.Desc
  | Some Ast.Spec_strictly_increasing -> Rts.Order_prop.Strict Rts.Order_prop.Asc
  | Some Ast.Spec_strictly_decreasing -> Rts.Order_prop.Strict Rts.Order_prop.Desc
  | Some Ast.Spec_nonrepeating -> Rts.Order_prop.Nonrepeating
  | Some (Ast.Spec_banded_increasing b) -> Rts.Order_prop.Banded (Rts.Order_prop.Asc, b)
  | Some (Ast.Spec_banded_decreasing b) -> Rts.Order_prop.Banded (Rts.Order_prop.Desc, b)
  | Some (Ast.Spec_increasing_in fields) -> Rts.Order_prop.In_group (fields, Rts.Order_prop.Asc)

let add_protocol_def t (def : Ast.protocol_def) =
  let fields =
    List.map
      (fun (f : Ast.field_decl) ->
        match Rts.Ty.of_ddl_name (String.lowercase_ascii f.Ast.type_name) with
        | Some ty ->
            Ok { Rts.Schema.name = f.Ast.field_name; ty; order = order_of_spec f.Ast.order_spec }
        | None -> Error (Printf.sprintf "protocol %s: unknown type %s" def.Ast.protocol_name f.Ast.type_name))
      def.Ast.fields
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | Ok f :: rest -> collect (f :: acc) rest
    | Error e :: _ -> Error e
  in
  match collect [] fields with
  | Error _ as e -> e
  | Ok fields -> (
      match Rts.Schema.make fields with
      | schema ->
          add_protocol t ~name:def.Ast.protocol_name
            { schema; bpf_fields = []; payload_fields = [] };
          Ok ()
      | exception Invalid_argument msg -> Error msg)

let add_stream t ~name schema = Hashtbl.replace t.streams (key name) schema
let find_stream t name = Hashtbl.find_opt t.streams (key name)

let protocol_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.protocols [] |> List.sort compare
