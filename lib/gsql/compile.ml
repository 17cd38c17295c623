type compiled = { plan : Plan.t; split : Split.t; helpers : compiled list }

let ( let* ) = Result.bind

(* The DEFINE properties the compiler reads, each with its one check:
   the error names what the value must be. *)
let properties =
  [
    ("query_name", fun v -> if v <> "" then Ok () else Error "must not be empty");
    ( "lfta_bits",
      let max = Gigascope_rts.Lfta_aggregate.max_table_bits in
      fun v ->
        match int_of_string_opt v with
        | Some b when b >= 0 && b <= max -> Ok ()
        | _ -> Error (Printf.sprintf "must be an integer in 0..%d" max) );
    ( "join_output",
      fun v -> if String.lowercase_ascii v = "ordered" then Ok () else Error "must be ordered" );
  ]

let check_props props =
  List.fold_left
    (fun acc (k, v) ->
      let* () = acc in
      let named why = Printf.sprintf "DEFINE property %s %s: %s" k v why in
      match List.assoc_opt (String.lowercase_ascii k) properties with
      | Some check -> Result.map_error named (check v)
      | None ->
          Error
            (named
               ("unknown property (the compiler reads "
               ^ String.concat ", " (List.map fst properties)
               ^ ")")))
    (Ok ()) props

let prop props key =
  List.fold_left
    (fun acc (k, v) -> if String.lowercase_ascii k = key then Some v else acc)
    None props

(* Hoist inline FROM subqueries into standalone named queries compiled
   before their parent ("supporting subqueries in the FROM clause requires
   only an update of the parser"): each (SELECT ...) becomes the query
   _sub<N>_<parent>, and the parent reads it by name. *)
let hoist_subqueries ~parent_name def =
  let counter = ref 0 in
  let hoisted = ref [] in
  let rec walk_select (q : Ast.select_query) =
    let from =
      List.map
        (fun (src : Ast.source_ref) ->
          match src.Ast.sub with
          | None -> src
          | Some sub ->
              let sub = walk_select sub in
              incr counter;
              let name = Printf.sprintf "_sub%d_%s" !counter parent_name in
              hoisted :=
                !hoisted
                @ [{ Ast.props = [("query_name", name)]; body = Ast.Select_q sub }];
              { src with Ast.stream = name; sub = None })
        q.Ast.from
    in
    { q with Ast.from }
  in
  let body =
    match def.Ast.body with
    | Ast.Select_q q -> Ast.Select_q (walk_select q)
    | Ast.Merge_q m ->
        Ast.Merge_q
          {
            m with
            Ast.merge_from =
              List.map
                (fun (src : Ast.source_ref) ->
                  match src.Ast.sub with
                  | None -> src
                  | Some sub ->
                      let sub = walk_select sub in
                      incr counter;
                      let name = Printf.sprintf "_sub%d_%s" !counter parent_name in
                      hoisted :=
                        !hoisted
                        @ [{ Ast.props = [("query_name", name)]; body = Ast.Select_q sub }];
                      { src with Ast.stream = name; sub = None })
                m.Ast.merge_from;
          }
  in
  (!hoisted, { def with Ast.body })

let compile_def_flat catalog ~default_interface ~lfta_table_bits ~name def =
  let* plan = Analyze.analyze catalog ~default_interface ~name def in
  let bits =
    Option.fold ~none:lfta_table_bits ~some:int_of_string (prop def.Ast.props "lfta_bits")
  in
  let* split = Split.split catalog ~lfta_table_bits:bits plan in
  Catalog.add_stream catalog ~name:plan.Plan.name plan.Plan.out_schema;
  Ok { plan; split; helpers = [] }

(* Compile one definition: hoisted subqueries (already fully flattened by
   the hoister) become helper units attached to the main one. *)
let compile_def catalog ~default_interface ~lfta_table_bits ~name def =
  let* () = check_props def.Ast.props in
  let parent_name = Option.value (Ast.query_name def) ~default:name in
  let subs, def = hoist_subqueries ~parent_name def in
  let* helpers =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | sub_def :: rest ->
          let* c = compile_def_flat catalog ~default_interface ~lfta_table_bits ~name:parent_name sub_def in
          go (c :: acc) rest
    in
    go [] subs
  in
  let* main = compile_def_flat catalog ~default_interface ~lfta_table_bits ~name def in
  Ok { main with helpers }

let compile_program catalog ?(default_interface = "default") ?(lfta_table_bits = 12) text =
  match Parser.parse_program text with
  | exception Parser.Error (msg, line, col) ->
      Error (Printf.sprintf "parse error at %d:%d: %s" line col msg)
  | decls ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | Ast.Protocol_decl p :: rest ->
            let* () = Catalog.add_protocol_def catalog p in
            go i acc rest
        | Ast.Query_decl def :: rest ->
            let* compiled =
              compile_def catalog ~default_interface ~lfta_table_bits
                ~name:(Printf.sprintf "q%d" i) def
            in
            (* flatten: helpers become standalone entries so installers see
               each unit exactly once *)
            go (i + 1)
              (({ compiled with helpers = [] } :: List.rev compiled.helpers) @ acc)
              rest
      in
      go 0 [] decls

let compile_query catalog ?(default_interface = "default") ?(lfta_table_bits = 12) ?name text =
  match Parser.parse_query text with
  | exception Parser.Error (msg, line, col) ->
      Error (Printf.sprintf "parse error at %d:%d: %s" line col msg)
  | def ->
      compile_def catalog ~default_interface ~lfta_table_bits
        ~name:(Option.value name ~default:"q0") def

let explain ?(memory = false) compiled =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Format.asprintf "%a@." Plan.pp compiled.plan);
  if memory then begin
    Buffer.add_string buf "\n";
    Buffer.add_string buf (Certify.report (Certify.certify compiled.split))
  end;
  Buffer.add_string buf "\n-- physical plan (LFTA/HFTA split) --\n";
  List.iter
    (fun (p : Split.phys_node) ->
      let kind =
        match p.Split.pkind with
        | Gigascope_rts.Node.Lfta -> "LFTA"
        | Gigascope_rts.Node.Hfta -> "HFTA"
        | Gigascope_rts.Node.Source -> "SOURCE"
      in
      Buffer.add_string buf
        (Format.asprintf "%s %s : %a@." kind p.Split.pname Gigascope_rts.Schema.pp
           p.Split.pschema))
    compiled.split.Split.phys;
  Buffer.add_string buf "\n-- generated pseudo-C --\n";
  Buffer.add_string buf (Emit_c.emit compiled.split);
  Buffer.contents buf
