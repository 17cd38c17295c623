(* Differential testing of the query compiler: randomly generated GSQL
   queries are executed twice over identical traffic —

     (a) straight over the Protocol source, so the splitter produces the
         LFTA/HFTA physical plan (with sub/super aggregate decomposition,
         NIC hints, the direct-mapped table, punctuation translation...);
     (b) over a pass-through stream of the same fields, which forces a
         single unsplit HFTA;

   and the result multisets must be identical. This is the property that
   makes the paper's central optimization trustworthy: splitting is purely
   a physical rewrite. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Value = Rts.Value
module Prng = Gigascope_util.Prng
module Traffic = Gigascope_traffic

let qtest ?(count = 25) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------ random query synthesis ------------------------ *)

(* predicates over cheap fields only (both variants must see identical
   inputs, so no partial functions in the random space) *)
let random_pred rng =
  let atoms =
    [|
      (fun () -> Printf.sprintf "destport %s %d"
          [| "="; "<>"; "<"; ">" |].(Prng.int rng 4)
          [| 80; 443; 53; 1024 |].(Prng.int rng 4));
      (fun () -> Printf.sprintf "len %s %d" [| "<"; ">" |].(Prng.int rng 2) (200 + Prng.int rng 800));
      (fun () -> "protocol = 6");
      (fun () -> "protocol = 17");
      (fun () -> Printf.sprintf "ttl > %d" (Prng.int rng 64));
      (fun () -> Printf.sprintf "srcport & %d <> 0" (1 lsl Prng.int rng 10));
    |]
  in
  let atom () = atoms.(Prng.int rng (Array.length atoms)) () in
  match Prng.int rng 4 with
  | 0 -> atom ()
  | 1 -> Printf.sprintf "%s and %s" (atom ()) (atom ())
  | 2 -> Printf.sprintf "%s or %s" (atom ()) (atom ())
  | _ -> Printf.sprintf "%s and (%s or %s)" (atom ()) (atom ()) (atom ())

type shape = Selection | Grouped

let random_query rng =
  let shape = if Prng.bool rng then Selection else Grouped in
  let pred = random_pred rng in
  match shape with
  | Selection ->
      let fields =
        (* time first so results are comparable; a couple of extras *)
        ["time"; "destport"]
        @ (if Prng.bool rng then ["srcip"] else [])
        @ if Prng.bool rng then ["len"] else []
      in
      (shape, String.concat ", " fields, pred, "")
  | Grouped ->
      let bucket = [| 1; 2; 5 |].(Prng.int rng 3) in
      let extra_key = if Prng.bool rng then ", destport" else "" in
      let aggs =
        [| "count(*) as c"; "count(*) as c, sum(len) as s"; "count(*) as c, min(len) as mn, max(len) as mx";
           "count(*) as c, avg(len) as av" |].(Prng.int rng 4)
      in
      ( shape,
        Printf.sprintf "tb%s, %s" (if extra_key = "" then "" else ", destport") aggs,
        pred,
        Printf.sprintf "GROUP BY time/%d as tb%s" bucket extra_key )

(* The LFTA table's random space: a table small enough that groups
   collide and evict (lfta_bits 1 and 3) or one as large as the default,
   group keys of every kind the table stores — Int fields, Ip fields and
   a truncated Ip, and an fdiv Float key that is Null for even ports —
   and every aggregate the splitter decomposes. *)
let random_table_query rng =
  let pick a = a.(Prng.int rng (Array.length a)) in
  let bits = pick [| 1; 3; 12 |] in
  let keys =
    List.filter
      (fun _ -> Prng.int rng 3 = 0)
      [
        ("destport", "destport");
        ("srcip", "srcip");
        ("destip", "destip");
        ("srcport", "srcport");
        ("truncate_ip(srcip, 16) as subnet", "subnet");
        ("fdiv(len, destport & 1) as fk", "fk");
      ]
  in
  let aggs =
    "count(*) as c"
    :: List.filter (fun _ -> Prng.bool rng)
         [ "sum(len) as s"; "min(len) as mn"; "max(len) as mx"; "avg(len) as av" ]
  in
  let bucket = pick [| 1; 2; 5 |] in
  ( bits,
    String.concat ", " (("tb" :: List.map snd keys) @ aggs),
    random_pred rng,
    Printf.sprintf "GROUP BY time/%d as tb%s" bucket
      (String.concat "" (List.map (fun (k, _) -> ", " ^ k) keys)) )

(* pass-through field list covering everything the random space can use *)
let passthrough_fields = "time, srcip, destip, srcport, destport, protocol, len, ttl, data_length"

let build_query ?(bits = 12) ~split ~items ~pred ~group () =
  if split then
    Printf.sprintf
      {| DEFINE { query_name q_split; lfta_bits %d; }
         SELECT %s FROM eth0.tcp WHERE %s %s |}
      bits items pred group
  else
    Printf.sprintf
      {|
      DEFINE { query_name raw_passthrough; }
      SELECT %s FROM eth0.tcp

      DEFINE { query_name q_unsplit; }
      SELECT %s FROM raw_passthrough WHERE %s %s
    |}
      passthrough_fields items pred group

let run_variant ?bits ~split ~packets ~items ~pred ~group () =
  let engine = E.create ~default_capacity:300_000 () in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  match E.install_program engine (build_query ?bits ~split ~items ~pred ~group ()) with
  | Error e -> Error e
  | Ok _ -> (
      let out = ref [] in
      let name = if split then "q_split" else "q_unsplit" in
      (match E.on_tuple engine name (fun t -> out := Array.to_list t :: !out) with
      | Ok () -> ()
      | Error e -> failwith e);
      match E.run engine () with
      | Ok _ -> Ok (List.sort compare !out)
      | Error e -> Error e)

let traffic seed =
  let gen =
    Traffic.Gen.create
      { Traffic.Gen.default with Traffic.Gen.duration = 0.4; rate_mbps = 40.0; seed; n_flows = 64 }
  in
  let rec go acc = match Traffic.Gen.next gen with Some p -> go (p :: acc) | None -> List.rev acc in
  go []

(* Odd seeds draw from the LFTA table's space, even ones from the
   general one (at the default table size). *)
let split_equals_unsplit =
  qtest ~count:60 "split plan = unsplit plan on random queries" QCheck.small_int (fun seed ->
      let rng = Prng.create (seed * 31 + 7) in
      let bits, items, pred, group =
        if seed land 1 = 1 then random_table_query rng
        else
          let _, items, pred, group = random_query rng in
          (12, items, pred, group)
      in
      let packets = traffic (seed + 1000) in
      match
        ( run_variant ~bits ~split:true ~packets ~items ~pred ~group (),
          run_variant ~split:false ~packets ~items ~pred ~group () )
      with
      | Ok a, Ok b ->
          if a = b then true
          else
            QCheck.Test.fail_reportf "mismatch for lfta_bits %d SELECT %s WHERE %s %s: %d vs %d rows"
              bits items pred group (List.length a) (List.length b)
      | Error e, _ | _, Error e ->
          QCheck.Test.fail_reportf "query failed (lfta_bits %d SELECT %s WHERE %s %s): %s" bits items
            pred group e)

(* a second differential: NIC filtering must never change query results *)
let nic_never_changes_results =
  qtest ~count:15 "NIC push-down = dumb card on random queries" QCheck.small_int (fun seed ->
      let rng = Prng.create (seed * 17 + 3) in
      let _, items, pred, group = random_query rng in
      let packets = traffic (seed + 2000) in
      let run cap =
        let engine = E.create ~default_capacity:300_000 () in
        E.add_packet_list_interface engine ~name:"eth0" ~capability:cap packets;
        match
          E.install_query engine ~name:"q"
            (Printf.sprintf "SELECT %s FROM eth0.tcp WHERE %s %s" items pred group)
        with
        | Error e -> Error e
        | Ok _ -> (
            let out = ref [] in
            (match E.on_tuple engine "q" (fun t -> out := Array.to_list t :: !out) with
            | Ok () -> ()
            | Error e -> failwith e);
            match E.run engine () with
            | Ok _ -> Ok (List.sort compare !out)
            | Error e -> Error e)
      in
      match (run E.Cap_none, run E.Cap_bpf, run E.Cap_lfta) with
      | Ok a, Ok b, Ok c ->
          if a = b && b = c then true
          else QCheck.Test.fail_reportf "NIC capability changed results for SELECT %s WHERE %s %s" items pred group
      | Error e, _, _ | _, Error e, _ | _, _, Error e ->
          QCheck.Test.fail_reportf "query failed: %s" e)

(* a third property: the analyzer's imputed ordering properties are kept
   by the running pipeline — every output column promised monotone or
   banded actually is *)
let imputed_ordering_holds =
  qtest ~count:25 "imputed ordering properties hold at runtime" QCheck.small_int (fun seed ->
      let rng = Prng.create (seed * 13 + 11) in
      let _, items, pred, group = random_query rng in
      let packets = traffic (seed + 3000) in
      let engine = E.create ~default_capacity:300_000 () in
      E.add_packet_list_interface engine ~name:"eth0" packets;
      match
        E.install_query engine ~name:"q"
          (Printf.sprintf "SELECT %s FROM eth0.tcp WHERE %s %s" items pred group)
      with
      | Error e -> QCheck.Test.fail_reportf "compile failed: %s" e
      | Ok _ -> (
          let schema =
            match Gigascope_gsql.Catalog.find_stream (E.catalog engine) "q" with
            | Some s -> s
            | None -> failwith "schema missing"
          in
          let module Schema = Rts.Schema in
          let module Order_prop = Rts.Order_prop in
          (* per promised-ordered column: running extremum + band check *)
          let watchers =
            Array.to_list (Schema.fields schema)
            |> List.mapi (fun i (f : Schema.field) -> (i, f.Schema.order))
            |> List.filter_map (fun (i, order) ->
                   match order with
                   | Order_prop.Strict d | Order_prop.Monotone d ->
                       Some (i, d, 0.0)
                   | Order_prop.Banded (d, b) -> Some (i, d, b)
                   | _ -> None)
          in
          let violations = ref [] in
          let extrema = Hashtbl.create 4 in
          Result.get_ok
            (E.on_tuple engine "q" (fun t ->
                 List.iter
                   (fun (i, dir, band) ->
                     match Value.to_float t.(i) with
                     | None -> ()
                     | Some v ->
                         let prev =
                           Option.value (Hashtbl.find_opt extrema i)
                             ~default:
                               (match dir with
                               | Rts.Order_prop.Asc -> neg_infinity
                               | Desc -> infinity)
                         in
                         (match dir with
                         | Rts.Order_prop.Asc ->
                             if v < prev -. band then violations := (i, v, prev) :: !violations;
                             if v > prev then Hashtbl.replace extrema i v
                         | Desc ->
                             if v > prev +. band then violations := (i, v, prev) :: !violations;
                             if v < prev then Hashtbl.replace extrema i v))
                   watchers));
          match E.run engine () with
          | Error e -> QCheck.Test.fail_reportf "run failed: %s" e
          | Ok _ ->
              if !violations = [] then true
              else
                let i, v, prev = List.hd !violations in
                QCheck.Test.fail_reportf
                  "SELECT %s WHERE %s %s: column %d promised ordered but saw %g after %g" items
                  pred group i v prev))

let () =
  Alcotest.run "differential"
    [("properties", [split_equals_unsplit; nic_never_changes_results; imputed_ordering_holds])]
