(* Predicate-defined groups with the MD-join — the paper's Section 5
   future-work item ("the complex group definition mechanisms" of the
   MD-join paper), wired in as a user-written query node through the
   stream manager's bypass API ("users can write their own query nodes to
   implement special operators", Section 3).

   Ordinary GROUP BY cannot express these buckets: they overlap (port 80 is
   both "well-known" and "web") and quiet buckets must still report zero
   every interval.

     dune exec examples/port_bands.exe
*)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Value = Rts.Value
module Traffic = Gigascope_traffic

(* the base relation: (bucket name, low port, high port) *)
let buckets =
  [|
    [| Value.Str "well-known"; Value.Int 0; Value.Int 1023 |];
    [| Value.Str "registered"; Value.Int 1024; Value.Int 49151 |];
    [| Value.Str "dynamic"; Value.Int 49152; Value.Int 65535 |];
    [| Value.Str "web"; Value.Int 80; Value.Int 80 |];
    [| Value.Str "databases"; Value.Int 3306; Value.Int 5432 |];
  |]

let () =
  let engine = E.create () in
  E.add_generator_interface engine ~name:"eth0"
    { Traffic.Gen.default with duration = 3.0; rate_mbps = 30.0; seed = 8 };

  (* feed: a plain GSQL projection of what the MD-join needs *)
  (match
     E.install_query engine ~name:"feed"
       "SELECT time, destport, len FROM eth0.tcp WHERE ipversion = 4"
   with
  | Ok _ -> ()
  | Error e -> failwith e);

  (* the user-written node: per-second MD-join over the bucket relation *)
  let md =
    Rts.Md_join_op.make
      {
        Rts.Md_join_op.base = buckets;
        theta =
          (fun b s ->
            match (b.(1), b.(2), s.(1)) with
            | Value.Int lo, Value.Int hi, Value.Int port -> port >= lo && port <= hi
            | _ -> false);
        aggs =
          [|
            { Rts.Agg_fn.kind = Rts.Agg_fn.Count; arg = None };
            { Rts.Agg_fn.kind = Rts.Agg_fn.Sum; arg = Some (fun s -> s.(2)) };
          |];
        epoch_field = 0;
        direction = Rts.Order_prop.Asc;
        band = 0.0;
        assemble = (fun ~base ~epoch ~aggs -> [| epoch; base.(0); aggs.(0); aggs.(1) |]);
      }
  in
  let out_schema =
    Rts.Schema.make
      [
        { Rts.Schema.name = "tb"; ty = Rts.Ty.Int; order = Rts.Order_prop.Monotone Rts.Order_prop.Asc };
        { Rts.Schema.name = "bucket"; ty = Rts.Ty.Str; order = Rts.Order_prop.Unordered };
        { Rts.Schema.name = "pkts"; ty = Rts.Ty.Int; order = Rts.Order_prop.Unordered };
        { Rts.Schema.name = "bytes"; ty = Rts.Ty.Int; order = Rts.Order_prop.Unordered };
      ]
  in
  (match
     Rts.Manager.add_query_node (E.manager engine) ~name:"port_bands" ~kind:Rts.Node.Hfta
       ~schema:out_schema ~inputs:["feed"] ~op:(Rts.Md_join_op.op md)
   with
  | Ok _ -> ()
  | Error e -> failwith e);

  (* and the MD-join's output is an ordinary stream: GSQL composes on top *)
  Gigascope_gsql.Catalog.add_stream (E.catalog engine) ~name:"port_bands" out_schema;
  (match
     E.install_query engine ~name:"web_share"
       "SELECT tb, pkts FROM port_bands WHERE bucket = 'web'"
   with
  | Ok _ -> ()
  | Error e -> failwith e);

  let rows = ref [] in
  Result.get_ok (E.on_tuple engine "port_bands" (fun t -> rows := Array.copy t :: !rows));
  (match E.run engine () with Ok _ -> () | Error e -> failwith e);
  print_endline "second   bucket        pkts      bytes   (buckets overlap; quiet ones report 0)";
  List.iter
    (fun t ->
      Printf.printf "%-8s %-12s %6s %10s\n" (Value.to_string t.(0)) (Value.to_string t.(1))
        (Value.to_string t.(2)) (Value.to_string t.(3)))
    (List.rev !rows)
