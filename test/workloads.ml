(* The differential workloads and runner shared by the determinism
   harnesses: test_parallel.ml runs them across domain counts, and
   test_fuzz.ml across data-plane batch sizes. Every workload replays
   deterministic generated traffic, so two runs differing only in an
   execution knob must produce byte-identical subscriber output. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Value = Rts.Value
module Traffic = Gigascope_traffic
module Packet = Gigascope_packet.Packet
module Ipaddr = Gigascope_packet.Ipaddr

(* The shipped queries directory: [queries] from the repository root,
   [../queries] from [dune runtest]'s working directory. *)
let queries_dir () =
  match List.find_opt Sys.file_exists ["queries"; Filename.concat ".." "queries"] with
  | Some dir -> dir
  | None -> failwith "queries/ not found in the working directory or its parent"

let read_query name =
  let ic = open_in (Filename.concat (queries_dir ()) (name ^ ".gsql")) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let row_to_string row = String.concat "," (List.map Value.to_string (Array.to_list row))

let collect engine name =
  let rows = ref [] in
  Result.get_ok (E.on_tuple engine name (fun t -> rows := Array.copy t :: !rows));
  fun () -> List.rev_map row_to_string !rows

type workload = {
  wname : string;
  program : unit -> string;
  setup : seed:int -> E.t -> unit;
  outputs : string list;
  params : (string * Value.t) list;
}

let gen_cfg ~seed ~duration ~rate ?(interfaces = 1) () =
  {
    Traffic.Gen.default with
    rate_mbps = rate;
    duration;
    seed;
    interface_count = interfaces;
  }

let eth0_setup ~rate ~duration ~seed engine =
  E.add_generator_interface engine ~name:"eth0" (gen_cfg ~seed ~duration ~rate ())

let from_file ?(outputs = []) ?(params = []) ?(rate = 40.0) ?(duration = 1.0) name =
  {
    wname = name;
    program = (fun () -> read_query name);
    setup = eth0_setup ~rate ~duration;
    outputs;
    params;
  }

(* q3-style ordered join: the output-order-sensitive case. Two taps see
   overlapping traffic; the join has an explicit +-1s window, equality on
   three attributes, and ORDERED output — held pairs release strictly
   behind the watermark, so equal-timestamp matches exercise the
   content-sorted batch release. *)
let join_program =
  {|
  DEFINE { query_name bb; }
  SELECT time, srcip, destip, ident FROM backbone.ip WHERE ipversion = 4

  DEFINE { query_name cust; }
  SELECT time, srcip, destip, ident FROM custlink.ip WHERE ipversion = 4

  DEFINE { query_name matched; join_output ordered; }
  SELECT c.time as t, c.srcip as src
  FROM cust c, bb b
  WHERE c.time >= b.time - 1 and c.time <= b.time + 1
    and c.srcip = b.srcip and c.destip = b.destip and c.ident = b.ident

  DEFINE { query_name matched_per_sec; }
  SELECT tb, count(*) as cnt FROM matched GROUP BY t/1 as tb

  DEFINE { query_name bb_per_sec; }
  SELECT tb, count(*) as cnt FROM bb GROUP BY time/1 as tb
|}

let customer_prefix = Ipaddr.of_string "10.0.0.0"

let is_customer pkt =
  match Packet.ip_header pkt with
  | Some ip ->
      Ipaddr.in_prefix ip.Gigascope_packet.Ipv4.src ~prefix:customer_prefix ~len:8
  | None -> false

let join_setup ~seed engine =
  let cfg = gen_cfg ~seed ~duration:2.0 ~rate:2.0 () in
  E.add_interface engine ~name:"backbone"
    ~feed:(fun () ->
      let g = Traffic.Gen.create cfg in
      fun () -> Traffic.Gen.next g)
    ();
  E.add_interface engine ~name:"custlink"
    ~feed:(fun () ->
      let g = Traffic.Gen.create cfg in
      let rec pull () =
        match Traffic.Gen.next g with
        | Some p when is_customer p -> Some p
        | Some _ -> pull ()
        | None -> None
      in
      pull)
    ()

let link_merge_setup ~seed engine =
  E.add_split_interfaces engine ~names:["eth0"; "eth1"]
    (gen_cfg ~seed ~duration:1.0 ~rate:20.0 ~interfaces:2 ())

let sessions_setup ~seed engine =
  let g = Traffic.Gen.create (gen_cfg ~seed ~duration:2.0 ~rate:20.0 ()) in
  Result.get_ok
    (E.add_session_source engine ~name:"sessions" ~feed:(fun () -> Traffic.Gen.next g) ())

let workloads =
  [
    from_file "http_fraction" ~outputs:["port80"; "http80"];
    from_file "subnet_volume" ~outputs:["subnet_volume"];
    from_file "syn_flood" ~outputs:["syn_flood"] ~params:[("threshold", Value.Int 2)];
    from_file "tcpdest" ~outputs:["tcpdest0"; "portcounts"];
    {
      wname = "link_merge";
      program = (fun () -> read_query "link_merge");
      setup = link_merge_setup;
      outputs = ["t0"; "t1"; "link"; "volume"];
      params = [];
    };
    {
      wname = "sessions_report";
      program = (fun () -> read_query "sessions_report");
      setup = sessions_setup;
      outputs = ["session_sizes"];
      params = [];
    };
    {
      wname = "ordered_join";
      program = (fun () -> join_program);
      setup = join_setup;
      outputs = ["matched"; "matched_per_sec"; "bb_per_sec"];
      params = [];
    };
  ]

(* ------------------------------ execution ------------------------------- *)

let exec w ~seed ~parallel ?quantum ?(heartbeats = true) ?batch ?shards () =
  (* [quantum] is deliberately a pass-through: left unset, the scheduler
     floors its default quantum at the batch size, so the large-batch
     fuzz cases really move large batches. [shards] too: left unset,
     GIGASCOPE_SHARDS shards every workload the suite executes. *)
  let engine = E.create ?shards () in
  w.setup ~seed engine;
  (match E.install_program engine ~params:w.params (w.program ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s: install: %s" w.wname e));
  let collectors = List.map (fun n -> (n, collect engine n)) w.outputs in
  (match E.run engine ?quantum ~heartbeats ~parallel ?batch () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s: run: %s" w.wname e));
  (List.map (fun (n, get) -> (n, get ())) collectors, E.total_drops engine)

let assert_same ~label baseline got =
  List.iter2
    (fun (n, expected) (n', actual) ->
      assert (n = n');
      Alcotest.check
        Alcotest.(list string)
        (Printf.sprintf "%s output %s" label n)
        expected actual)
    baseline got
