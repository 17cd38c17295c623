(* gsq — the Gigascope command line.

     gsq run query.gsql [--rate 100] [--duration 2] [--seed 42] [--pcap in.pcap]
         [--stats] [--trace] [--metrics-out m.json] [--log-level info]
         compile and run GSQL over synthetic traffic or a capture file,
         printing the output stream(s); observability flags render the
         runtime metrics registry after the run

     gsq serve query.gsql --listen unix:/tmp/gsq.sock --listen :5577
         run as a stream-database server: remote clients list the
         installed queries and subscribe to their output streams over
         the binary wire protocol

     gsq tap ADDR [QUERY] [--format csv|json]
         subscribe to a query on a running gsq server and print its
         stream; without QUERY, list what the server offers

     gsq top ADDR [--interval 2] [--once]
         refreshing per-query view of a server's --http endpoint:
         throughput, queue depths, drops and ingest→deliver latency
         percentiles, computed from metrics-registry deltas

     gsq explain query.gsql
         show the logical plan, the LFTA/HFTA split, imputed ordering
         properties, NIC hints and generated pseudo-C

     gsq gen out.pcap [--rate 100] [--duration 2] [--seed 42]
         write synthetic traffic to a pcap file

     gsq cluster topo.conf query.gsql [--rows N] [--distinct K]
         run a distributed aggregation tree on loopback: the topology
         file's edge nodes sub-aggregate synthetic feeds, interior
         nodes merge partial aggregates (sketch states included), the
         root completes the query and prints it

     gsq e1
         run the Section-4 performance experiment
*)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Value = Rts.Value
module Metrics = Gigascope_obs.Metrics
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- shared options ---- *)

let rate =
  Arg.(value & opt float 100.0 & info ["rate"] ~docv:"MBPS" ~doc:"Offered load in Mbit/s.")

let duration =
  Arg.(value & opt float 2.0 & info ["duration"] ~docv:"SEC" ~doc:"Seconds of traffic.")

let seed = Arg.(value & opt int 42 & info ["seed"] ~docv:"N" ~doc:"Generator seed.")

let pcap_in =
  Arg.(
    value
    & opt (some string) None
    & info ["pcap"] ~docv:"FILE" ~doc:"Replay this capture file instead of generating traffic.")

let iface =
  Arg.(
    value & opt string "eth0"
    & info ["iface"] ~docv:"NAME" ~doc:"Interface name queries refer to (default eth0).")

let max_rows =
  Arg.(
    value & opt int 20
    & info ["max-rows"] ~docv:"N" ~doc:"Print at most N tuples per output stream.")

let stats =
  Arg.(
    value & flag
    & info ["stats"]
        ~doc:
          "Render the runtime metrics registry after the run (also on a failed or interrupted \
           run: whatever was measured up to that point).")

let trace =
  Arg.(
    value & flag
    & info ["trace"]
        ~doc:
          "Time every scheduler step and print an EXPLAIN-ANALYZE-style per-operator breakdown \
           (tuples, drops, cumulative service time, ns/tuple) after the run.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info ["metrics-out"] ~docv:"FILE"
        ~doc:
          "Write a metrics snapshot to FILE after the run (Prometheus text format when FILE \
           ends in .prom, JSON otherwise).")

let log_level =
  Arg.(
    value & opt string "warning"
    & info ["log-level"] ~docv:"LEVEL"
        ~doc:"Runtime log verbosity: quiet, app, error, warning, info or debug.")

let setup_logging level =
  Logs.set_reporter (Logs_fmt.reporter ());
  match Logs.level_of_string level with
  | Ok lvl -> Logs.set_level lvl
  | Error (`Msg m) ->
      prerr_endline ("bad --log-level: " ^ m);
      exit 2

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_metrics engine path =
  let snap = E.metrics_snapshot engine in
  let text =
    if Filename.check_suffix path ".prom" then Metrics.to_prometheus snap
    else Metrics.to_json snap
  in
  match
    let oc = open_out path in
    output_string oc text;
    close_out oc
  with
  | () -> Printf.printf "-- metrics written to %s\n" path
  | exception Sys_error e -> prerr_endline ("cannot write metrics: " ^ e)

let sessions =
  Arg.(
    value & flag
    & info ["sessions"]
        ~doc:
          "Additionally register a TCP-session stream named $(b,sessions) extracted from the \
           same traffic, for queries that aggregate whole connections.")

let query_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY.gsql")

(* Engine settings pass through as options, so the engine's one check
   sees every flag and an explicit --parallel 1 overrides the variable. *)
let parallel =
  Arg.(
    value & opt (some int) None
    & info ["parallel"] ~docv:"N"
        ~doc:
          "Run the query network on N OCaml domains: HFTAs on worker domains, as pipeline \
           stages placed from the query graph, sources and LFTAs on the packet-path domain. \
           Default $(b,GIGASCOPE_PARALLEL), else 1 (single-threaded); N below 1 warns and \
           runs with 1. Output is byte-identical to a single-threaded run.")

let batch =
  Arg.(
    value & opt (some int) None
    & info ["batch"] ~docv:"N"
        ~doc:
          "Batch the data plane: tuples move through channels, operators and the scheduler \
           in runs of up to N (control items seal a batch early, so punctuation keeps its \
           stream position). Default $(b,GIGASCOPE_BATCH), else 1 (tuple-at-a-time); N \
           below 1 warns and runs with 1. Output is byte-identical for every batch size.")

let shards_arg =
  Arg.(
    value & opt (some int) None
    & info ["shards"] ~docv:"N"
        ~doc:
          "Shard each query N ways: the LFTA chain is replicated per shard behind a \
           source-side hash partitioner and reunified through an order-preserving merge. \
           Combine with $(b,--parallel) to land the shards on distinct domains. Default \
           $(b,GIGASCOPE_SHARDS), else 1 (unsharded); N below 1 warns and runs with 1. \
           Output is byte-identical to an unsharded run; queries that cannot shard run \
           unsharded and $(b,--trace) reports why.")

let latency_sample_arg =
  Arg.(
    value & opt int 64
    & info ["latency-sample"] ~docv:"N"
        ~doc:
          "Stamp every Nth source tuple with its ingest time and record ingest-to-deliver \
           latency histograms, per query, under $(b,rts.latency.*) (and $(b,net.latency.*) \
           on a server). Unsampled tuples carry no stamp and cost nothing; 0 disables \
           sampling entirely. The percentiles surface through $(b,--stats), \
           $(b,--metrics-out), the $(b,--http) endpoint and $(b,gsq top).")

let inject =
  Arg.(
    value & opt (some string) None
    & info ["inject"] ~docv:"SPEC"
        ~doc:
          "Install a deterministic fault plan before the run (e.g.            $(b,seed=7,crash=total:3,torn=2)) — see the failure-model documentation for the            clause grammar. Also settable via $(b,GIGASCOPE_FAULTS). Same spec, same seed:            same faults, every run.")

(* A flag naming a value: an unknown name is a usage error. *)
let named of_string to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (of_string s)),
      fun fmt v -> Format.pp_print_string fmt (to_string v) )

let supervise_arg =
  Arg.(
    value
    & opt (some (named Rts.Supervisor.policy_of_string Rts.Supervisor.policy_to_string)) None
    & info ["supervise"] ~docv:"POLICY"
        ~doc:
          "Crash policy for query nodes: $(b,fail_fast) (default; the run stops with an \
           error naming the node), $(b,isolate) (poison only the crashing subtree — \
           downstream sees an explicit error marker and terminates), or $(b,restart) \
           (restart stateless operators in place, with a capped budget). An unknown \
           POLICY is a usage error.")

let allow_unbounded =
  Arg.(
    value & flag
    & info ["allow-unbounded"]
        ~doc:
          "Admit queries the memory certifier cannot bound (they install with a logged \
           warning naming the operator instead of being rejected). Without it, \
           $(b,gsq run) and $(b,gsq serve) refuse any plan without a finite state bound.")

let admit_of_flag allow_unbounded = if allow_unbounded then E.Admit_warn else E.Admit_reject

let watchdog_arg =
  Arg.(
    value
    & opt (some float) None
    & info ["watchdog"] ~docv:"SLACK"
        ~doc:
          "Arm the state watchdog: a query node found holding more than its certified \
           memory bound times SLACK (>= 1.0) is treated as crashed — the loss is announced \
           downstream as a gap marker and the $(b,--supervise) policy applies. 0 disables \
           (the default); any other SLACK below 1.0 warns and disables.")

let shed_arg =
  Arg.(
    value & opt (some float) None
    & info ["shed"] ~docv:"FRAC"
        ~doc:
          "Source-side load shedding: while any subscriber channel sits at or above this \
           fraction of its capacity (in (0,1]), sources discard incoming tuples, counting \
           them under rts.shed.* and announcing the loss downstream as a gap marker. A \
           FRAC outside (0,1] warns and sheds nothing.")

let install_inject inject =
  match inject with
  | None -> ()
  | Some spec -> (
      match Rts.Faults.parse spec with
      | Ok plan -> Rts.Faults.install plan
      | Error e ->
          prerr_endline ("--inject: " ^ e);
          exit 2)

(* ---- run ---- *)

(* Engine with traffic plumbing shared by `run` and `serve`: a pcap
   replay or generator interface, plus the optional session stream. *)
let setup_engine ~pcap_in ~iface ~gen_cfg ~sessions ~shards ~admit =
  let engine = E.create ?shards ~admit () in
  (match pcap_in with
  | Some path -> (
      match E.add_pcap_interface engine ~name:iface path with
      | Ok () -> ()
      | Error e ->
          prerr_endline e;
          exit 1)
  | None -> E.add_generator_interface engine ~name:iface gen_cfg);
  if sessions then begin
    let feed =
      match pcap_in with
      | Some path -> (
          match Gigascope_packet.Pcap.read_file path with
          | Ok (_, records) ->
              let remaining =
                ref
                  (List.filter_map
                     (fun (r : Gigascope_packet.Pcap.record) ->
                       Result.to_option
                         (Gigascope_packet.Packet.decode ~ts:r.Gigascope_packet.Pcap.ts
                            r.Gigascope_packet.Pcap.data))
                     records)
              in
              fun () ->
                (match !remaining with
                | [] -> None
                | p :: rest ->
                    remaining := rest;
                    Some p)
          | Error e ->
              prerr_endline e;
              exit 1)
      | None ->
          let g = Gigascope_traffic.Gen.create gen_cfg in
          fun () -> Gigascope_traffic.Gen.next g
    in
    match E.add_session_source engine ~name:"sessions" ~feed () with
    | Ok () -> ()
    | Error e ->
        prerr_endline e;
        exit 1
  end;
  engine

let do_run query_file rate duration seed pcap_in iface max_rows sessions show_stats trace
    metrics_out log_level parallel batch shards latency_sample inject supervise shed
    allow_unbounded watchdog =
  setup_logging log_level;
  install_inject inject;
  let text = read_file query_file in
  let gen_cfg = { Gigascope_traffic.Gen.default with rate_mbps = rate; duration; seed } in
  let engine =
    setup_engine ~pcap_in ~iface ~gen_cfg ~sessions ~shards ~admit:(admit_of_flag allow_unbounded)
  in
  match E.install_program engine text with
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
  | Ok instances ->
      let printed = Hashtbl.create 8 in
      (* with --parallel, each query's callback runs on the domain hosting
         its output node; the shared table and stdout need the lock *)
      let print_mu = Mutex.create () in
      List.iter
        (fun (inst : Gigascope_gsql.Codegen.instance) ->
          let name = inst.Gigascope_gsql.Codegen.inst_name in
          Result.get_ok
            (E.on_tuple engine name (fun tuple ->
                 Mutex.lock print_mu;
                 let n = Option.value (Hashtbl.find_opt printed name) ~default:0 in
                 Hashtbl.replace printed name (n + 1);
                 if n < max_rows then begin
                   Printf.printf "%s: " name;
                   Array.iteri
                     (fun i v ->
                       if i > 0 then print_string ", ";
                       print_string (Value.to_string v))
                     tuple;
                   print_newline ()
                 end;
                 Mutex.unlock print_mu)))
        instances;
      (* Whatever was measured prints even on a failed or interrupted run:
         a drop-rate question answered by "the run crashed" is no answer. *)
      let epilogue () =
        Hashtbl.iter (fun name n -> Printf.printf "-- %s: %d tuples\n" name n) printed;
        if trace then print_string (E.trace_report engine);
        if show_stats then print_string (Metrics.render (E.metrics_snapshot engine));
        Option.iter (write_metrics engine) metrics_out
      in
      Sys.catch_break true;
      (match
         E.run engine ~trace ?parallel ?batch ~latency_sample ?supervise ?shed
           ?state_slack:watchdog ()
       with
      | Ok stats ->
          Printf.printf "-- done: %d rounds, %d heartbeats, %d drops\n"
            stats.Rts.Scheduler.rounds stats.Rts.Scheduler.heartbeat_requests
            (E.total_drops engine);
          epilogue ()
      | Error e ->
          prerr_endline ("run error: " ^ e);
          Printf.printf "-- run failed; statistics up to the failure:\n";
          epilogue ();
          exit 1
      | exception Sys.Break ->
          prerr_endline "interrupted";
          Printf.printf "-- interrupted; statistics up to the interrupt:\n";
          epilogue ();
          exit 130)

let run_cmd =
  let doc = "compile and run GSQL over synthetic traffic or a pcap file" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const do_run $ query_file $ rate $ duration $ seed $ pcap_in $ iface $ max_rows
      $ sessions $ stats $ trace $ metrics_out $ log_level $ parallel $ batch $ shards_arg
      $ latency_sample_arg $ inject $ supervise_arg $ shed_arg $ allow_unbounded $ watchdog_arg)

(* ---- serve ---- *)

module Server = Gigascope_net.Server
module Client = Gigascope_net.Client
module Addr = Gigascope_net.Addr
module Http = Gigascope_net.Http

let listen_addrs =
  Arg.(
    non_empty & opt_all string []
    & info ["listen"] ~docv:"ADDR"
        ~doc:
          "Accept subscribers on ADDR: $(b,unix:/path.sock) or $(b,host:port) ($(b,:port) \
           for every interface, port 0 for a kernel-chosen port). Repeatable.")

let policy_arg =
  Arg.(
    value
    & opt (named Server.policy_of_string Server.policy_to_string) Server.Drop_newest
    & info ["policy"] ~docv:"POLICY"
        ~doc:
          "Slow-consumer policy when a subscriber's egress queue fills: $(b,block) the \
           engine, $(b,drop) the newest tuples (default; drops are counted under \
           net.subscriber.drops), or $(b,disconnect) the subscriber.")

let egress =
  Arg.(
    value & opt int 4096
    & info ["egress"] ~docv:"N" ~doc:"Per-subscriber egress queue capacity in items.")

let wait_subscribers =
  Arg.(
    value & opt int 0
    & info ["wait-subscribers"] ~docv:"N"
        ~doc:"Hold the traffic until N subscribers have attached, then start the run.")

let heartbeat_arg =
  Arg.(
    value & opt float 0.0
    & info ["heartbeat"] ~docv:"SEC"
        ~doc:
          "Send liveness frames to every subscriber at this interval (0 disables). A            subscriber with an idle timeout can then tell a quiet query from a dead            server.")

let http_addr =
  Arg.(
    value
    & opt (some string) None
    & info ["http"] ~docv:"ADDR"
        ~doc:
          "Serve a read-only observability endpoint on ADDR ($(b,unix:/path.sock) or \
           $(b,host:port)): $(b,/metrics) is the registry in Prometheus text format, \
           $(b,/stats) the same snapshot as JSON, $(b,/queries) the installed streams as \
           JSON. $(b,gsq top) and a Prometheus scraper read this endpoint.")

(* What /queries serves: the same listing the wire protocol's List request
   answers, as JSON for HTTP consumers. *)
let queries_json engine =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i node ->
      if i > 0 then Buffer.add_char buf ',';
      let kind =
        match Rts.Node.kind node with
        | Rts.Node.Source -> "source"
        | Rts.Node.Lfta -> "lfta"
        | Rts.Node.Hfta -> "hfta"
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"kind\":\"%s\",\"schema\":\"%s\"}"
           (json_escape (Rts.Node.name node))
           kind
           (json_escape
              (Format.asprintf "%a" Rts.Schema.pp (Rts.Node.schema node)))))
    (Rts.Manager.nodes (E.manager engine));
  Buffer.add_char buf ']';
  Buffer.contents buf

let ingests =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string string) []
    & info ["ingest"] ~docv:"NAME=PROTO"
        ~doc:
          "Register a network-fed source stream NAME with the schema of protocol PROTO \
           (see $(b,gsq catalog)); remote publishers feed it with $(b,Publish NAME). \
           Repeatable.")

let do_serve query_file rate duration seed pcap_in iface sessions show_stats trace
    metrics_out log_level parallel batch shards latency_sample listen_addrs policy
    egress wait_subscribers ingests heartbeat http_addr inject supervise shed allow_unbounded
    watchdog =
  setup_logging log_level;
  install_inject inject;
  let text = read_file query_file in
  let gen_cfg = { Gigascope_traffic.Gen.default with rate_mbps = rate; duration; seed } in
  let engine =
    setup_engine ~pcap_in ~iface ~gen_cfg ~sessions ~shards ~admit:(admit_of_flag allow_unbounded)
  in
  let server =
    Server.create ~policy ~egress_capacity:egress
      ?heartbeat:(if heartbeat > 0.0 then Some heartbeat else None)
      engine
  in
  List.iter
    (fun (name, proto) ->
      match Gigascope_gsql.Catalog.find_protocol (E.catalog engine) proto with
      | None ->
          prerr_endline ("unknown protocol for --ingest: " ^ proto);
          exit 1
      | Some p -> (
          match
            Server.add_ingest server ~name ~schema:p.Gigascope_gsql.Catalog.schema ()
          with
          | Ok () -> ()
          | Error e ->
              prerr_endline ("--ingest " ^ name ^ ": " ^ e);
              exit 1))
    ingests;
  (match E.install_program engine text with
  | Ok _ -> ()
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1);
  List.iter
    (fun addr_s ->
      match Result.bind (Addr.of_string addr_s) (Server.listen server) with
      | Ok bound -> Printf.printf "-- listening on %s\n%!" (Addr.to_string bound)
      | Error e ->
          prerr_endline ("listen " ^ addr_s ^ ": " ^ e);
          Server.stop server;
          exit 1)
    listen_addrs;
  let http =
    match http_addr with
    | None -> None
    | Some addr_s -> (
        let handler ~path =
          match path with
          | "/metrics" ->
              Some
                ( "text/plain; version=0.0.4; charset=utf-8",
                  Metrics.to_prometheus (E.metrics_snapshot engine) )
          | "/stats" -> Some ("application/json", Metrics.to_json (E.metrics_snapshot engine))
          | "/queries" -> Some ("application/json", queries_json engine)
          | _ -> None
        in
        let h = Http.create ~handler in
        match Result.bind (Addr.of_string addr_s) (Http.listen h) with
        | Ok bound ->
            Printf.printf "-- http on %s\n%!" (Addr.to_string bound);
            Some h
        | Error e ->
            prerr_endline ("http " ^ addr_s ^ ": " ^ e);
            Server.stop server;
            exit 1)
  in
  Sys.catch_break true;
  let epilogue () =
    if trace then print_string (E.trace_report engine);
    if show_stats then print_string (Metrics.render (E.metrics_snapshot engine));
    Option.iter (write_metrics engine) metrics_out
  in
  let finish code =
    (* A second Ctrl-C during the drain must not skip the epilogue: whoever
       asked for --stats or --metrics-out still gets whatever was measured. *)
    (match Server.drain server with
    | true -> ()
    | false -> Logs.warn (fun m -> m "timed out waiting for subscribers to drain")
    | exception Sys.Break -> prerr_endline "interrupted again; not waiting for drain");
    Server.stop server;
    Option.iter Http.stop http;
    epilogue ();
    exit code
  in
  (try
     while Server.subscriber_count server < wait_subscribers do
       Thread.delay 0.02
     done
   with Sys.Break ->
     prerr_endline "interrupted";
     finish 130);
  match
    E.run engine ~trace ?parallel ?batch ~latency_sample ?supervise ?shed ?state_slack:watchdog ()
  with
  | Ok stats ->
      Printf.printf "-- done: %d rounds, %d heartbeats, %d drops\n%!"
        stats.Rts.Scheduler.rounds stats.Rts.Scheduler.heartbeat_requests
        (E.total_drops engine);
      finish 0
  | Error e ->
      prerr_endline ("run error: " ^ e);
      finish 1
  | exception Sys.Break ->
      prerr_endline "interrupted";
      finish 130

let serve_cmd =
  let doc = "run as a stream-database server: remote clients subscribe over the wire" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const do_serve $ query_file $ rate $ duration $ seed $ pcap_in $ iface $ sessions
      $ stats $ trace $ metrics_out $ log_level $ parallel $ batch $ shards_arg
      $ latency_sample_arg $ listen_addrs $ policy_arg $ egress $ wait_subscribers $ ingests
      $ heartbeat_arg $ http_addr $ inject $ supervise_arg $ shed_arg $ allow_unbounded
      $ watchdog_arg)

(* ---- tap ---- *)

let json_of_value = function
  | Value.Null -> "null"
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else if Float.is_finite f then Printf.sprintf "%.17g" f
      else "null" (* nan/inf have no JSON spelling *)
  | Value.Str s -> "\"" ^ json_escape s ^ "\""
  | (Value.Ip _ | Value.Sketch _) as v -> "\"" ^ json_escape (Value.to_string v) ^ "\""

let tap_addr = Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR")

let tap_query = Arg.(value & pos 1 (some string) None & info [] ~docv:"QUERY")

let tap_format =
  Arg.(
    value
    & opt (enum [("csv", `Csv); ("json", `Json)]) `Csv
    & info ["format"] ~docv:"FMT" ~doc:"Output format: $(b,csv) (default) or $(b,json).")

let tap_max_rows =
  Arg.(
    value & opt int 0
    & info ["max-rows"] ~docv:"N" ~doc:"Stop after printing N tuples (0 = unlimited).")

let tap_reconnect =
  Arg.(
    value & opt int 0
    & info ["reconnect"] ~docv:"N"
        ~doc:
          "Self-heal a lost subscription: redial up to N times with exponential backoff            and resume from the last delivered tuple (missed tuples arrive as an explicit            gap marker). 0 (default) fails on the first connection loss.")

let tap_idle_timeout =
  Arg.(
    value & opt float 0.0
    & info ["idle-timeout"] ~docv:"SEC"
        ~doc:
          "Treat SEC seconds without any frame (data or heartbeat) as a dead connection            instead of waiting forever. Pair with the server's $(b,--heartbeat), using a            timeout of several heartbeat intervals.")

let do_tap addr_s query format max_rows log_level reconnect_n idle_timeout =
  setup_logging log_level;
  let fail e =
    prerr_endline ("tap: " ^ e);
    exit 1
  in
  let addr = match Addr.of_string addr_s with Ok a -> a | Error e -> fail e in
  let client =
    match
      Client.connect
        ?reconnect:
          (if reconnect_n > 0 then Some { Client.default_reconnect with attempts = reconnect_n }
           else None)
        ?idle_timeout:(if idle_timeout > 0.0 then Some idle_timeout else None)
        addr
    with
    | Ok c -> c
    | Error e -> fail e
  in
  match query with
  | None ->
      (match Client.list client with
      | Error e -> fail e
      | Ok qs ->
          List.iter
            (fun (q : Gigascope_net.Wire.query_info) ->
              Printf.printf "%-20s %-8s %s\n" q.Gigascope_net.Wire.q_name
                q.Gigascope_net.Wire.q_kind
                (Format.asprintf "%a" Rts.Schema.pp q.Gigascope_net.Wire.q_schema))
            qs);
      Client.close client
  | Some name -> (
      let schema = match Client.subscribe client name with Ok s -> s | Error e -> fail e in
      let fields = Rts.Schema.fields schema in
      let print_tuple tuple =
        match format with
        | `Csv ->
            Array.iteri
              (fun i v ->
                if i > 0 then print_string ",";
                print_string (Value.to_string v))
              tuple;
            print_newline ()
        | `Json ->
            print_char '{';
            Array.iteri
              (fun i v ->
                if i > 0 then print_string ", ";
                let fname =
                  if i < Array.length fields then fields.(i).Rts.Schema.name
                  else Printf.sprintf "f%d" i
                in
                Printf.printf "\"%s\": %s" (json_escape fname) (json_of_value v))
              tuple;
            print_string "}\n"
      in
      if format = `Csv then begin
        Array.iteri
          (fun i (f : Rts.Schema.field) ->
            if i > 0 then print_string ",";
            print_string f.Rts.Schema.name)
          fields;
        print_newline ()
      end;
      let rows = ref 0 in
      let rec go () =
        if max_rows > 0 && !rows >= max_rows then ()
        else
          match Client.next client with
          | Ok None -> ()
          | Ok (Some (Rts.Item.Tuple tuple)) ->
              print_tuple tuple;
              incr rows;
              go ()
          | Ok (Some _) -> go () (* punctuation / flush: not rows *)
          | Error e ->
              Client.close client;
              fail e
      in
      Sys.catch_break true;
      (try go () with Sys.Break -> ());
      Client.close client;
      Printf.printf "-- %d tuples\n%!" !rows)

let tap_cmd =
  let doc = "subscribe to a query on a running gsq server and print its stream" in
  Cmd.v (Cmd.info "tap" ~doc)
    Term.(
      const do_tap $ tap_addr $ tap_query $ tap_format $ tap_max_rows $ log_level
      $ tap_reconnect $ tap_idle_timeout)

(* ---- top ---- *)

(* A one-shot HTTP/1.0 GET against a serve --http endpoint. Blocking
   Unix sockets are fine here: the endpoint answers and closes. *)
let http_get addr path =
  match Addr.to_sockaddr addr with
  | Error e -> Error e
  | Ok sa -> (
      let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      let raw =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match
              Unix.connect fd sa;
              let req = Printf.sprintf "GET %s HTTP/1.0\r\nConnection: close\r\n\r\n" path in
              let rec send_all off =
                if off < String.length req then
                  send_all (off + Unix.write_substring fd req off (String.length req - off))
              in
              send_all 0;
              let buf = Buffer.create 4096 in
              let chunk = Bytes.create 4096 in
              let rec recv_all () =
                let n = Unix.read fd chunk 0 (Bytes.length chunk) in
                if n > 0 then begin
                  Buffer.add_subbytes buf chunk 0 n;
                  recv_all ()
                end
              in
              recv_all ();
              Buffer.contents buf
            with
            | raw -> Ok raw
            | exception Unix.Unix_error (e, fn, _) ->
                Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
      in
      match raw with
      | Error _ as e -> e
      | Ok raw -> (
          let len = String.length raw in
          let rec find i =
            if i + 3 >= len then None
            else if
              raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r' && raw.[i + 3] = '\n'
            then Some i
            else find (i + 1)
          in
          match find 0 with
          | None -> Error "malformed HTTP response"
          | Some i -> (
              let head = String.sub raw 0 i in
              let body = String.sub raw (i + 4) (len - i - 4) in
              let status =
                match String.index_opt head '\r' with
                | Some j -> String.sub head 0 j
                | None -> head
              in
              match String.split_on_char ' ' status with
              | _ :: "200" :: _ -> Ok body
              | _ :: code :: _ -> Error ("HTTP " ^ code ^ " for " ^ path)
              | _ -> Error ("bad status line: " ^ status))))

(* Pull every string value of [key] out of the /queries JSON, in document
   order. The endpoint is ours, so a targeted scan beats a JSON parser. *)
let json_string_fields key s =
  let pat = "\"" ^ key ^ "\":\"" in
  let plen = String.length pat and len = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i + plen <= len do
    if String.sub s !i plen = pat then begin
      let b = Buffer.create 16 in
      let j = ref (!i + plen) in
      let stop = ref false in
      while (not !stop) && !j < len do
        (match s.[!j] with
        | '\\' when !j + 1 < len ->
            incr j;
            Buffer.add_char b s.[!j]
        | '"' -> stop := true
        | c -> Buffer.add_char b c);
        incr j
      done;
      out := Buffer.contents b :: !out;
      i := !j
    end
    else incr i
  done;
  List.rev !out

let top_addr = Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR")

let top_interval =
  Arg.(
    value & opt float 2.0
    & info ["interval"] ~docv:"SEC" ~doc:"Seconds between refreshes (and the rate window).")

let top_once =
  Arg.(
    value & flag
    & info ["once"]
        ~doc:"Render a single frame (one rate window) and exit, without clearing the screen.")

let do_top addr_s interval once log_level =
  setup_logging log_level;
  let fail e =
    prerr_endline ("top: " ^ e);
    exit 1
  in
  let interval = if interval > 0.0 then interval else 2.0 in
  let addr = match Addr.of_string addr_s with Ok a -> a | Error e -> fail e in
  let fetch path = match http_get addr path with Ok b -> b | Error e -> fail e in
  let queries =
    let raw = fetch "/queries" in
    let names = json_string_fields "name" raw in
    let kinds = json_string_fields "kind" raw in
    List.mapi
      (fun i name -> (name, try List.nth kinds i with Failure _ -> "?"))
      names
  in
  let snap () =
    match Metrics.of_json (fetch "/stats") with
    | Ok s -> s
    | Error e -> fail ("bad /stats payload: " ^ e)
  in
  let counter s name =
    match Metrics.find s name with Some (Metrics.Counter n) -> n | _ -> 0
  in
  let gauge s name =
    match Metrics.find s name with Some (Metrics.Gauge g) -> g | _ -> 0.0
  in
  let hist s name =
    match Metrics.find s name with Some (Metrics.Histogram h) -> Some h | _ -> None
  in
  (* channel drops land on the consumer: "rts.chan.<src>-><dst>[...].drops" *)
  let drops_into s query =
    let marker = "->" ^ query in
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Metrics.Counter n
          when String.length name > 9
               && String.sub name 0 9 = "rts.chan."
               && Filename.check_suffix name ".drops" ->
            let mid = String.sub name 9 (String.length name - 9 - 6) in
            let mlen = String.length marker in
            let rec has i =
              if i + mlen > String.length mid then false
              else if String.sub mid i mlen = marker then
                (* full dest-name match: marker runs to the end of the
                   channel name or up to a dedup "#" suffix *)
                i + mlen = String.length mid || mid.[i + mlen] = '#'
              else has (i + 1)
            in
            if has 0 then acc + n else acc
        | _ -> acc)
      0 s
  in
  let pct h = (h.Metrics.h_p50 /. 1e6, h.Metrics.h_p90 /. 1e6, h.Metrics.h_p99 /. 1e6) in
  let render d =
    let buf = Buffer.create 2048 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    let t = Unix.localtime (Unix.gettimeofday ()) in
    line "gsq top — %s — %02d:%02d:%02d — window %.1fs" (Addr.to_string addr) t.Unix.tm_hour
      t.Unix.tm_min t.Unix.tm_sec interval;
    line "batch %.0f  domains %.0f  latency sample 1/%.0f  subscribers %.0f  connections %.0f"
      (Float.max 1.0 (gauge d "rts.scheduler.batch"))
      (Float.max 1.0 (gauge d "rts.scheduler.domains"))
      (gauge d "rts.scheduler.latency_sample")
      (gauge d "net.subscribers.active")
      (gauge d "net.connections.active");
    line "";
    line "%-24s %-7s %10s %7s %7s  %-22s %-22s" "QUERY" "KIND" "TUP/S" "BUF" "DROPS"
      "LAT p50/p90/p99 ms" "NET p50/p90/p99 ms";
    List.iter
      (fun (q, kind) ->
        let rate = float_of_int (counter d ("rts.node." ^ q ^ ".tuples_out")) /. interval in
        let buffered = gauge d ("rts.node." ^ q ^ ".buffered") in
        let drops = drops_into d q in
        let fmt_lat = function
          | Some h when h.Metrics.h_count > 0 ->
              let p50, p90, p99 = pct h in
              Printf.sprintf "%.2f/%.2f/%.2f" p50 p90 p99
          | _ -> "-"
        in
        line "%-24s %-7s %10.1f %7.0f %7d  %-22s %-22s" q kind rate buffered drops
          (fmt_lat (hist d ("rts.latency." ^ q)))
          (fmt_lat (hist d ("net.latency." ^ q))))
      queries;
    line "";
    line "net: gaps %d  sub drops %d  disconnects %d  heartbeats %d  ingest tup/s %.1f"
      (counter d "net.gaps")
      (counter d "net.subscriber.drops")
      (counter d "net.subscriber.disconnects")
      (counter d "net.heartbeats.sent")
      (float_of_int (counter d "net.ingest.tuples") /. interval);
    if not once then Buffer.add_string buf "\n(ctrl-c to quit)\n";
    if not once then print_string "\027[H\027[2J";
    print_string (Buffer.contents buf);
    flush stdout
  in
  Sys.catch_break true;
  try
    let before = ref (snap ()) in
    let continue = ref true in
    while !continue do
      Thread.delay interval;
      let after = snap () in
      render (Metrics.diff ~before:!before ~after);
      before := after;
      if once then continue := false
    done
  with Sys.Break -> print_newline ()

let top_cmd =
  let doc = "live per-query view of a running server: rates, queues, drops, latency" in
  Cmd.v (Cmd.info "top" ~doc) Term.(const do_top $ top_addr $ top_interval $ top_once $ log_level)

(* ---- explain ---- *)

let explain_memory =
  Arg.(
    value & flag
    & info ["memory"]
        ~doc:
          "Append the static memory certification: per-operator state bounds (group            tables, join windows, merge buffers, sketches) composed into a per-query bound,            or an UNBOUNDED diagnostic naming the operator, the missing ordering property            and the fixing rewrite.")

let do_explain query_file memory =
  let text = read_file query_file in
  let engine = E.create () in
  (* explain never pulls traffic, so an empty feed is enough to put the
     session-record schema in the catalog for queries FROM sessions *)
  ignore (E.add_session_source engine ~name:"sessions" ~feed:(fun () -> None) ());
  match Gigascope_gsql.Compile.compile_program (E.catalog engine) text with
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
  | Ok compiled ->
      List.iter (fun c -> print_endline (Gigascope_gsql.Compile.explain ~memory c)) compiled

let explain_cmd =
  let doc = "show plan, LFTA/HFTA split, ordering properties, memory bounds and pseudo-C" in
  Cmd.v (Cmd.info "explain" ~doc) Term.(const do_explain $ query_file $ explain_memory)

(* ---- gen ---- *)

let do_gen out rate duration seed =
  let gen =
    Gigascope_traffic.Gen.create
      { Gigascope_traffic.Gen.default with rate_mbps = rate; duration; seed }
  in
  let writer = Gigascope_packet.Pcap.open_writer out in
  let n = ref 0 in
  let rec go () =
    match Gigascope_traffic.Gen.next gen with
    | Some pkt ->
        Gigascope_packet.Pcap.write_packet writer pkt;
        incr n;
        go ()
    | None -> ()
  in
  go ();
  Gigascope_packet.Pcap.close_writer writer;
  Printf.printf "wrote %d packets to %s\n" !n out

let out_file = Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT.pcap")

let gen_cmd =
  let doc = "write synthetic traffic to a pcap capture file" in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const do_gen $ out_file $ rate $ duration $ seed)

(* ---- cluster ---- *)

module Cluster = Gigascope_cluster.Cluster
module Topology = Gigascope_cluster.Topology

(* Synthesize feed rows for one edge from the query's input schema:
   directional fields carry the epoch number (so GROUP BY time/1 closes
   groups), everything else is drawn from a [distinct]-bounded seeded
   space. A field literally named ipversion is pinned to 4, so the
   paper's idiomatic WHERE ipversion = 4 passes synthetic rows. *)
let synth_feed schema ~rows ~epochs ~distinct ~seed ~index =
  let fields = Rts.Schema.fields schema in
  let st = ref (((seed + 1) * 2654435761) + (index * 9973) + 1) in
  let rnd () =
    st := ((!st * 0x5851F42D4C957F2D) + 0x14057B7EF767814F) land max_int;
    (!st lsr 17) land 0xFFFFFF
  in
  let per_epoch = max 1 (rows / max 1 epochs) in
  let i = ref 0 in
  fun () ->
    if !i >= rows then None
    else begin
      let epoch = !i / per_epoch in
      incr i;
      Some
        (Array.map
           (fun (f : Rts.Schema.field) ->
             let directional =
               match f.Rts.Schema.order with
               | Rts.Order_prop.Strict _ | Rts.Order_prop.Monotone _
               | Rts.Order_prop.Banded _ ->
                   true
               | _ -> false
             in
             match (f.Rts.Schema.ty, directional) with
             | Rts.Ty.Int, true -> Value.Int epoch
             | Rts.Ty.Float, true -> Value.Float (float_of_int epoch)
             | Rts.Ty.Int, false ->
                 if String.lowercase_ascii f.Rts.Schema.name = "ipversion" then Value.Int 4
                 else Value.Int (rnd () mod distinct)
             | Rts.Ty.Ip, _ -> Value.Ip (0x0A000000 + (rnd () mod distinct))
             | Rts.Ty.Float, false -> Value.Float (float_of_int (rnd () mod distinct))
             | Rts.Ty.Str, _ -> Value.Str ("s" ^ string_of_int (rnd () mod distinct))
             | Rts.Ty.Bool, _ -> Value.Bool (rnd () mod 2 = 0)
             | Rts.Ty.Sketch, _ -> Value.Null)
           fields)
    end

let topology_file = Arg.(required & pos 0 (some string) None & info [] ~docv:"TOPOLOGY")

let cluster_query_file = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY.gsql")

let cluster_rows =
  Arg.(
    value & opt int 50_000
    & info ["rows"] ~docv:"N" ~doc:"Synthetic input rows fed to each edge node.")

let cluster_distinct =
  Arg.(
    value & opt int 10_000
    & info ["distinct"] ~docv:"K"
        ~doc:"Cardinality of each synthesized non-ordered field's value space.")

let cluster_epochs =
  Arg.(
    value & opt int 5
    & info ["epochs"] ~docv:"E" ~doc:"Epochs (distinct ordered-field values) per edge feed.")

let cluster_timeout =
  Arg.(
    value & opt float 60.0
    & info ["timeout"] ~docv:"SEC"
        ~doc:"Abort the whole tree if the run exceeds SEC seconds (the no-wedge guarantee).")

let do_cluster topo_path query_path rows distinct epochs seed timeout max_rows show_stats
    log_level =
  setup_logging log_level;
  let topo =
    match Topology.load topo_path with
    | Ok t -> t
    | Error e ->
        prerr_endline e;
        exit 1
  in
  let program = read_file query_path in
  let _, in_schema, out_schema =
    match Cluster.probe ~program with
    | Ok p -> p
    | Error e ->
        prerr_endline ("error: " ^ e);
        exit 1
  in
  let t =
    match
      Cluster.launch ~topo ~program
        ~feed:(fun ~edge:_ ~index -> synth_feed in_schema ~rows ~epochs ~distinct ~seed ~index)
        ()
    with
    | Ok t -> t
    | Error e ->
        prerr_endline ("error: " ^ e);
        exit 1
  in
  Printf.printf "-- cluster %s: %d nodes (%d edges, height %d), %d rows/edge\n%!"
    (Cluster.query_name t) (Topology.size topo)
    (List.length (Topology.leaves topo))
    (Topology.height topo) rows;
  let code =
    match Cluster.run ~timeout t with
    | Ok () -> 0
    | Error e ->
        prerr_endline ("run error: " ^ e);
        1
  in
  let names = Array.map (fun f -> f.Rts.Schema.name) (Rts.Schema.fields out_schema) in
  let shown = ref 0 and total = ref 0 in
  List.iter
    (function
      | Rts.Item.Tuple vs ->
          incr total;
          if max_rows = 0 || !shown < max_rows then begin
            incr shown;
            let cells =
              List.mapi
                (fun i v -> Printf.sprintf "\"%s\":%s" (json_escape names.(i)) (json_of_value v))
                (Array.to_list vs)
            in
            Printf.printf "{%s}\n" (String.concat "," cells)
          end
      | Rts.Item.Gap n -> Printf.printf "-- gap: %s tuples lost upstream\n"
            (if n < 0 then "unknown" else string_of_int n)
      | Rts.Item.Error e -> Printf.printf "-- upstream error: %s\n" e
      | _ -> ())
    (Cluster.results t);
  if max_rows > 0 && !total > !shown then
    Printf.printf "-- (%d more rows)\n" (!total - !shown);
  print_string (Cluster.report t);
  if show_stats then print_string (Metrics.render (Metrics.snapshot (Cluster.metrics t)));
  Cluster.shutdown t;
  exit code

let cluster_cmd =
  let doc =
    "run a distributed aggregation tree on loopback: edges sub-aggregate synthetic feeds, \
     interior nodes merge partials (sketches included), the root completes the query"
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(
      const do_cluster $ topology_file $ cluster_query_file $ cluster_rows $ cluster_distinct
      $ cluster_epochs $ seed $ cluster_timeout $ max_rows $ stats $ log_level)

(* ---- catalog ---- *)

let do_catalog () =
  let engine = E.create () in
  let catalog = E.catalog engine in
  print_endline "-- Protocols (bind as interface.protocol in FROM) --";
  List.iter
    (fun name ->
      match Gigascope_gsql.Catalog.find_protocol catalog name with
      | Some p ->
          Printf.printf "%-10s %s
" name
            (Format.asprintf "%a" Rts.Schema.pp p.Gigascope_gsql.Catalog.schema)
      | None -> ())
    (Gigascope_gsql.Catalog.protocol_names catalog);
  print_endline "
-- Functions --";
  let funcs = Rts.Manager.functions (E.manager engine) in
  List.iter
    (fun name ->
      match Rts.Func.find funcs name with
      | Some f ->
          Printf.printf "%-18s (%s) -> %s%s%s%s
" f.Rts.Func.name
            (String.concat ", " (List.map Rts.Ty.to_string f.Rts.Func.arg_tys))
            (Rts.Ty.to_string f.Rts.Func.ret_ty)
            (if f.Rts.Func.partial then "  [partial]" else "")
            (if f.Rts.Func.handle_args <> [] then "  [pass-by-handle]" else "")
            (if f.Rts.Func.cost = Rts.Func.Expensive then "  [expensive: HFTA only]" else "")
      | None -> ())
    (Rts.Func.names funcs)

let catalog_cmd =
  let doc = "list the built-in protocols and the function library" in
  Cmd.v (Cmd.info "catalog" ~doc) Term.(const do_catalog $ const ())

(* ---- e1 ---- *)

let do_e1 () = Gigascope_sim.Experiment.print_summary (Gigascope_sim.Experiment.run ())

let e1_cmd =
  let doc = "run the Section-4 performance experiment (four capture configurations)" in
  Cmd.v (Cmd.info "e1" ~doc) Term.(const do_e1 $ const ())

let () =
  let doc = "Gigascope: a stream database for network applications" in
  let info = Cmd.info "gsq" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            serve_cmd;
            cluster_cmd;
            tap_cmd;
            top_cmd;
            explain_cmd;
            gen_cmd;
            catalog_cmd;
            e1_cmd;
          ]))
