(* The four workloads. Each one is a traffic shape, a query set and an
   execution configuration, chosen so that a change to one layer shows
   on one workload and not on another (see README.md for the argument
   behind each). Every knob the engine would otherwise read from a
   GIGASCOPE_* variable is fixed here. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Traffic = Gigascope_traffic
module Packet = Gigascope_packet.Packet
module Ipv4 = Gigascope_packet.Ipv4
module Tcp = Gigascope_packet.Tcp
module Udp = Gigascope_packet.Udp

(* The e2 query set of bench/main.ml, copied so that this benchmark
   keeps measuring the same program when that file changes. *)
let e2_program =
  {|
  DEFINE { query_name e2_port80cnt; }
  SELECT tb, count(*) as cnt
  FROM eth0.tcp
  WHERE ipversion = 4 and protocol = 6 and destport = 80
  GROUP BY time/1 as tb

  DEFINE { query_name e2_http; }
  SELECT tb, count(*) as cnt
  FROM eth0.tcp
  WHERE ipversion = 4 and protocol = 6 and destport = 80
    and str_match_regex(payload, '^[^\n]*HTTP/1.*') = TRUE
  GROUP BY time/1 as tb

  DEFINE { query_name e2_ports; }
  SELECT tb, destport, count(*) as cnt, sum(len) as bytes
  FROM eth0.tcp
  WHERE ipversion = 4
  GROUP BY time/1 as tb, destport

  DEFINE { query_name e2_subnets; }
  SELECT tb, truncate_ip(srcip, 16) as subnet, count(*) as cnt
  FROM eth0.tcp
  WHERE ipversion = 4
  GROUP BY time/1 as tb, truncate_ip(srcip, 16) as subnet

  DEFINE { query_name e2_flows; }
  SELECT tb, srcip, destip, srcport, destport, count(*) as pkts, sum(len) as bytes
  FROM eth0.tcp
  WHERE ipversion = 4
  GROUP BY time/1 as tb, srcip, destip, srcport, destport
|}

(* A pass-through selection: one output tuple per TCP packet, so every
   packet reaches a subscriber through the tuple-at-a-time path. *)
let tcp_sel_program =
  {|
  DEFINE { query_name tcp_sel; }
  SELECT time, srcip, destip, srcport, destport, len
  FROM eth0.tcp
  WHERE ipversion = 4 and protocol = 6
|}

let e2_queries = [ "e2_port80cnt"; "e2_http"; "e2_ports"; "e2_subnets"; "e2_flows" ]

type mode =
  | Flat_out  (** the feed hands over packets as fast as the engine pulls *)
  | Paced of { speedup : float }
      (** open loop: packet [i] is due at its timestamp's offset from the
          first packet's, divided by [speedup], after the run starts *)

type t = {
  name : string;
  traffic : Traffic.Gen.config;  (** [seed] and [duration] are set by [gen_config] *)
  n_packets : int;
      (** a count, not a duration: with on/off bursts the packet count of
          a fixed duration varied by 15% from seed to seed, and the heap
          growth with it *)
  seed_offset : int;
  queries : string list;
  program : string;
  batch : int;
  shards : int;
  domains : int;
  mode : mode;
  wire : string list;  (** queries delivered over loopback TCP instead of callbacks *)
}

(* 150 Mbit/s spreads 200,000 packets over five epochs, four of them
   closed by a later packet. With three epochs (300 Mbit/s) the p99
   close latency rested on the flush of two and spread by 11% over ten
   seeds. *)
let flow_local = { Traffic.Gen.default with Traffic.Gen.rate_mbps = 150.0; n_flows = 2048 }

let e2_local =
  {
    name = "e2_local";
    traffic = flow_local;
    n_packets = 200_000;
    seed_offset = 0;
    queries = e2_queries;
    program = e2_program;
    batch = 64;
    shards = 1;
    domains = 1;
    mode = Flat_out;
    wire = [];
  }

let e2_adversarial =
  {
    e2_local with
    name = "e2_adversarial";
    (* Steady arrivals, as a scan sends: with on/off bursts the packets
       per epoch, which here are the groups an epoch closes, varied from
       seed to seed, and close latency spread by 36%. *)
    traffic =
      { flow_local with Traffic.Gen.rate_mbps = 75.0; uniform_random = true; bursty = false };
    n_packets = 60_000;
    queries = e2_queries @ [ "tcp_sel" ];
    program = e2_program ^ tcp_sel_program;
    batch = 1;
  }

let e2_sharded = { e2_local with name = "e2_sharded"; shards = 2; domains = 2 }

let e2_paced_wire =
  {
    e2_local with
    name = "e2_paced_wire";
    (* Steady arrivals: replayed on its timestamps, a bursty traffic
       offered a load that, with the close latency, varied from seed to
       seed (p99 spread by 58%). *)
    traffic = { flow_local with Traffic.Gen.rate_mbps = 50.0; bursty = false };
    (* About 10 s of traffic, one pass a run: 2.5 s at 4x, so the median
       rests on about eight runs. A shorter traffic replayed several
       times a run spread the p99 close latency by 25% and the heap
       growth by 13% over ten seeds; one pass, by 7% and 1%. *)
    n_packets = 140_000;
    seed_offset = 2;
    mode = Paced { speedup = 4.0 };
    wire = [ "e2_flows"; "e2_subnets" ];
  }

let all = [ e2_local; e2_adversarial; e2_sharded; e2_paced_wire ]

(* How the host's speed is probed for Host to scale a flat-out run's
   times: by the feed during a run on one domain, and by two domains at
   once around a run on two, where the engine's threads take both vCPUs.
   A paced run is not probed: its wall time follows its schedule, and
   probes taken between the feed's sleeps tracked its close latency and
   CPU time worse than none did (README.md has the runs). *)
type probes = During | Around

let probes w = if w.domains = 1 then During else Around

let find name = List.find_opt (fun w -> w.name = name) all

(* Whether a generator's traffic has the workload's mix, judged over
   its first 10,000 packets.

   Gen draws each packet's flow as u^4 over the population, so the
   heaviest of 2048 flows carries about 15% of the packets and the next
   few 2-3% each. Which of them go to port 80 decided how many packets
   reach the port-80 queries, the regex among them, and how many of
   those carry no HTTP first line, which the regex scans to its end:
   over ten seeds of e2_local the port-80 share ran from 21% to 43%,
   and throughput spread by 12.9% (interquartile range over median).
   Whether the heaviest flow was UDP moved the words allocated per
   packet by 1.4%. A traffic is typical when its heaviest flow is TCP
   to a port other than 80, as about half are, and the other flows
   carry the configured shares to port 80 and with HTTP payloads
   within a point. README.md has the runs. *)
let typical (cfg : Traffic.Gen.config) =
  let n = 10_000 in
  let gen = Traffic.Gen.create cfg in
  let flows = Hashtbl.create 4096 in
  let port80 = ref 0 and http = ref 0 in
  for _ = 1 to n do
    match Traffic.Gen.next gen with
    | Some { Packet.net = Packet.Ipv4 (ip, transport); _ } ->
        let tcp, sport, dport =
          match transport with
          | Packet.Tcp (h, payload) ->
              if h.Tcp.dst_port = 80 then begin
                incr port80;
                if Check.http_first_line payload then incr http
              end;
              (true, h.Tcp.src_port, h.Tcp.dst_port)
          | Packet.Udp (h, _) -> (false, h.Udp.src_port, h.Udp.dst_port)
          | Packet.Icmp _ | Packet.Raw_transport _ -> (false, 0, 0)
        in
        let key = (ip.Ipv4.src, ip.Ipv4.dst, tcp, sport, dport) in
        Hashtbl.replace flows key (1 + Option.value ~default:0 (Hashtbl.find_opt flows key))
    | Some _ | None -> ()
  done;
  let (_, _, head_tcp, _, head_port), head =
    Hashtbl.fold
      (fun k c (bk, bc) -> if c > bc then (k, c) else (bk, bc))
      flows
      ((0, 0, false, 0, 0), 0)
  in
  let share k = float_of_int k /. float_of_int (n - head) in
  head_tcp && head_port <> 80
  && Float.abs (share !port80 -. cfg.port80_fraction) <= 0.01
  && Float.abs (share !http -. (cfg.port80_fraction *. cfg.http_fraction)) <= 0.01

(* The generator for [--seed]. A fresh 5-tuple per packet has no heavy
   flow, and over many packets it has the configured mix; with a flow
   population the seed is the first typical one from [1000 * seed] on,
   about one in twenty. *)
let gen_config w ~seed =
  let cfg = { w.traffic with Traffic.Gen.seed = seed + w.seed_offset; duration = infinity } in
  let rec first k =
    let c = { cfg with Traffic.Gen.seed = (cfg.Traffic.Gen.seed * 1000) + k } in
    if typical c then c else first (k + 1)
  in
  if cfg.Traffic.Gen.uniform_random then cfg else first 0

(* [scale] shrinks the traffic for --quick and the test. *)
let packets w ~seed ~scale =
  let gen = Traffic.Gen.create (gen_config w ~seed) in
  Array.init
    (max 1 (int_of_float (float_of_int w.n_packets *. scale)))
    (fun _ -> Option.get (Traffic.Gen.next gen))

(* The engine as the benchmark sets it up: every knob explicit. Local
   subscribers get [on_tuple]; [w.wire] queries are left for the
   network server. *)
let setup w ~feed ~on_tuple =
  let eng = E.create ~default_capacity:65536 ~shards:w.shards ~admit:E.Admit_warn () in
  E.add_interface eng ~name:"eth0" ~feed ();
  (match E.install_program eng w.program with
  | Ok _ -> ()
  | Error e -> failwith (w.name ^ ": install: " ^ e));
  List.iter
    (fun q ->
      if not (List.mem q w.wire) then
        match E.on_tuple eng q (on_tuple q) with
        | Ok () -> ()
        | Error e -> failwith (w.name ^ ": subscribe " ^ q ^ ": " ^ e))
    w.queries;
  eng

let run_engine ?(trace = false) w eng =
  E.run eng ~trace ~parallel:w.domains ~batch:w.batch ~shards:w.shards
    ~supervise:Rts.Supervisor.Fail_fast ~latency_sample:0 ~state_slack:0.0 ()
