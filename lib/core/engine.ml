module Rts = Gigascope_rts
module Gsql = Gigascope_gsql
module Bpf = Gigascope_bpf
module Nic = Gigascope_nic.Nic
module Traffic = Gigascope_traffic
module P = Gigascope_packet
module Packet = P.Packet
module Value = Rts.Value
module Metrics = Gigascope_obs.Metrics

let log_src = Logs.Src.create "gigascope.engine" ~doc:"Gigascope engine lifecycle events"

module Log = (val Logs.src_log log_src : Logs.LOG)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

type nic_capability = Cap_none | Cap_bpf | Cap_lfta

type iface = {
  feed_factory : unit -> unit -> Packet.t option;
  nic : Nic.t;
  capability : nic_capability;
  mutable nic_configured : bool;
}

(* What a bound Protocol source interprets (Sections 2.2 and 3): the
   union of the fields its LFTAs read, and the payload only for packets
   that one of its payload-reading LFTAs' guards accepts. Each
   [bind_source] widens it, the way [configure_nic] widens the card. A
   consumer other than an LFTA (on_tuple, subscribe, a network
   subscriber) widens it to every field for good. The packet path reads
   only [sel]; the rest changes under [mu], since a network
   subscription widens it from a server thread while the engine runs. *)
type source = {
  proto : Default_protocols.t;
  mu : Mutex.t;
  mutable fields : int list;
  mutable guards : Gsql.Expr_ir.t list list;  (** one per distinct guard, in bind order *)
  mutable whole : bool;
  sel : Default_protocols.selection Atomic.t;
  payloads : Metrics.Counter.t;  (** payloads copied *)
}

(* Admission control: what happens when a plan's memory certification
   comes back unbounded. The library default is [Admit_warn] — the
   epoch-less flush-driven aggregation of Section 2.2 is a legitimate
   (if unbounded) embedded use; servers admitting arbitrary GSQL
   tighten to [Admit_reject]. *)
type admit = Admit_allow | Admit_warn | Admit_reject

type t = {
  mgr : Rts.Manager.t;
  catalog : Gsql.Catalog.t;
  interfaces : (string, iface) Hashtbl.t;
  sources : (string, source) Hashtbl.t;  (** bound Protocol sources, by lowercase name *)
  mutable next_seed : int;
  shards : int;
  default_capacity : int;
  admit : admit;
  mutable shard_infos : Gsql.Split.shard_info list;
  mutable shard_notes : (string * string) list;
      (** queries that could not shard, with the splitter's reason *)
  mutable certs : (string * Gsql.Certify.t) list;
      (** memory certificates of installed queries, in install order *)
}

let admit_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "allow" -> Ok Admit_allow
  | "warn" -> Ok Admit_warn
  | "reject" -> Ok Admit_reject
  | _ -> Error (Printf.sprintf "unknown admission mode %S (allow|warn|reject)" s)

let admit_to_string = function
  | Admit_allow -> "allow"
  | Admit_warn -> "warn"
  | Admit_reject -> "reject"

(* ---------------- settings --------------------------------------------- *)

(* Every engine setting, in one table. A value comes from the [create] or
   [run] argument, else from the setting's variable (an empty one counts
   as unset), else from the default. A value that fails the check, by
   either route, is warned about by name and replaced by the default:
   PARALLEL=abc quietly run on one domain would void what the CI matrix
   claims to test, and a shed fraction of 0 quietly discards nearly
   every tuple. Sharding, admission and the default channel capacity
   shape plans at install time, so those three resolve in [create]; the
   rest in every [run]. *)
module Setting = struct
  type 'a t = {
    name : string;  (** the [create]/[run] argument *)
    var : (string * (string -> ('a, string) result)) option;
        (** the variable and its parser, for a setting that keeps one *)
    default : 'a;
    check : 'a -> (unit, string) result;
    show : 'a -> string;
  }

  type any = Any : 'a t -> any

  let require ok why = if ok then Ok () else Error why
  let anything _ = Ok ()

  let int s =
    match int_of_string_opt (String.trim s) with Some n -> Ok n | None -> Error "not an integer"

  let at_least_1 n = require (n >= 1) "must be a positive integer"

  let positive ?var ?(default = 1) name =
    {
      name;
      var = Option.map (fun v -> (v, int)) var;
      default;
      check = at_least_1;
      show = string_of_int;
    }

  let shards = positive ~var:"GIGASCOPE_SHARDS" "shards"
  let parallel = positive ~var:"GIGASCOPE_PARALLEL" "parallel"
  let batch = positive ~var:"GIGASCOPE_BATCH" "batch"
  let default_capacity = positive ~default:4096 "default_capacity"

  (* Unset, the scheduler picks max 64 batch. *)
  let quantum =
    {
      name = "quantum";
      var = None;
      default = None;
      check = (function None -> Ok () | Some q -> at_least_1 q);
      show = (function None -> "max(64, batch)" | Some q -> string_of_int q);
    }

  let admit =
    {
      name = "admit";
      var = Some ("GIGASCOPE_ADMIT", admit_of_string);
      default = Admit_warn;
      check = anything;
      show = admit_to_string;
    }

  (* The fault plan has no argument: [gsq --inject] and the tests install
     theirs directly, and a set variable re-installs its plan, hit
     counters reset, at the start of every run. *)
  let faults =
    {
      name = "faults";
      var = Some ("GIGASCOPE_FAULTS", fun s -> Result.map Option.some (Rts.Faults.parse s));
      default = None;
      check = anything;
      show = (function None -> "none" | Some plan -> Rts.Faults.to_string plan);
    }

  let supervise =
    {
      name = "supervise";
      var = None;
      default = Rts.Supervisor.Fail_fast;
      check = anything;
      show = Rts.Supervisor.policy_to_string;
    }

  let shed =
    {
      name = "shed";
      var = None;
      default = None;
      check =
        (function
        | None -> Ok () | Some f -> require (f > 0.0 && f <= 1.0) "must be a fraction in (0,1]");
      show = (function None -> "off" | Some f -> Printf.sprintf "%g" f);
    }

  let latency_sample =
    {
      name = "latency_sample";
      var = None;
      default = 0;
      check = (fun n -> require (n >= 0) "must be a non-negative integer");
      show = string_of_int;
    }

  let state_slack =
    {
      name = "state_slack";
      var = None;
      default = 0.0;
      check = (fun f -> require (f = 0.0 || f >= 1.0) "must be 0 (off) or a slack >= 1.0");
      show = Printf.sprintf "%g";
    }

  let table =
    [
      Any shards; Any admit; Any default_capacity; Any parallel; Any batch; Any quantum;
      Any faults; Any supervise; Any shed; Any latency_sample; Any state_slack;
    ]

  let variables = List.filter_map (fun (Any s) -> Option.map fst s.var) table

  let resolve s explicit =
    let checked what r =
      match Result.bind r (fun v -> Result.map (fun () -> v) (s.check v)) with
      | Ok v -> v
      | Error why ->
          Log.warn (fun m -> m "ignoring %s: %s; using %s" what why (s.show s.default));
          s.default
    in
    match (explicit, s.var) with
    | Some v, _ -> checked (s.name ^ "=" ^ s.show v) (Ok v)
    | None, None -> s.default
    | None, Some (var, parse) -> (
        match Sys.getenv_opt var with
        | None | Some "" -> s.default
        | Some raw -> checked (Printf.sprintf "%s=%S" var raw) (parse raw))

  (* A GIGASCOPE_* variable the table does not read, retired or
     misspelt, is outside input that would otherwise be dropped without
     a word. *)
  let warn_unread () =
    Array.iter
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i ->
            let var = String.sub kv 0 i in
            let raw = String.sub kv (i + 1) (String.length kv - i - 1) in
            if
              String.starts_with ~prefix:"GIGASCOPE_" var
              && raw <> ""
              && not (List.mem var variables)
            then
              Log.warn (fun m ->
                  m "ignoring %s=%S: the engine reads no such variable (only %s)" var raw
                    (String.concat ", " variables))
        | None -> ())
      (Unix.environment ())

  let show_as s v = s.name ^ " " ^ s.show v
end

let create ?default_capacity ?shards ?admit () =
  Setting.warn_unread ();
  let default_capacity = Setting.resolve Setting.default_capacity default_capacity in
  let mgr = Rts.Manager.create ~default_capacity () in
  let catalog = Gsql.Catalog.create (Rts.Manager.functions mgr) in
  Default_protocols.register catalog;
  let shards = Setting.resolve Setting.shards shards in
  let admit = Setting.resolve Setting.admit admit in
  {
    mgr;
    catalog;
    interfaces = Hashtbl.create 8;
    sources = Hashtbl.create 8;
    next_seed = 0x517;
    shards;
    default_capacity;
    admit;
    shard_infos = [];
    shard_notes = [];
    certs = [];
  }

let shards t = t.shards

let manager t = t.mgr
let catalog t = t.catalog
let metrics t = Rts.Manager.metrics t.mgr
let metrics_snapshot t = Metrics.snapshot (Rts.Manager.metrics t.mgr)

let register_function t f = Rts.Func.register (Rts.Manager.functions t.mgr) f

let add_interface t ~name ?(capability = Cap_none) ~feed () =
  Log.debug (fun m -> m "interface %s added" name);
  Hashtbl.replace t.interfaces (String.lowercase_ascii name)
    { feed_factory = feed; nic = Nic.create (); capability; nic_configured = false }

let add_packet_list_interface t ~name ?capability packets =
  add_interface t ~name ?capability ~feed:(fun () ->
      let remaining = ref packets in
      fun () ->
        match !remaining with
        | [] -> None
        | p :: rest ->
            remaining := rest;
            Some p)
    ()

let add_generator_interface t ~name ?capability cfg =
  add_interface t ~name ?capability ~feed:(fun () ->
      let gen = Traffic.Gen.create cfg in
      fun () -> Traffic.Gen.next gen)
    ()

let add_split_interfaces t ~names ?capability cfg =
  List.iteri
    (fun k name ->
      add_interface t ~name ?capability ~feed:(fun () ->
          let gen = Traffic.Gen.create cfg in
          let rec pull () =
            match Traffic.Gen.next_with_interface gen with
            | None -> None
            | Some (pkt, iface) -> if iface = k then Some pkt else pull ()
          in
          pull)
        ())
    names

let add_pcap_interface t ~name ?capability path =
  match P.Pcap.read_file path with
  | Error _ as e -> e
  | Ok (_, records) ->
      let packets =
        List.filter_map
          (fun (r : P.Pcap.record) ->
            match Packet.decode ~ts:r.P.Pcap.ts ~wire_len:r.P.Pcap.orig_len r.P.Pcap.data with
            | Ok pkt -> Some pkt
            | Error _ -> None)
          records
      in
      add_packet_list_interface t ~name ?capability packets;
      Ok ()

let add_defrag_interface t ~name ?capability ?reassembly_timeout ~feed () =
  add_interface t ~name ?capability ~feed:(fun () ->
      let inner = feed () in
      let reasm = P.Frag.create_reassembler ?timeout:reassembly_timeout () in
      let rec pull () =
        match inner () with
        | None -> None
        | Some pkt -> (
            match P.Frag.push reasm pkt with
            | Some whole -> Some whole
            | None -> pull () (* partial datagram: keep reading *))
      in
      pull)
    ()

let add_custom_source t ~name ~schema ~pull ~clock =
  let* _node = Rts.Manager.add_source t.mgr ~name ~schema { Rts.Node.pull; clock } in
  Gsql.Catalog.add_stream t.catalog ~name schema;
  Ok ()

let add_session_source t ~name ?idle_timeout ~feed () =
  let pull, clock = Sessions.source ?idle_timeout feed in
  add_custom_source t ~name ~schema:Sessions.schema ~pull ~clock

let nic_of t name =
  Option.map (fun i -> i.nic) (Hashtbl.find_opt t.interfaces (String.lowercase_ascii name))

(* ---------------- source binding --------------------------------------- *)

let configure_nic iface (hint : Gsql.Split.nic_hint option) =
  let desired =
    match (iface.capability, hint) with
    | Cap_none, _ | _, None -> Nic.Dumb
    | Cap_bpf, Some { Gsql.Split.nic_filter; snap_len; _ } ->
        Nic.Filtering
          {
            prog = Option.map (fun f -> Bpf.Filter.compile ~snap_len f) nic_filter;
            snap_len;
          }
    | Cap_lfta, Some { Gsql.Split.nic_filter; snap_len; _ } ->
        Nic.Programmable
          {
            prog = Option.map (fun f -> Bpf.Filter.compile ~snap_len f) nic_filter;
            snap_len;
          }
  in
  if iface.nic_configured then Nic.widen iface.nic desired
  else begin
    Nic.set_mode iface.nic desired;
    iface.nic_configured <- true
  end

(* Any guard accepts: a loop, so the per-packet check allocates no
   closure. *)
let rec any_accepts guards tup i =
  i < Array.length guards && ((Array.unsafe_get guards i) tup || any_accepts guards tup (i + 1))

(* Recompute the selection the packet path reads. Guards read no $param
   and call nothing (see [Split.nic_hint]), so they compile against an
   empty parameter table and never change after compilation. *)
let reselect src =
  let count_copy () =
    Metrics.Counter.incr src.payloads;
    true
  in
  let sel =
    if src.whole then
      { Default_protocols.every_field with copy_payload = (fun _ -> count_copy ()) }
    else if List.mem [] src.guards then
      Default_protocols.selection_of_fields src.fields ~copy_payload:(fun _ -> count_copy ())
    else
      let params = Hashtbl.create 0 in
      let compile g =
        Result.get_ok (Gsql.Codegen.compile_pred ~params (Option.get (Gsql.Expr_ir.conjoin g)))
      in
      let guards = Array.of_list (List.map compile src.guards) in
      Default_protocols.selection_of_fields src.fields ~copy_payload:(fun tup ->
          any_accepts guards tup 0 && count_copy ())
  in
  Atomic.set src.sel sel

(* Widen what [src] interprets by one LFTA's needs; [None] (no hint)
   reads every field. *)
let widen_source src (hint : Gsql.Split.nic_hint option) =
  Mutex.protect src.mu (fun () ->
      (match hint with
      | None -> src.whole <- true
      | Some h ->
          src.fields <- List.sort_uniq compare (h.Gsql.Split.fields_needed @ src.fields);
          Option.iter
            (fun g ->
              if not (List.exists (List.equal Gsql.Expr_ir.equal g) src.guards) then
                src.guards <- src.guards @ [ g ])
            h.Gsql.Split.payload_guard);
      reselect src)

let note_direct_consumer t name =
  match Hashtbl.find_opt t.sources (String.lowercase_ascii name) with
  | Some src when not src.whole ->
      Mutex.protect src.mu (fun () ->
          src.whole <- true;
          reselect src)
  | Some _ | None -> ()

let bind_source t ~interface ~protocol ~nic =
  let source_name = interface ^ "." ^ protocol in
  match Rts.Manager.find t.mgr source_name with
  | Some _ ->
      (match Hashtbl.find_opt t.interfaces (String.lowercase_ascii interface) with
      | Some iface -> configure_nic iface nic
      | None -> ());
      Option.iter
        (fun src -> widen_source src nic)
        (Hashtbl.find_opt t.sources (String.lowercase_ascii source_name));
      Ok source_name
  | None -> (
      match
        ( Hashtbl.find_opt t.interfaces (String.lowercase_ascii interface),
          Default_protocols.find protocol )
      with
      | None, _ -> err "unknown interface %s" interface
      | _, None -> err "no interpretation library for protocol %s" protocol
      | Some iface, Some proto ->
          configure_nic iface nic;
          let src =
            {
              proto;
              mu = Mutex.create ();
              fields = [];
              guards = [];
              whole = false;
              sel = Atomic.make Default_protocols.every_field;
              payloads = Metrics.Counter.make ();
            }
          in
          widen_source src nic;
          let feed = iface.feed_factory () in
          let last_ts = ref nan in
          let rec pull () =
            match feed () with
            | None -> None
            | Some pkt -> (
                last_ts := pkt.Packet.ts;
                let delivered =
                  match Nic.mode iface.nic with
                  | Nic.Dumb ->
                      (* A dumb card passes the packet whole: only its
                         length reaches the counters, so no wire bytes. *)
                      Nic.deliver_whole iface.nic (Packet.encoded_len pkt);
                      Some pkt
                  | Nic.Filtering _ | Nic.Programmable _ -> (
                      (* the card's BPF program and snap length work on
                         wire bytes *)
                      let wire = Packet.encode pkt in
                      match Nic.deliver iface.nic wire with
                      | None -> None
                      | Some snapped -> (
                          match
                            Packet.decode ~ts:pkt.Packet.ts ~wire_len:(Bytes.length wire) snapped
                          with
                          | Ok p -> Some p
                          | Error _ -> None))
                in
                match delivered with
                | None -> pull ()
                | Some p -> (
                    match proto.Default_protocols.interpret_selected (Atomic.get src.sel) p with
                    | Some tuple -> Some (Rts.Item.Tuple tuple)
                    | None -> pull ()))
          in
          let clock () =
            if Float.is_nan !last_ts then []
            else
              List.map
                (fun (idx, f) -> (idx, f !last_ts))
                proto.Default_protocols.clock_fields
          in
          let* _node =
            Rts.Manager.add_source t.mgr ~name:source_name
              ~schema:proto.Default_protocols.catalog_entry.Gsql.Catalog.schema
              { Rts.Node.pull; clock }
          in
          Hashtbl.replace t.sources (String.lowercase_ascii source_name) src;
          Metrics.attach_counter (metrics t)
            (Printf.sprintf "rts.node.%s.payloads" source_name)
            src.payloads;
          Ok source_name)

let binder t = { Gsql.Codegen.bind_source = (fun ~interface ~protocol ~nic -> bind_source t ~interface ~protocol ~nic) }

(* ---------------- program installation --------------------------------- *)

let fresh_seed t =
  t.next_seed <- t.next_seed + 0x9e37;
  t.next_seed

(* Per-shard acceptance counters, an aggregate skew gauge
   (max_shard * n / total: 1.0 = perfectly even, n = everything on one
   shard), and the reunification merge's buffering/reorder-lag metrics,
   all under the rts.shard.<query> prefix. *)
let register_shard_metrics t (inst : Gsql.Codegen.instance) (info : Gsql.Split.shard_info) =
  let m = metrics t in
  let q = info.Gsql.Split.squery in
  Array.iteri
    (fun i c -> Metrics.attach_counter m (Printf.sprintf "rts.shard.%s.%d.tuples" q i) c)
    info.Gsql.Split.stuples;
  Metrics.attach_gauge_fn m (Printf.sprintf "rts.shard.%s.skew" q) (fun () ->
      let counts = Array.map Metrics.Counter.get info.Gsql.Split.stuples in
      let total = Array.fold_left ( + ) 0 counts in
      if total = 0 then 0.0
      else
        let hi = Array.fold_left max 0 counts in
        float_of_int (hi * Array.length counts) /. float_of_int total);
  match List.assoc_opt info.Gsql.Split.sreunify inst.Gsql.Codegen.merges with
  | Some merge ->
      Rts.Merge_op.register_metrics merge m ~prefix:(Printf.sprintf "rts.shard.%s.reunify" q)
  | None -> ()

(* A stream feeding a node is either another node of the same split or
   an already-installed query (composition by name); its certified
   single-step burst sizes the channel between them. *)
let upstream_burst t cert stream =
  let b = Gsql.Certify.burst cert stream in
  if b > 1 then b
  else List.fold_left (fun acc (_, c) -> max acc (Gsql.Certify.burst c stream)) b t.certs

(* Room above the certified burst for control items and a straggler
   batch — sizing exactly at the burst would drop the tuple that rides
   in with the sealing punctuation. *)
let burst_headroom = 64

(* Install one split result, shard-rewriting it first when the engine
   was created with [shards > 1]. A plan the splitter cannot shard
   installs unchanged and the reason is kept for [trace_report] — the
   same never-silent stance as the settings.

   Installation is also the admission gate: the (post-shard) physical
   plan is certified, an unbounded verdict is warned about or rejected
   per the engine's admission mode, channels are auto-sized from the
   certified bursts, and each node gets its certified state bound for
   the [rts.state.*] gauges and the watchdog. *)
let install_split t ?params split =
  let install s =
    let cert = Gsql.Certify.certify s in
    let* () =
      match (Gsql.Certify.finite cert, t.admit) with
      | true, _ | false, Admit_allow -> Ok ()
      | false, Admit_warn ->
          List.iter
            (fun u ->
              Log.warn (fun m ->
                  m "query %s admitted without a memory bound: %s"
                    cert.Gsql.Certify.cquery (Gsql.Certify.diagnostic u)))
            (Gsql.Certify.unbounded_nodes cert);
          Ok ()
      | false, Admit_reject ->
          let diag =
            match Gsql.Certify.unbounded_nodes cert with
            | u :: _ -> Gsql.Certify.diagnostic u
            | [] -> "no finite bound"
          in
          err "query %s rejected: %s (install with --allow-unbounded / admit=warn to run it \
               anyway)"
            cert.Gsql.Certify.cquery diag
    in
    let phys_names =
      List.map (fun p -> String.lowercase_ascii p.Gsql.Split.pname) s.Gsql.Split.phys
    in
    let chan_capacity name =
      match
        List.find_opt
          (fun (p : Gsql.Split.phys_node) -> p.Gsql.Split.pname = name)
          s.Gsql.Split.phys
      with
      | None -> None
      | Some p ->
          let b =
            List.fold_left
              (fun acc input ->
                match input with
                | Gsql.Plan.From_stream { stream; _ }
                  when List.mem (String.lowercase_ascii stream) phys_names
                       || List.exists
                            (fun (_, c) -> Gsql.Certify.burst c stream > 1)
                            t.certs ->
                    max acc (upstream_burst t cert stream)
                | Gsql.Plan.From_stream _ | Gsql.Plan.From_protocol _ -> acc)
              0
              (Gsql.Plan.inputs_of_body p.Gsql.Split.pbody)
          in
          if b > 0 then Some (b + burst_headroom) else None
    in
    let* inst =
      Gsql.Codegen.install t.mgr ~source_binder:(binder t) ?params ~seed:(fresh_seed t)
        ~chan_capacity s
    in
    List.iter
      (fun (p : Gsql.Split.phys_node) ->
        match Rts.Manager.find t.mgr p.Gsql.Split.pname with
        | Some node -> (
            match Gsql.Certify.node_bound cert p.Gsql.Split.pname with
            | Some b -> Rts.Node.set_state_bound node b
            | None -> ())
        | None -> ())
      s.Gsql.Split.phys;
    t.certs <- t.certs @ [ (cert.Gsql.Certify.cquery, cert) ];
    Ok inst
  in
  if t.shards < 2 then install split
  else
    match Gsql.Split.shard ~shards:t.shards split with
    | Ok (sharded, info) ->
        let* inst = install sharded in
        t.shard_infos <- t.shard_infos @ [ info ];
        register_shard_metrics t inst info;
        Ok inst
    | Error reason ->
        t.shard_notes <- t.shard_notes @ [ (split.Gsql.Split.plan.Gsql.Plan.name, reason) ];
        install split

let install_compiled t ?params (c : Gsql.Compile.compiled) =
  (* hoisted FROM subqueries install first so the main query can subscribe *)
  let rec go = function
    | [] -> install_split t ?params c.Gsql.Compile.split
    | (h : Gsql.Compile.compiled) :: rest ->
        let* _helper = install_split t ?params h.Gsql.Compile.split in
        go rest
  in
  let result = go c.Gsql.Compile.helpers in
  (match result with
  | Ok inst ->
      Metrics.Counter.incr (Metrics.counter (metrics t) "engine.queries_installed");
      Log.info (fun m ->
          m "installed query %s (%d nodes)" inst.Gsql.Codegen.inst_name
            (List.length inst.Gsql.Codegen.node_names))
  | Error e -> Log.err (fun m -> m "query install failed: %s" e));
  result

let install_program t ?params text =
  let* compiled = Gsql.Compile.compile_program t.catalog text in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (c : Gsql.Compile.compiled) :: rest ->
        let* inst = install_compiled t ?params c in
        go (inst :: acc) rest
  in
  go [] compiled

let install_query t ?params ?name text =
  let* c = Gsql.Compile.compile_query t.catalog ?name text in
  install_compiled t ?params c

let explain t ?memory ?name text =
  let* c = Gsql.Compile.compile_query t.catalog ?name text in
  Ok (Gsql.Compile.explain ?memory c)

let cert_of t name =
  List.find_opt
    (fun (q, _) -> String.lowercase_ascii q = String.lowercase_ascii name)
    t.certs

let certified_burst t name =
  match cert_of t name with Some (_, c) -> Gsql.Certify.query_burst c | None -> 1

let certificate t name = Option.map snd (cert_of t name)

let admit_mode t = t.admit

(* Subscriber rings auto-size like inter-node channels: at least the
   default, grown to cover the query's certified single-step burst. An
   explicit capacity wins. *)
let subscribe t ?capacity name =
  let capacity =
    match capacity with
    | Some _ as c -> c
    | None -> (
        match cert_of t name with
        | Some (_, c) ->
            Some (max t.default_capacity (Gsql.Certify.query_burst c + burst_headroom))
        | None -> None)
  in
  note_direct_consumer t name;
  Rts.Manager.subscribe t.mgr ?capacity name

let on_tuple t name f =
  note_direct_consumer t name;
  Rts.Manager.on_item t.mgr name (function
    | Rts.Item.Tuple values -> f values
    | Rts.Item.Punct _ | Rts.Item.Flush | Rts.Item.Eof | Rts.Item.Error _ | Rts.Item.Gap _ -> ())

let run t ?quantum ?heartbeats ?on_round ?trace ?parallel ?batch ?supervise ?shed ?latency_sample
    ?state_slack ?shards () =
  let* () =
    match shards with
    | Some n when max 1 n <> t.shards ->
        err
          "run: shards=%d but the engine was created with shards=%d (sharding rewrites plans \
           at install time; pass ~shards to Engine.create)"
          n t.shards
    | _ -> Ok ()
  in
  let module S = Setting in
  let domains = S.resolve S.parallel parallel in
  let batch = S.resolve S.batch batch in
  let quantum = S.resolve S.quantum (Option.map Option.some quantum) in
  let policy = S.resolve S.supervise supervise in
  let shed = S.resolve S.shed (Option.map Option.some shed) in
  let latency_sample = S.resolve S.latency_sample latency_sample in
  let state_slack = S.resolve S.state_slack state_slack in
  Option.iter
    (fun plan ->
      Rts.Faults.install plan;
      Log.warn (fun m -> m "fault injection active: %s" (Rts.Faults.to_string plan)))
    (S.resolve S.faults None);
  let supervisor = Rts.Supervisor.create ~policy () in
  Log.info (fun m ->
      m "run: %d nodes; %s"
        (List.length (Rts.Manager.nodes t.mgr))
        (String.concat ", "
           [
             S.show_as S.shards t.shards; S.show_as S.admit t.admit;
             S.show_as S.default_capacity t.default_capacity;
             S.show_as S.parallel domains; S.show_as S.batch batch; S.show_as S.quantum quantum;
             S.show_as S.supervise policy; S.show_as S.shed shed;
             S.show_as S.latency_sample latency_sample; S.show_as S.state_slack state_slack;
             S.show_as S.faults (Rts.Faults.current ());
           ]));
  let result =
    Rts.Scheduler.run ?quantum ?heartbeats ?on_round ?trace ~domains ~batch ~supervisor ?shed
      ~latency_sample ~state_slack t.mgr
  in
  (match result with
  | Ok stats ->
      Log.info (fun m ->
          m "run complete: %d rounds, %d heartbeat requests, %d drops"
            stats.Rts.Scheduler.rounds stats.Rts.Scheduler.heartbeat_requests
            (Rts.Manager.total_drops t.mgr))
  | Error e -> Log.err (fun m -> m "run failed: %s" e));
  result

let flush t name = Rts.Manager.flush t.mgr name

let shard_report t =
  if t.shards <= 1 then ""
  else begin
    let b = Buffer.create 256 in
    Printf.bprintf b "shards: %d\n" t.shards;
    List.iter
      (fun (info : Gsql.Split.shard_info) ->
        match info.Gsql.Split.smode with
        | Gsql.Split.Hash_key ->
            Printf.bprintf b "  %s: %d replicas, hash-partitioned on the group key\n"
              info.Gsql.Split.squery info.Gsql.Split.sshards
        | Gsql.Split.Round_robin ->
            Printf.bprintf b
              "  %s: %d replicas, keyless plan: round-robin with full reunification merge\n"
              info.Gsql.Split.squery info.Gsql.Split.sshards)
      t.shard_infos;
    List.iter
      (fun (q, reason) -> Printf.bprintf b "  %s: not sharded: %s\n" q reason)
      t.shard_notes;
    Buffer.contents b
  end

(* One line per installed query, shard_report-style; [gsq explain
   --memory] prints the full derivation. *)
let memory_summary t =
  if t.certs = [] then ""
  else begin
    let b = Buffer.create 256 in
    Printf.bprintf b "memory (admission %s):\n" (admit_to_string t.admit);
    List.iter
      (fun (q, cert) ->
        match Gsql.Certify.total_estimate cert with
        | Some est ->
            Printf.bprintf b "  %s: bounded, ≈%.0f resident tuples, burst %d\n" q est
              (Gsql.Certify.query_burst cert)
        | None -> (
            match Gsql.Certify.unbounded_nodes cert with
            | u :: _ -> Printf.bprintf b "  %s: UNBOUNDED — %s\n" q (Gsql.Certify.diagnostic u)
            | [] -> Printf.bprintf b "  %s: UNBOUNDED\n" q))
      t.certs;
    Buffer.contents b
  end

(* One line per bound Protocol source: the fields it interprets and
   when it copies a payload. *)
let source_report t =
  let describe name src =
    let schema = src.proto.Default_protocols.catalog_entry.Gsql.Catalog.schema in
    let field_name i = (Rts.Schema.field_at schema i).Rts.Schema.name in
    let copied = Metrics.Counter.get src.payloads in
    if src.whole then Printf.sprintf "  %s: every field (read directly), %d payloads copied\n" name copied
    else
      let guard g = String.concat " and " (List.map (Gsql.Expr_ir.to_string ~names:field_name) g) in
      let payload =
        if src.guards = [] then ""
        else if List.mem [] src.guards then Printf.sprintf "; payload always, %d copied" copied
        else
          Printf.sprintf "; payload when %s, %d copied"
            (String.concat " or " (List.map guard src.guards))
            copied
      in
      Printf.sprintf "  %s: %s%s\n" name (String.concat ", " (List.map field_name src.fields)) payload
  in
  let lines =
    List.filter_map
      (fun node ->
        let name = Rts.Node.name node in
        Option.map
          (fun src -> Mutex.protect src.mu (fun () -> describe name src))
          (Hashtbl.find_opt t.sources (String.lowercase_ascii name)))
      (Rts.Manager.nodes t.mgr)
  in
  if lines = [] then "" else "sources:\n" ^ String.concat "" lines

let trace_report t =
  Rts.Manager.trace_report t.mgr ^ source_report t ^ shard_report t ^ memory_summary t

let total_drops t = Rts.Manager.total_drops t.mgr
