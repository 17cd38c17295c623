module E = Gigascope.Engine
module Gsql = Gigascope_gsql
module Rts = Gigascope_rts
module Schema = Rts.Schema
module Item = Rts.Item
module Metrics = Gigascope_obs.Metrics
module Server = Gigascope_net.Server
module Client = Gigascope_net.Client
module Addr = Gigascope_net.Addr

let log_src = Logs.Src.create "gigascope.cluster" ~doc:"Gigascope aggregation trees"

module Log = (val Logs.src_log log_src : Logs.LOG)

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ------------------------- plan surgery --------------------------------- *)

(* The stream name every edge node's feed is registered under. *)
let edge_source = "_cluster_in"

(* Compile the program once and insist on the tree-splittable shape: an
   LFTA sub-aggregation below an HFTA, with an exact epoch key — the
   same eligibility rule the shard splitter applies, because every level
   boundary is reunified by a merge ordered on the epoch column. *)
let compile_tree program =
  let scratch = E.create ~shards:1 () in
  let catalog = E.catalog scratch in
  let* compiled = Gsql.Compile.compile_program catalog program in
  let* c =
    match List.rev compiled with
    | [] -> Error "cluster: no query in program"
    | c :: _ -> Ok c
  in
  if c.Gsql.Compile.helpers <> [] then
    Error "cluster: FROM-clause subqueries cannot be cut across a tree"
  else
    match c.Gsql.Compile.split.Gsql.Split.phys with
    | [
     ({ Gsql.Split.pkind = Rts.Node.Lfta; pbody = Gsql.Plan.Agg la; _ } as lfta);
     ({ Gsql.Split.pkind = Rts.Node.Hfta; _ } as hfta);
    ] -> (
        match (la.Gsql.Plan.epoch, la.Gsql.Plan.epoch_in_field) with
        | Some ek, Some _ when la.Gsql.Plan.epoch_band = 0.0 ->
            Ok (c.Gsql.Compile.split.Gsql.Split.plan, lfta, la, hfta, ek)
        | None, _ ->
            Error "cluster: the query needs an ordered (epoch) group key to align tree levels on"
        | _, None -> Error "cluster: the epoch key cannot translate punctuation"
        | _, _ -> Error "cluster: a banded epoch gives tree merges unsound bounds")
    | _ ->
        Error
          "cluster: the query must split into an LFTA sub-aggregation and an HFTA (an aggregation over a protocol with cheap keys and arguments)"

(* An edge node runs the sub-aggregating LFTA verbatim, with the
   protocol input rebound to the node's own feed stream. *)
let edge_split plan (lfta : Gsql.Split.phys_node) (la : Gsql.Plan.agg_body) =
  let schema = Gsql.Plan.input_schema la.Gsql.Plan.agg_input in
  {
    Gsql.Split.plan = { plan with Gsql.Plan.name = lfta.Gsql.Split.pname };
    phys =
      [
        {
          lfta with
          Gsql.Split.pbody =
            Gsql.Plan.Agg
              {
                la with
                Gsql.Plan.agg_input = Gsql.Plan.From_stream { stream = edge_source; schema };
              };
          pnic = None;
        };
      ];
  }

let identity_items schema =
  List.mapi
    (fun i (f : Schema.field) -> (Gsql.Expr_ir.Field (i, f.Schema.ty), f.Schema.name))
    (Array.to_list (Schema.fields schema))

let merge_node ~pname ~inputs ~schema ~ek =
  {
    Gsql.Split.pname;
    pkind = Rts.Node.Hfta;
    pbody =
      Gsql.Plan.Merge
        {
          Gsql.Plan.merge_inputs =
            List.map (fun s -> Gsql.Plan.From_stream { stream = s; schema }) inputs;
          merge_field = ek;
        };
    pschema = schema;
    pnic = None;
    ptable_bits = 0;
    pshard = None;
  }

(* An interior node merges its children's partial streams on the epoch
   column and re-reduces them with the relay decomposition: the input
   and output schema are both the LFTA partial schema, so relays stack
   to any tree height. *)
let relay_split plan (lfta : Gsql.Split.phys_node) (la : Gsql.Plan.agg_body) ~ek ~inputs =
  let lschema = lfta.Gsql.Split.pschema in
  let n_keys = List.length la.Gsql.Plan.keys in
  let merge_name = "_merge" ^ lfta.Gsql.Split.pname in
  let keys =
    List.filteri (fun i _ -> i < n_keys) (identity_items lschema)
  in
  let aggs =
    List.mapi
      (fun j (c : Gsql.Plan.agg_call) ->
        let f = Schema.field_at lschema (n_keys + j) in
        {
          Gsql.Plan.kind = Rts.Agg_fn.relay_kind c.Gsql.Plan.kind;
          arg = Some (Gsql.Expr_ir.Field (n_keys + j, f.Schema.ty));
          agg_name = f.Schema.name;
        })
      la.Gsql.Plan.aggs
  in
  let relay =
    {
      Gsql.Split.pname = lfta.Gsql.Split.pname;
      pkind = Rts.Node.Hfta;
      pbody =
        Gsql.Plan.Agg
          {
            Gsql.Plan.agg_input = Gsql.Plan.From_stream { stream = merge_name; schema = lschema };
            agg_pred = None;
            keys;
            epoch = la.Gsql.Plan.epoch;
            epoch_dir = la.Gsql.Plan.epoch_dir;
            epoch_band = 0.0;
            epoch_in_field = Some ek;
            aggs;
            agg_items = identity_items lschema;
            having = None;
          };
      pschema = lschema;
      pnic = None;
      ptable_bits = 0;
      pshard = None;
    }
  in
  {
    Gsql.Split.plan = { plan with Gsql.Plan.name = lfta.Gsql.Split.pname };
    phys = [ merge_node ~pname:merge_name ~inputs ~schema:lschema ~ek; relay ];
  }

(* The root merges its children under the LFTA's name, so the original
   super-aggregating HFTA installs unchanged on top. *)
let root_split plan (lfta : Gsql.Split.phys_node) hfta ~ek ~inputs =
  {
    Gsql.Split.plan;
    phys = [ merge_node ~pname:lfta.Gsql.Split.pname ~inputs ~schema:lfta.Gsql.Split.pschema ~ek; hfta ];
  }

let no_sources =
  {
    Gsql.Codegen.bind_source =
      (fun ~interface:_ ~protocol:_ ~nic:_ ->
        Error "cluster: protocol sources are rebound to node feeds");
  }

let install engine split =
  Result.map
    (fun (_ : Gsql.Codegen.instance) -> ())
    (Gsql.Codegen.install (E.manager engine) ~source_binder:no_sources split)

(* ------------------------- the live tree -------------------------------- *)

type link = {
  l_from : string;
  l_to : string;
  l_tuples : Metrics.Counter.t;  (* tuples delivered over the link *)
  l_gaps : Metrics.Counter.t;  (* tuples lost, summed from Gap markers *)
  l_events : Metrics.Counter.t;  (* Gap markers seen *)
  l_errors : Metrics.Counter.t;  (* in-band Error markers (dead child) *)
}

type cnode = {
  cn_name : string;
  cn_level : int;
  cn_top : string;  (* the node's output query name in its own engine *)
  cn_engine : E.t;
  cn_server : Server.t option;  (* None at the root: its output stays local *)
  cn_alive : Metrics.Gauge.t;
  mutable cn_done : (unit, string) result option;
  mutable cn_thread : Thread.t option;
}

type t = {
  topo : Topology.t;
  query : string;
  out_schema : Schema.t;
  reg : Metrics.t;
  cnodes : (string * cnode) list;  (* breadth-first: root first *)
  links : link list;
  results : Item.t list ref;
  rmu : Mutex.t;
  mutable started : bool;
  mutable stopped : bool;
}

let probe ~program =
  let* plan, _, la, hfta, _ = compile_tree program in
  Ok
    ( plan.Gsql.Plan.name,
      Gsql.Plan.input_schema la.Gsql.Plan.agg_input,
      hfta.Gsql.Split.pschema )

let query_name t = t.query
let out_schema t = t.out_schema
let metrics t = t.reg
let results t =
  Mutex.lock t.rmu;
  let r = List.rev !(t.results) in
  Mutex.unlock t.rmu;
  r

let find_node t name = List.assoc_opt name t.cnodes

let node_out t name =
  match find_node t name with
  | None -> 0
  | Some cn -> (
      match Rts.Manager.find (E.manager cn.cn_engine) cn.cn_top with
      | Some node -> Rts.Node.tuples_out node
      | None -> 0)

let link_stats t =
  List.map
    (fun l ->
      ( l.l_from,
        l.l_to,
        Metrics.Counter.get l.l_tuples,
        Metrics.Counter.get l.l_gaps,
        Metrics.Counter.get l.l_errors ))
    t.links

(* Wrap a link's pull with the cluster's per-link accounting. *)
let counted_source reg ~from_ ~to_ (src : Rts.Node.source) =
  let pfx = Printf.sprintf "cluster.link.%s->%s" from_ to_ in
  let l =
    {
      l_from = from_;
      l_to = to_;
      l_tuples = Metrics.counter reg (pfx ^ ".tuples");
      l_gaps = Metrics.counter reg (pfx ^ ".gaps");
      l_events = Metrics.counter reg (pfx ^ ".gap_events");
      l_errors = Metrics.counter reg (pfx ^ ".errors");
    }
  in
  let pull () =
    match src.Rts.Node.pull () with
    | Some (Item.Tuple _) as r ->
        Metrics.Counter.incr l.l_tuples;
        r
    | Some (Item.Gap n) as r ->
        Metrics.Counter.incr l.l_events;
        Metrics.Counter.add l.l_gaps (max n 0);
        r
    | Some (Item.Error _) as r ->
        Metrics.Counter.incr l.l_errors;
        r
    | r -> r
  in
  ({ Rts.Node.pull; clock = src.Rts.Node.clock }, l)

let launch ~topo ~program ~feed ?(capacity = 4096) ?(reconnect = Client.default_reconnect) () =
  let* plan, lfta, la, hfta, ek = compile_tree program in
  let lfta_name = lfta.Gsql.Split.pname in
  let in_schema = Gsql.Plan.input_schema la.Gsql.Plan.agg_input in
  let reg = Metrics.create () in
  let results = ref [] and rmu = Mutex.create () in
  let servers = ref [] in
  let cleanup () = List.iter Server.stop !servers in
  let leaf_index =
    List.mapi (fun i n -> (n, i)) (Topology.leaves topo)
  in
  (* children before parents, so every child's server is listening by
     the time its parent dials *)
  let order = List.rev (Topology.nodes topo) in
  let rec build (addrs : (string * Addr.t) list) (links : link list) acc = function
    | [] -> Ok (acc, links)
    | name :: rest ->
        let is_root = name = Topology.root topo in
        let engine = E.create ~default_capacity:capacity ~shards:1 () in
        let kids = Topology.children topo name in
        let* split, links =
          if kids = [] then begin
            let index = List.assoc name leaf_index in
            let rows = feed ~edge:name ~index in
            let pull () =
              match rows () with Some vs -> Some (Item.Tuple vs) | None -> None
            in
            let* () =
              E.add_custom_source engine ~name:edge_source ~schema:in_schema ~pull
                ~clock:(fun () -> [])
            in
            Ok (edge_split plan lfta la, links)
          end
          else begin
            let rec connect links srcs = function
              | [] -> Ok (List.rev srcs, links)
              | child :: more -> (
                  match List.assoc_opt child addrs with
                  | None -> err "cluster: internal error: %s has no address" child
                  | Some addr -> (
                      match
                        Client.connect ~peer_name:(name ^ "<-" ^ child) ~reconnect
                          ~metrics:reg addr
                      with
                      | Error e -> err "cluster: %s cannot reach %s: %s" name child e
                      | Ok client -> (
                          match Client.subscribe client lfta_name with
                          | Error e -> err "cluster: %s subscribing to %s: %s" name child e
                          | Ok _schema ->
                              let src, link =
                                counted_source reg ~from_:child ~to_:name
                                  (Client.source client)
                              in
                              let sname = "_up_" ^ child in
                              let* () =
                                E.add_custom_source engine ~name:sname
                                  ~schema:lfta.Gsql.Split.pschema ~pull:src.Rts.Node.pull
                                  ~clock:src.Rts.Node.clock
                              in
                              connect (link :: links) (sname :: srcs) more)))
            in
            let* srcs, links = connect links [] kids in
            let split =
              if is_root then root_split plan lfta hfta ~ek ~inputs:srcs
              else relay_split plan lfta la ~ek ~inputs:srcs
            in
            Ok (split, links)
          end
        in
        let* () = install engine split in
        let top = (split.Gsql.Split.plan).Gsql.Plan.name in
        let* server, addrs =
          if is_root then Ok (None, addrs)
          else begin
            (* Block, not drop: inside the tree, backpressure through
               TCP is the correct slow-parent behavior — partial
               aggregates must not be silently lost at a full queue *)
            let server = Server.create ~policy:Server.Block engine in
            match Server.listen server (Addr.Tcp ("127.0.0.1", 0)) with
            | Error e ->
                Server.stop server;
                err "cluster: %s cannot listen: %s" name e
            | Ok bound ->
                servers := server :: !servers;
                Ok (Some server, (name, bound) :: addrs)
          end
        in
        let* () =
          if is_root then
            Rts.Manager.on_item (E.manager engine) top (fun item ->
                Mutex.lock rmu;
                results := item :: !results;
                Mutex.unlock rmu)
          else Ok ()
        in
        let level = Topology.depth topo name in
        let alive = Metrics.gauge reg (Printf.sprintf "cluster.node.%s.alive" name) in
        Metrics.Gauge.set_int (Metrics.gauge reg (Printf.sprintf "cluster.node.%s.level" name)) level;
        let cn =
          {
            cn_name = name;
            cn_level = level;
            cn_top = top;
            cn_engine = engine;
            cn_server = server;
            cn_alive = alive;
            cn_done = None;
            cn_thread = None;
          }
        in
        Metrics.attach_gauge_fn reg
          (Printf.sprintf "cluster.node.%s.out" name)
          (fun () ->
            match Rts.Manager.find (E.manager engine) top with
            | Some node -> float_of_int (Rts.Node.tuples_out node)
            | None -> 0.0);
        build addrs links ((name, cn) :: acc) rest
  in
  match build [] [] [] order with
  | Error e ->
      cleanup ();
      Error e
  | Ok (cnodes, links) ->
      let t =
        {
          topo;
          query = plan.Gsql.Plan.name;
          out_schema = hfta.Gsql.Split.pschema;
          reg;
          cnodes;  (* build consumed reverse-topological order, so this
                      is breadth-first again: root first *)
          links;
          results;
          rmu;
          started = false;
          stopped = false;
        }
      in
      (* per-level output totals, for reduction ratios *)
      let levels = List.sort_uniq compare (List.map (fun (_, cn) -> cn.cn_level) cnodes) in
      List.iter
        (fun l ->
          Metrics.attach_gauge_fn reg
            (Printf.sprintf "cluster.level.%d.out" l)
            (fun () ->
              List.fold_left
                (fun acc (name, cn) ->
                  if cn.cn_level = l then acc +. float_of_int (node_out t name) else acc)
                0.0 cnodes))
        levels;
      Log.info (fun m ->
          m "cluster %s: %d nodes, height %d" t.query (Topology.size topo) (Topology.height topo));
      Ok t

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    List.iter
      (fun (_, cn) -> match cn.cn_server with Some s -> Server.stop s | None -> ())
      t.cnodes;
    List.iter
      (fun (_, cn) -> match cn.cn_thread with Some th -> Thread.join th | None -> ())
      t.cnodes
  end

let run ?(timeout = 60.0) t =
  if t.started then Error "cluster: already ran"
  else begin
    t.started <- true;
    List.iter
      (fun (_, cn) ->
        let th =
          Thread.create
            (fun () ->
              Metrics.Gauge.set cn.cn_alive 1.0;
              let r =
                match E.run cn.cn_engine () with
                | Ok _ -> Ok ()
                | Error e -> Error e
              in
              cn.cn_done <- Some r;
              Metrics.Gauge.set cn.cn_alive 0.0)
            ()
        in
        cn.cn_thread <- Some th)
      (List.rev t.cnodes);
    let deadline = Unix.gettimeofday () +. timeout in
    let rec wait () =
      if List.for_all (fun (_, cn) -> cn.cn_done <> None) t.cnodes then Ok ()
      else if Unix.gettimeofday () > deadline then Error `Timeout
      else begin
        Thread.delay 0.01;
        wait ()
      end
    in
    match wait () with
    | Error `Timeout ->
        shutdown t;
        err "cluster: run timed out after %gs" timeout
    | Ok () -> (
        List.iter
          (fun (_, cn) ->
            match cn.cn_server with
            | Some s -> ignore (Server.drain ~timeout:5.0 s)
            | None -> ())
          t.cnodes;
        let failures =
          List.filter_map
            (fun (name, cn) ->
              match cn.cn_done with Some (Error e) -> Some (name, e) | _ -> None)
            t.cnodes
        in
        match failures with
        | [] -> Ok ()
        | (name, e) :: _ -> err "cluster: node %s failed: %s" name e)
  end

let kill_node t name =
  match find_node t name with
  | None -> err "cluster: unknown node %s" name
  | Some { cn_server = None; _ } -> err "cluster: %s is the root (no uplink to sever)" name
  | Some { cn_server = Some s; _ } ->
      let n = Server.sever_subscribers s in
      Log.info (fun m -> m "killed %s: severed %d uplink(s)" name n);
      Ok n

let stop_node t name =
  match find_node t name with
  | None -> err "cluster: unknown node %s" name
  | Some { cn_server = None; _ } -> err "cluster: %s is the root (no uplink server)" name
  | Some { cn_server = Some s; _ } ->
      Server.stop s;
      Log.info (fun m -> m "stopped %s permanently" name);
      Ok ()

let report t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "cluster %s: %d nodes, height %d\n" t.query (Topology.size t.topo)
    (Topology.height t.topo);
  List.iter
    (fun (name, cn) ->
      let role =
        if cn.cn_level = 0 then "root"
        else if Topology.is_leaf t.topo name then "edge"
        else "relay"
      in
      let state =
        match cn.cn_done with
        | None -> if cn.cn_thread = None then "idle" else "running"
        | Some (Ok ()) -> "done"
        | Some (Error e) -> "failed: " ^ e
      in
      Printf.bprintf buf "  node %-12s level %d  %-5s out=%-8d %s\n" name cn.cn_level role
        (node_out t name) state)
    t.cnodes;
  List.iter
    (fun l ->
      let bytes =
        match find_node t l.l_from with
        | Some cn -> (
            match
              Metrics.find (Metrics.snapshot (E.metrics cn.cn_engine)) "net.bytes_out"
            with
            | Some (Metrics.Counter n) -> n
            | _ -> 0)
        | None -> 0
      in
      Printf.bprintf buf "  link %s->%s: tuples=%d gaps=%d (markers=%d) errors=%d bytes=%d\n"
        l.l_from l.l_to (Metrics.Counter.get l.l_tuples) (Metrics.Counter.get l.l_gaps)
        (Metrics.Counter.get l.l_events) (Metrics.Counter.get l.l_errors) bytes)
    t.links;
  let levels =
    List.sort_uniq compare (List.map (fun (_, cn) -> cn.cn_level) t.cnodes)
  in
  List.iter
    (fun l ->
      let out =
        List.fold_left
          (fun acc (name, cn) -> if cn.cn_level = l then acc + node_out t name else acc)
          0 t.cnodes
      in
      let into =
        List.fold_left
          (fun acc lk ->
            match find_node t lk.l_to with
            | Some cn when cn.cn_level = l -> acc + Metrics.Counter.get lk.l_tuples
            | _ -> acc)
          0 t.links
      in
      if into > 0 && out > 0 then
        Printf.bprintf buf "  level %d: in=%d out=%d reduction=%.1fx\n" l into out
          (float_of_int into /. float_of_int out)
      else Printf.bprintf buf "  level %d: out=%d\n" l out)
    levels;
  Buffer.contents buf
