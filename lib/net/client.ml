module Rts = Gigascope_rts
module Item = Rts.Item
module Batch = Rts.Batch
module Metrics = Gigascope_obs.Metrics
module Prng = Gigascope_util.Prng

let ( let* ) = Result.bind

type reconnect = {
  attempts : int;
  base_delay : float;
  max_delay : float;
  jitter : float;
  seed : int;
}

let default_reconnect =
  { attempts = 5; base_delay = 0.05; max_delay = 2.0; jitter = 0.5; seed = 0 }

type t = {
  mutable conn : Conn.t;
  addr : Addr.t;
  peer_name : string;
  reconnect : reconnect option;
  idle_timeout : float option;
  rng : Prng.t;
  c_reconnects : Metrics.Counter.t;
  c_heartbeats : Metrics.Counter.t;
  c_gaps : Metrics.Counter.t;
  mutable sub : (string * int) option;  (* subscribed query, server-side sub id *)
  mutable position : int;
      (* the resume token: tuples handed to the application plus tuples
         announced lost by resumes, i.e. this client's place in the
         server's count of tuples sent; policy-drop gaps are not in it *)
  mutable pending : Item.t list;  (* unbatched items not yet handed out *)
  mutable at_eof : bool;
  mutable last_bounds : (int * Rts.Value.t) list;
}

(* One dial + Hello exchange; shared by [connect] and the redial loop. *)
let dial ~peer_name ~idle_timeout addr =
  let* sockaddr = Addr.to_sockaddr addr in
  match
    let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
    (try Unix.connect fd sockaddr
     with exn ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise exn);
    fd
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "connect %s: %s" (Addr.to_string addr) (Unix.error_message e))
  | fd -> (
      let conn = Conn.of_fd ~peer:(Addr.to_string addr) fd in
      (match idle_timeout with Some s when s > 0.0 -> Conn.set_read_deadline conn s | _ -> ());
      let* () =
        Conn.send conn (Wire.Hello { version = Wire.protocol_version; peer = peer_name })
      in
      match Conn.recv conn with
      | Ok (Wire.Hello _) -> Ok conn
      | Ok (Wire.Err e) ->
          Conn.close conn;
          Error ("server refused: " ^ e)
      | Ok msg ->
          Conn.close conn;
          Error (Printf.sprintf "expected hello, got %s" (Wire.msg_label msg))
      | Error e ->
          Conn.close conn;
          Error e)

let connect ?(peer_name = "gsq-client") ?reconnect ?idle_timeout ?metrics addr =
  let* conn = dial ~peer_name ~idle_timeout addr in
  let cnt name =
    match metrics with Some reg -> Metrics.counter reg name | None -> Metrics.Counter.make ()
  in
  let seed = match reconnect with Some r -> r.seed | None -> 0 in
  Ok
    {
      conn;
      addr;
      peer_name;
      reconnect;
      idle_timeout;
      rng = Prng.create seed;
      c_reconnects = cnt "net.reconnects";
      c_heartbeats = cnt "net.heartbeats.recv";
      c_gaps = cnt "net.gaps";
      sub = None;
      position = 0;
      pending = [];
      at_eof = false;
      last_bounds = [];
    }

let list t =
  let* () = Conn.send t.conn Wire.List_queries in
  match Conn.recv t.conn with
  | Ok (Wire.Queries qs) -> Ok qs
  | Ok (Wire.Err e) -> Error e
  | Ok msg -> Error (Printf.sprintf "expected queries, got %s" (Wire.msg_label msg))
  | Error _ as e -> e

let subscribe t name =
  let* () = Conn.send t.conn (Wire.Subscribe name) in
  match Conn.recv t.conn with
  | Ok (Wire.Subscribed { schema; sub_id; _ }) ->
      t.sub <- Some (name, sub_id);
      Ok schema
  | Ok (Wire.Err e) -> Error e
  | Ok msg -> Error (Printf.sprintf "expected subscribed, got %s" (Wire.msg_label msg))
  | Error _ as e -> e

(* Redial with exponential backoff plus jitter, then [Resume] the
   subscription with the position as the token. The reply's gap is
   queued for [next] to surface once; an unknown gap (-1) means a fresh
   server queue, counted from 0. The jitter comes from a seeded
   generator so a chaos run retries at the same instants every time. A
   server that explicitly refuses the resume ends the loop at once —
   only transport failures are worth retrying. *)
let try_resume t =
  match (t.reconnect, t.sub) with
  | None, _ -> Error "connection lost (no reconnect configured)"
  | _, None -> Error "connection lost (not subscribed)"
  | Some rc, Some (name, sub_id) ->
      let rec attempt n =
        if n > rc.attempts then
          Error (Printf.sprintf "reconnect: gave up after %d attempts" rc.attempts)
        else begin
          let backoff =
            Float.min rc.max_delay (rc.base_delay *. (2.0 ** float_of_int (n - 1)))
          in
          Thread.delay (backoff *. (1.0 +. (rc.jitter *. Prng.float t.rng 1.0)));
          match dial ~peer_name:t.peer_name ~idle_timeout:t.idle_timeout t.addr with
          | Error _ -> attempt (n + 1)
          | Ok conn -> (
              match
                Conn.send conn (Wire.Resume { name; sub_id; token = t.position })
              with
              | Error _ ->
                  Conn.close conn;
                  attempt (n + 1)
              | Ok () -> (
                  match Conn.recv conn with
                  | Ok (Wire.Subscribed { sub_id = id; gap; _ }) ->
                      Metrics.Counter.incr t.c_reconnects;
                      t.conn <- conn;
                      t.sub <- Some (name, id);
                      t.position <- (if gap < 0 then 0 else t.position + gap);
                      if gap <> 0 then t.pending <- Item.Gap gap :: t.pending;
                      Ok ()
                  | Ok (Wire.Err e) ->
                      Conn.close conn;
                      Error ("resume refused: " ^ e)
                  | Ok _ | Error _ ->
                      Conn.close conn;
                      attempt (n + 1)))
        end
      in
      attempt 1

let rec next t =
  match t.pending with
  | item :: rest ->
      t.pending <- rest;
      (match item with
      | Item.Punct bounds -> t.last_bounds <- bounds
      | Item.Tuple _ -> t.position <- t.position + 1
      | Item.Gap _ -> Metrics.Counter.incr t.c_gaps
      | Item.Flush | Item.Error _ | Item.Eof -> ());
      if item = Item.Eof then begin
        t.at_eof <- true;
        Ok None
      end
      else Ok (Some item)
  | [] ->
      if t.at_eof then Ok None
      else (
        match Conn.recv t.conn with
        | Ok (Wire.Batch b) ->
            t.pending <- Batch.to_items b;
            next t
        | Ok Wire.Heartbeat ->
            Metrics.Counter.incr t.c_heartbeats;
            next t
        | Ok Wire.Bye ->
            t.at_eof <- true;
            Ok None
        | Ok (Wire.Err e) -> Error e
        | Ok msg -> Error (Printf.sprintf "expected batch, got %s" (Wire.msg_label msg))
        | Error e -> (
            (* the socket died (or the idle deadline fired with no
               heartbeat): self-heal if configured, else surface it *)
            Conn.close t.conn;
            match try_resume t with
            | Ok () -> next t
            | Error e2 -> Error (if e2 = e then e else e ^ "; " ^ e2)))

let iter t f =
  let rec go () =
    match next t with
    | Ok (Some item) ->
        f item;
        go ()
    | Ok None -> Ok ()
    | Error _ as e -> e
  in
  go ()

let publish t ~iface =
  let* () = Conn.send t.conn (Wire.Publish iface) in
  match Conn.recv t.conn with
  | Ok (Wire.Publish_ok { schema; _ }) -> Ok schema
  | Ok (Wire.Err e) -> Error e
  | Ok msg -> Error (Printf.sprintf "expected publish_ok, got %s" (Wire.msg_label msg))
  | Error _ as e -> e

let send_batch t batch = Conn.send t.conn (Wire.Batch batch)

let send_tuple t values = send_batch t (Batch.of_item (Item.Tuple values))

let finish t = send_batch t (Batch.make [||] (Some Item.Eof))

let close t = Conn.close t.conn

let source t =
  let failed = ref false in
  let pull () =
    if !failed then None
    else
      match next t with
      | Ok (Some item) -> Some item
      | Ok None -> None
      | Error e ->
          (* a lost upstream ends the stream explicitly: one in-band
             Error (the node follows with Eof), never a hang *)
          failed := true;
          Some (Item.Error e)
  in
  let clock () = t.last_bounds in
  { Rts.Node.pull; clock }

let add_remote_interface ?reconnect ?idle_timeout engine ~name addr ~query =
  let* client = connect ?reconnect ?idle_timeout ~metrics:(Gigascope.Engine.metrics engine) addr in
  match subscribe client query with
  | Error e ->
      close client;
      Error e
  | Ok schema ->
      let src = source client in
      Gigascope.Engine.add_custom_source engine ~name ~schema ~pull:src.Rts.Node.pull
        ~clock:src.Rts.Node.clock
