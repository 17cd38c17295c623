module Metrics = Gigascope_obs.Metrics

type counters = {
  frames_in : Metrics.Counter.t;
  frames_out : Metrics.Counter.t;
  bytes_in : Metrics.Counter.t;
  bytes_out : Metrics.Counter.t;
}

let counters_in reg ~prefix =
  {
    frames_in = Metrics.counter reg (prefix ^ ".frames_in");
    frames_out = Metrics.counter reg (prefix ^ ".frames_out");
    bytes_in = Metrics.counter reg (prefix ^ ".bytes_in");
    bytes_out = Metrics.counter reg (prefix ^ ".bytes_out");
  }

type t = {
  fd : Unix.file_descr;
  peer_name : string;
  counters : counters option;
  send_mu : Mutex.t;
  (* receive-side reassembly buffer; only the receiving thread touches it *)
  mutable buf : bytes;
  mutable filled : int;
  mutable pos : int;
  mutable closed : bool;
}

(* A peer that vanishes mid-write must surface as EPIPE (an [Error] on
   that connection), not as a process-killing signal. *)
let ignore_sigpipe =
  lazy
    (if Sys.os_type = "Unix" then
       try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ())

let of_fd ?counters ?(peer = "?") fd =
  Lazy.force ignore_sigpipe;
  {
    fd;
    peer_name = peer;
    counters;
    send_mu = Mutex.create ();
    buf = Bytes.create 65536;
    filled = 0;
    pos = 0;
    closed = false;
  }

let peer t = t.peer_name

(* SO_RCVTIMEO/SO_SNDTIMEO: the kernel fails the blocking call with
   EAGAIN after [s] seconds instead of waiting forever — the mechanism
   behind subscriber idle-timeouts and the fix for clients hanging in
   [recv] when the server dies without closing the socket. 0 disables. *)
let set_read_deadline t s =
  try Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO (Float.max 0.0 s)
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let close t =
  Mutex.lock t.send_mu;
  let was_closed = t.closed in
  t.closed <- true;
  Mutex.unlock t.send_mu;
  if not was_closed then begin
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let count f = function Some c -> f c | None -> ()

let send t msg =
  match Wire.encode msg with
  | exception Invalid_argument e -> Error e
  | frame -> (
      Mutex.lock t.send_mu;
      let result =
        if t.closed then Error "connection closed"
        else
          let fault = Gigascope_rts.Faults.send_point ~peer:t.peer_name ~len:(Bytes.length frame) in
          match fault with
          | Gigascope_rts.Faults.Disconnect ->
              t.closed <- true;
              (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
              (try Unix.close t.fd with Unix.Unix_error _ -> ());
              Error "send: injected disconnect"
          | Gigascope_rts.Faults.Torn k ->
              (* write a truncated frame, then fail the connection: the
                 peer's decoder sees a half-written tail *)
              let k = min k (Bytes.length frame) in
              (try
                 let off = ref 0 in
                 while !off < k do
                   off := !off + Unix.write t.fd frame !off (k - !off)
                 done
               with Unix.Unix_error _ -> ());
              t.closed <- true;
              (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
              (try Unix.close t.fd with Unix.Unix_error _ -> ());
              Error "send: injected torn write"
          | Gigascope_rts.Faults.Drop ->
              (* frame silently vanishes; connection stays up *)
              Ok ()
          | Gigascope_rts.Faults.Pass | Gigascope_rts.Faults.Delay _ -> (
              (match fault with
              | Gigascope_rts.Faults.Delay s -> Thread.delay s
              | _ -> ());
              match
                let n = Bytes.length frame in
                let off = ref 0 in
                while !off < n do
                  off := !off + Unix.write t.fd frame !off (n - !off)
                done;
                n
              with
              | n ->
                  count
                    (fun c ->
                      Metrics.Counter.incr c.frames_out;
                      Metrics.Counter.add c.bytes_out n)
                    t.counters;
                  Ok ()
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  Error "send: timeout (write deadline exceeded)"
              | exception Unix.Unix_error (e, _, _) ->
                  Error (Printf.sprintf "send: %s" (Unix.error_message e)))
      in
      Mutex.unlock t.send_mu;
      result)

(* Make room to read at least [n] more bytes: shift the consumed prefix
   away, then grow the buffer (bounded by the max frame size, which
   Wire.decode already enforces via its payload-length check). *)
let ensure_room t n =
  if t.pos > 0 then begin
    Bytes.blit t.buf t.pos t.buf 0 (t.filled - t.pos);
    t.filled <- t.filled - t.pos;
    t.pos <- 0
  end;
  let cap = Bytes.length t.buf in
  if cap - t.filled < n then begin
    let target = max (t.filled + n) (cap * 2) in
    let target = min target (Wire.header_len + Wire.max_payload + 65536) in
    if target > cap then begin
      let grown = Bytes.create target in
      Bytes.blit t.buf 0 grown 0 t.filled;
      t.buf <- grown
    end
  end

let rec recv t =
  if t.closed then Error "connection closed"
  else
    match Wire.decode t.buf ~pos:t.pos ~len:t.filled with
    | Wire.Frame (msg, next) ->
        t.pos <- next;
        if t.pos = t.filled then begin
          t.pos <- 0;
          t.filled <- 0
        end;
        count (fun c -> Metrics.Counter.incr c.frames_in) t.counters;
        Ok msg
    | Wire.Corrupt e -> Error (Printf.sprintf "corrupt frame from %s: %s" t.peer_name e)
    | Wire.Need_more -> (
        ensure_room t 65536;
        let room = Bytes.length t.buf - t.filled in
        match Unix.read t.fd t.buf t.filled room with
        | 0 -> Error "connection closed"
        | n ->
            t.filled <- t.filled + n;
            count (fun c -> Metrics.Counter.add c.bytes_in n) t.counters;
            recv t
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Error "recv: timeout (read deadline exceeded)"
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "recv: %s" (Unix.error_message e)))
