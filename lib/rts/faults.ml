module Prng = Gigascope_util.Prng

exception Injected of string

type mode = Nth of int | Prob of float

type clause = {
  kind : string;
  target : string;  (* node/channel name; "" for connection-level points *)
  mode : mode;
  ms : float;  (* delay/stall duration, milliseconds *)
}

type t = { seed : int; clauses : clause list }

(* Mutable firing state lives beside the plan: per-point hit counters for
   [Nth] clauses and per-point generators for [Prob] clauses. Each
   generator is seeded from the global seed and the point's identity, so
   whether a probabilistic point fires depends only on (seed, point, hit
   number) — never on how points interleave across threads or domains.
   That is what makes a chaos run replayable. *)
type state = {
  plan : t;
  mu : Mutex.t;
  hits : (string, int ref) Hashtbl.t;
  rngs : (string, Prng.t) Hashtbl.t;
}

let installed : state option Atomic.t = Atomic.make None

let install plan =
  Atomic.set installed
    (Some { plan; mu = Mutex.create (); hits = Hashtbl.create 16; rngs = Hashtbl.create 16 })

let clear () = Atomic.set installed None
let active () = Atomic.get installed <> None
let current () = match Atomic.get installed with Some st -> Some st.plan | None -> None

(* ------------------------------ parsing --------------------------------- *)

let clause_to_string c =
  let tgt = if c.target = "" then "" else c.target ^ ":" in
  let suffix = if c.kind = "delay" || c.kind = "stall" then Printf.sprintf ":%g" c.ms else "" in
  match c.mode with
  | Nth n -> Printf.sprintf "%s=%s%d%s" c.kind tgt n suffix
  | Prob p -> Printf.sprintf "%s~%s%g%s" c.kind tgt p suffix

let to_string t =
  String.concat ","
    (Printf.sprintf "seed=%d" t.seed :: List.map clause_to_string t.clauses)

let targeted = [ "crash"; "stall"; "xclose" ]
let global = [ "torn"; "drop"; "delay"; "disconnect" ]

let parse spec =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let parse_clause acc part =
    match acc with
    | Error _ as e -> e
    | Ok (seed, clauses) -> (
        let part = String.trim part in
        if part = "" then Ok (seed, clauses)
        else
          let kind, mode_char, rest =
            match (String.index_opt part '=', String.index_opt part '~') with
            | Some i, Some j when j < i ->
                (String.sub part 0 j, '~', String.sub part (j + 1) (String.length part - j - 1))
            | Some i, _ ->
                (String.sub part 0 i, '=', String.sub part (i + 1) (String.length part - i - 1))
            | None, Some j ->
                (String.sub part 0 j, '~', String.sub part (j + 1) (String.length part - j - 1))
            | None, None -> (part, '?', "")
          in
          let kind = String.lowercase_ascii (String.trim kind) in
          if mode_char = '?' then fail "fault clause %S: expected kind=value or kind~prob" part
          else if kind = "seed" then
            match int_of_string_opt (String.trim rest) with
            | Some s -> Ok (s, clauses)
            | None -> fail "fault seed %S is not an integer" rest
          else
            let is_targeted = List.mem kind targeted in
            if not (is_targeted || List.mem kind global) then
              fail "unknown fault kind %S (crash|stall|xclose|torn|drop|delay|disconnect|seed)" kind
            else
              let fields = String.split_on_char ':' rest in
              let target, fields =
                if is_targeted then
                  match fields with
                  | tgt :: rest when String.trim tgt <> "" -> (String.trim tgt, rest)
                  | _ -> ("", fields)
                else ("", fields)
              in
              if is_targeted && target = "" then
                fail "fault %s needs a target: %s=NAME:N" kind kind
              else
                let num, ms_field =
                  match fields with
                  | [ n ] -> (Some n, None)
                  | [ n; ms ] -> (Some n, Some ms)
                  | _ -> (None, None)
                in
                match num with
                | None -> fail "fault clause %S: expected %s%c<n>[:ms]" part kind mode_char
                | Some n -> (
                    let ms =
                      match ms_field with
                      | None -> if kind = "delay" || kind = "stall" then 20.0 else 0.0
                      | Some s -> ( match float_of_string_opt (String.trim s) with
                          | Some f -> f
                          | None -> -1.0)
                    in
                    if ms < 0.0 then fail "fault clause %S: bad milliseconds" part
                    else
                      match mode_char with
                      | '=' -> (
                          match int_of_string_opt (String.trim n) with
                          | Some k when k >= 1 ->
                              Ok (seed, { kind; target; mode = Nth k; ms } :: clauses)
                          | _ -> fail "fault clause %S: hit count must be a positive integer" part)
                      | _ -> (
                          match float_of_string_opt (String.trim n) with
                          | Some p when p >= 0.0 && p <= 1.0 ->
                              Ok (seed, { kind; target; mode = Prob p; ms } :: clauses)
                          | _ -> fail "fault clause %S: probability must be in [0,1]" part)))
  in
  match List.fold_left parse_clause (Ok (0, [])) (String.split_on_char ',' spec) with
  | Error _ as e -> e
  | Ok (seed, clauses) -> Ok { seed; clauses = List.rev clauses }

(* ------------------------------ firing ---------------------------------- *)

(* The clauses of [kind] for [target] that fire on this visit. Each point
   key has one hit counter, shared across threads and advanced once per
   visit, and every clause is tested against that number: a
   [crash=n:3] clause fires on the third time {e that node} reaches the
   crash point, whichever thread gets it there, and
   [crash=n:3,crash=n:5] fires on the third and the fifth. A point no
   clause names counts nothing. *)
let fired kind target =
  match Atomic.get installed with
  | None -> []
  | Some st -> (
      match
        List.filter
          (fun c -> c.kind = kind && (c.target = "" || c.target = target))
          st.plan.clauses
      with
      | [] -> []
      | clauses ->
          let key = kind ^ "/" ^ target in
          Mutex.lock st.mu;
          let hit =
            match Hashtbl.find_opt st.hits key with
            | Some r ->
                incr r;
                !r
            | None ->
                Hashtbl.replace st.hits key (ref 1);
                1
          in
          let fires c =
            match c.mode with
            | Nth k -> hit = k
            | Prob p ->
                let rng =
                  match Hashtbl.find_opt st.rngs key with
                  | Some r -> r
                  | None ->
                      let r = Prng.create (st.plan.seed lxor Hashtbl.hash key) in
                      Hashtbl.replace st.rngs key r;
                      r
                in
                Prng.float rng 1.0 < p
          in
          let result = List.filter fires clauses in
          Mutex.unlock st.mu;
          result)

let crash_point ~node =
  if fired "crash" node <> [] then raise (Injected (Printf.sprintf "injected crash at %s" node))

let stall_point ~chan =
  List.iter (fun c -> Thread.delay (c.ms /. 1000.0)) (fired "stall" chan)

let xclose_point ~chan close = if fired "xclose" chan <> [] then close ()

(* Connection-level verdict for one outgoing frame. At most one action
   fires per frame, checked in severity order. [Torn n] asks the sender
   to write only the first [n] bytes and then fail the connection — the
   peer sees a truncated frame, exactly the torn-write case the decoder's
   Need_more/Corrupt handling must absorb. *)
type send_action = Pass | Torn of int | Drop | Delay of float | Disconnect

let send_point ~peer ~len =
  match fired "disconnect" peer with
  | _ :: _ -> Disconnect
  | [] -> (
      match fired "torn" peer with
      | _ :: _ -> Torn (max 1 (len / 2))
      | [] -> (
          match fired "drop" peer with
          | _ :: _ -> Drop
          | [] -> (
              match fired "delay" peer with c :: _ -> Delay (c.ms /. 1000.0) | [] -> Pass)))
