module Bpf = Gigascope_bpf

type mode =
  | Dumb
  | Filtering of { prog : Bpf.Insn.program option; snap_len : int }
  | Programmable of { prog : Bpf.Insn.program option; snap_len : int }

type stats = {
  packets_seen : int;
  packets_delivered : int;
  bytes_seen : int;
  bytes_delivered : int;
}

type t = {
  mutable nic_mode : mode;
  mutable packets_seen : int;
  mutable packets_delivered : int;
  mutable bytes_seen : int;
  mutable bytes_delivered : int;
}

let create ?(mode = Dumb) () =
  { nic_mode = mode; packets_seen = 0; packets_delivered = 0; bytes_seen = 0; bytes_delivered = 0 }

let mode t = t.nic_mode
let set_mode t m = t.nic_mode <- m

let widen t m =
  let combine (p1, s1) (p2, s2) =
    let prog =
      match (p1, p2) with
      | Some a, Some b when a = b -> Some a
      | _ -> None (* different needs: the card must pass everything *)
    in
    (prog, max s1 s2)
  in
  let parts = function
    | Dumb -> None
    | Filtering { prog; snap_len } -> Some (`F, prog, snap_len)
    | Programmable { prog; snap_len } -> Some (`P, prog, snap_len)
  in
  t.nic_mode <-
    (match (parts t.nic_mode, parts m) with
    | None, _ | _, None -> Dumb
    | Some (k1, p1, s1), Some (k2, p2, s2) ->
        let prog, snap_len = combine (p1, s1) (p2, s2) in
        if k1 = `P && k2 = `P then Programmable { prog; snap_len }
        else Filtering { prog; snap_len })

let deliver_whole t len =
  t.packets_seen <- t.packets_seen + 1;
  t.bytes_seen <- t.bytes_seen + len;
  t.packets_delivered <- t.packets_delivered + 1;
  t.bytes_delivered <- t.bytes_delivered + len

let deliver t wire =
  match t.nic_mode with
  | Dumb ->
      deliver_whole t (Bytes.length wire);
      Some wire
  | Filtering { prog; snap_len } | Programmable { prog; snap_len } -> (
      t.packets_seen <- t.packets_seen + 1;
      t.bytes_seen <- t.bytes_seen + Bytes.length wire;
      let keep =
        match prog with
        | None -> Some snap_len
        | Some p ->
            let r = Bpf.Vm.run p wire in
            if r = 0 then None else Some (min snap_len r)
      in
      match keep with
      | None -> None
      | Some keep ->
          let out = Gigascope_packet.Packet.truncate ~snap_len:keep wire in
          t.packets_delivered <- t.packets_delivered + 1;
          t.bytes_delivered <- t.bytes_delivered + Bytes.length out;
          Some out)

let stats t =
  {
    packets_seen = t.packets_seen;
    packets_delivered = t.packets_delivered;
    bytes_seen = t.bytes_seen;
    bytes_delivered = t.bytes_delivered;
  }
