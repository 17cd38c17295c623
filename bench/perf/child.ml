(* Each measured run happens in a fresh forked child, so heap and GC
   numbers belong to that run alone. The parent never starts a domain or
   a thread, which is what makes [fork] safe here. *)

exception Failed of string

let read_all fd ~deadline =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let complete = go () in
  (complete, Buffer.contents buf)

(* [run f] is [f ()] computed in a child process. A child that raises,
   dies, or outlives [timeout_s] raises [Failed] here; a timed-out child
   is killed, and every child is reaped before [run] returns. *)
let run ?(timeout_s = 150.0) (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let result : ('a, string) result =
        match f () with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      (try
         Marshal.to_channel oc result [];
         close_out oc
       with _ -> ());
      flush stderr;
      (* _exit: the parent's at_exit handlers and buffers are not ours *)
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let complete, data =
        Fun.protect
          ~finally:(fun () -> Unix.close rd)
          (fun () -> read_all rd ~deadline:(Unix.gettimeofday () +. timeout_s))
      in
      if not complete then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      let rec reap () =
        match Unix.waitpid [] pid with
        | _, status -> status
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      in
      let status = reap () in
      if not complete then raise (Failed (Printf.sprintf "child timed out after %.0fs" timeout_s));
      if data = "" then
        raise
          (Failed
             (match status with
             | Unix.WEXITED c -> Printf.sprintf "child exited %d without a result" c
             | Unix.WSIGNALED s -> Printf.sprintf "child killed by signal %d" s
             | Unix.WSTOPPED s -> Printf.sprintf "child stopped by signal %d" s));
      (match (Marshal.from_string data 0 : ('a, string) result) with
      | Ok v -> v
      | Error e -> raise (Failed e))
