(* Breadth-first NFA simulation (Pike VM).

   At each input offset we hold two thread sets:
   - [pending]: program counters whose thread consumed the previous byte and
     must be epsilon-expanded at the new offset;
   - [classes]: Class-instruction pcs ready to consume the byte at the
     current offset (the epsilon closure of pending plus a fresh start
     thread, giving unanchored "match anywhere" semantics).
   A generation-stamped membership array makes each pc join the closure at
   most once per offset, so the whole run is O(|input| * |program|). When
   an offset leaves no thread alive, the run skips straight to the end of
   the input, where [$] can still hold. *)

type vm = {
  prog : Nfa.program;
  classes : int array;
  mutable classes_len : int;
  pending : int array;
  mutable pending_len : int;
  stamp : int array;
  mutable generation : int;
}

let make_vm prog =
  let n = Array.length prog in
  {
    prog;
    classes = Array.make n 0;
    classes_len = 0;
    pending = Array.make n 0;
    pending_len = 0;
    stamp = Array.make n (-1);
    generation = 0;
  }

(* Epsilon-expand [pc] at input offset [off]; Class pcs land in
   [vm.classes]. Returns true iff a Match instruction is reachable. *)
let rec add_thread vm ~start ~stop ~off pc =
  if vm.stamp.(pc) = vm.generation then false
  else begin
    vm.stamp.(pc) <- vm.generation;
    match vm.prog.(pc) with
    | Nfa.Jmp target -> add_thread vm ~start ~stop ~off target
    | Nfa.Split (a, b) ->
        let hit_a = add_thread vm ~start ~stop ~off a in
        let hit_b = add_thread vm ~start ~stop ~off b in
        hit_a || hit_b
    | Nfa.Assert_bol -> off = start && add_thread vm ~start ~stop ~off (pc + 1)
    | Nfa.Assert_eol -> off = stop && add_thread vm ~start ~stop ~off (pc + 1)
    | Nfa.Match -> true
    | Nfa.Class _ ->
        vm.classes.(vm.classes_len) <- pc;
        vm.classes_len <- vm.classes_len + 1;
        false
  end

let run get_char prog ~pos ~len =
  let vm = make_vm prog in
  let stop = pos + len in
  let matched = ref false in
  let off = ref pos in
  let continue = ref true in
  while !continue do
    vm.generation <- vm.generation + 1;
    vm.classes_len <- 0;
    for i = 0 to vm.pending_len - 1 do
      if add_thread vm ~start:pos ~stop ~off:!off vm.pending.(i) then matched := true
    done;
    (* Seed a fresh start thread at every offset: unanchored search. *)
    if add_thread vm ~start:pos ~stop ~off:!off 0 then matched := true;
    if !matched || !off >= stop then continue := false
    else if vm.classes_len = 0 then begin
      (* No thread is alive, and the start thread's closure at any later
         offset before [stop] is no larger than here ([Assert_bol] holds
         only at [pos], [Assert_eol] only at [stop]): nothing can happen
         until [stop]. A [^]-anchored pattern ends its scan here, at the
         first byte it rejects. *)
      vm.pending_len <- 0;
      off := stop
    end
    else begin
      let c = get_char !off in
      vm.pending_len <- 0;
      for i = 0 to vm.classes_len - 1 do
        let pc = vm.classes.(i) in
        match prog.(pc) with
        | Nfa.Class cs ->
            if Ast.charset_mem cs c then begin
              vm.pending.(vm.pending_len) <- pc + 1;
              vm.pending_len <- vm.pending_len + 1
            end
        | Nfa.Jmp _ | Nfa.Split _ | Nfa.Assert_bol | Nfa.Assert_eol | Nfa.Match -> assert false
      done;
      incr off
    end
  done;
  !matched

let search prog s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Engine.search";
  run (String.get s) prog ~pos ~len

let search_bytes prog b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Engine.search_bytes";
  run (Bytes.get b) prog ~pos ~len
