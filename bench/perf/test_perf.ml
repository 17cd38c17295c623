(* The benchmark's own checks, on a slice of about 20k packets:

   - the bench-side traced driver produces exactly Engine.run's output,
     at batch 1 and at batch 64, and both match the reference
     computation;
   - the harness reports exactly the metrics BENCHMARK.json lists, with
     the same units, directions and bounds, under names the benchmark
     contract accepts;
   - compare refuses two results files of different configurations. *)

open Perf_lib

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let slice = 0.125

let () =
  let packets = Workload.packets Workload.e2_local ~seed:5 ~scale:slice in
  check (Printf.sprintf "slice has about 20k packets (%d)" (Array.length packets))
    (Array.length packets > 10_000 && Array.length packets < 40_000);
  let expected = Check.reference ~queries:Workload.e2_local.Workload.queries ~packets in
  List.iter
    (fun batch ->
      let inp = Rep.prepare { Workload.e2_local with Workload.batch } packets in
      let plain = Rep.run inp Rep.Plain in
      let traced = Rep.run inp Rep.Traced in
      check
        (Printf.sprintf "batch %d: Engine.run matches the reference" batch)
        (Bench.check_outputs ~expected plain = []);
      check
        (Printf.sprintf "batch %d: traced driver output identical to Engine.run" batch)
        (Bench.check_identical ~what:"traced" plain traced = []))
    [ 1; 64 ];
  (* The names the harness actually emits, from one untraced and one
     traced run of the slice. *)
  let inp = Rep.prepare Workload.e2_local packets in
  let base = Rep.run inp Rep.Plain in
  let traced = Rep.run inp Rep.Traced in
  let comp = Rep.components packets in
  let emitted_e2e = List.map fst (Bench.end_to_end [ base ] ~setup:[]) in
  let emitted_layers =
    List.map fst (Bench.layer_metrics ~base ~traced (Option.get traced.Rep.trace) comp)
  in
  let spec =
    match Json.read_file "../../BENCHMARK.json" with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let listed key =
    Option.fold ~none:[] ~some:Json.to_list (Json.member key spec)
    |> List.map (fun m ->
           let str k = Option.bind (Json.member k m) Json.to_str |> Option.value ~default:"" in
           (str "name", str "unit", str "better", Option.bind (Json.member "bound" m) Json.to_num))
  in
  let defs ms =
    List.map
      (fun (m : Defs.metric) ->
        (m.Defs.name, m.Defs.unit_, Defs.better_to_string m.Defs.better, m.Defs.bound))
      ms
  in
  let names l = List.sort compare (List.map (fun (n, _, _, _) -> n) l) in
  check "end_to_end in BENCHMARK.json = the metric table" (listed "end_to_end" = defs Defs.end_to_end);
  check "per_layer in BENCHMARK.json = the metric table" (listed "per_layer" = defs Defs.per_layer);
  check "the timed run emits exactly the end_to_end names"
    (List.sort compare emitted_e2e = names (listed "end_to_end"));
  check "the traced run emits exactly the per_layer names"
    (List.sort compare emitted_layers = names (listed "per_layer"));
  let all = names (listed "end_to_end") @ names (listed "per_layer") in
  check "every name matches [A-Za-z0-9_.-]+" (List.for_all valid_name all);
  check "no name is used twice" (List.length (List.sort_uniq compare all) = List.length all);
  let results ?(seed = 5.0) ?(quick = false) ?(trace = false) () =
    Json.Obj
      [
        ( "meta",
          Json.Obj
            [
              ("seed", Json.Num seed);
              ("seconds", Json.Num 20.0);
              ("quick", Json.Bool quick);
              ("trace", Json.Bool trace);
              ("host_cores", Json.Num 2.0);
            ] );
      ]
  in
  let base = results () in
  check "compare accepts two runs of one configuration" (Compare.comparable base (results ()) = Ok ());
  List.iter
    (fun (what, other) ->
      check ("compare refuses " ^ what) (Result.is_error (Compare.comparable base other)))
    [
      ("another seed", results ~seed:6.0 ());
      ("a --quick run", results ~quick:true ());
      ("a traced run", results ~trace:true ());
      ("a file without meta", Json.Obj []);
    ];
  if !failures > 0 then exit 1
