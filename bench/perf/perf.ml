(* The benchmark's command line.

     perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
              [--quick] [--out FILE]
     perf.exe compare A.json B.json

   Prints every metric by name with its unit, writes the results JSON
   (default perf-results.json), and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. Exit 1 when an output
   check failed, 2 on bad usage or a GIGASCOPE_* variable in the
   environment. *)

open Perf_lib

let usage =
  "usage: perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out \
   FILE]\n\
  \       perf.exe compare A.json B.json\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all)

let die msg =
  prerr_endline msg;
  exit 2

(* Engine.create and Engine.run read GIGASCOPE_* knobs when an argument
   is left out; a stray one would measure a different program. The
   benchmark passes every knob explicitly and refuses to run beside one. *)
let refuse_knobs () =
  Array.iter
    (fun kv ->
      if String.starts_with ~prefix:"GIGASCOPE_" kv then
        let name = match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv in
        die (Printf.sprintf "perf: refusing to run with %s set; unset it first" name))
    (Unix.environment ())

(* The commit, read from .git without starting a process. *)
let git_rev () =
  let read path = try Some (String.trim (In_channel.with_open_bin path In_channel.input_all)) with _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some rev -> rev
      | None -> (
          match read ".git/packed-refs" with
          | Some packed -> (
              String.split_on_char '\n' packed
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ rev; name ] when name = r -> Some rev
                     | _ -> None)
              |> function
              | Some rev -> rev
              | None -> "unknown")
          | None -> "unknown"))
  | Some rev -> rev
  | None -> "unknown"

let num f = Json.Num f

let print_outcome (o : Bench.outcome) ~trace =
  let w = o.Bench.workload in
  Printf.printf "\n== %s  seed %d  %d packets  %d %s%s\n" w.Workload.name o.Bench.seed
    o.Bench.packets o.Bench.runs
    (if trace then "traced runs" else "runs")
    (if w.Workload.domains > Domain.recommended_domain_count () then
       "  (more domains than cores: overhead only)"
     else "");
  let defs = if trace then Defs.per_layer else Defs.end_to_end in
  List.iter
    (fun (m : Defs.metric) ->
      let s = List.assoc m.Defs.name o.Bench.metrics in
      Printf.printf "  %-40s %16.6g %-9s [q1 %.6g, q3 %.6g, n %d]%s\n" m.Defs.name s.Bench.median
        m.Defs.unit_ s.Bench.q1 s.Bench.q3 (List.length s.Bench.samples)
        (if s.Bench.raw = s.Bench.samples then ""
         else Printf.sprintf "  raw %.6g" (Bench.summarize s.Bench.raw).Bench.median))
    defs;
  if not trace then
    Printf.printf "  close latency rests on %d samples\n" o.Bench.close_samples;
  (match o.Bench.shown with
  | Some ({ Rep.trace = Some t; _ } as r) ->
      let per_pkt x = x /. float_of_int r.Rep.packets in
      let share x = 100.0 *. x /. t.Rep.t_wall_ns in
      Printf.printf "\n  %-26s %12s %12s %8s %12s %12s\n" "layer (traced run)" "ns/pkt" "words/pkt"
        "share" "tuples-in" "tuples-out";
      List.iter
        (fun (l : Rep.layer) ->
          Printf.printf "  %-26s %12.1f %12s %7.1f%% %12d %12d\n" l.Rep.layer (per_pkt l.Rep.ns)
            (match l.Rep.words with Some wd -> Printf.sprintf "%.1f" (per_pkt wd) | None -> "-")
            (share l.Rep.ns) l.Rep.tuples_in l.Rep.tuples_out)
        t.Rep.layers;
      List.iter
        (fun (label, x) -> Printf.printf "  %-26s %12.1f %12s %7.1f%%\n" label (per_pkt x) "" (share x))
        [ ("(trace probes)", t.Rep.probes_ns); ("(unattributed)", t.Rep.unattributed_ns) ]
  | Some _ | None -> ());
  List.iter (fun e -> Printf.eprintf "%s: CHECK FAILED: %s\n" w.Workload.name e) o.Bench.errors;
  Printf.printf "  outputs %s\n%!"
    (if o.Bench.errors = [] then "match the reference" else "FAILED (see stderr)")

let summary_json (s : Bench.summary) (m : Defs.metric) =
  Json.Obj
    ([
       ("unit", Json.Str m.Defs.unit_);
       ("better", Json.Str (Defs.better_to_string m.Defs.better));
     ]
    @ (match m.Defs.bound with Some b -> [ ("bound", num b) ] | None -> [])
    @ [
        ("median", num s.Bench.median);
        ("q1", num s.Bench.q1);
        ("q3", num s.Bench.q3);
        ("samples", Json.List (List.map num s.Bench.samples));
      ]
    @
    if s.Bench.raw = s.Bench.samples then []
    else
      [
        ("raw_median", num (Bench.summarize s.Bench.raw).Bench.median);
        ("raw_samples", Json.List (List.map num s.Bench.raw));
      ])

let outcome_json (o : Bench.outcome) ~trace =
  let w = o.Bench.workload in
  let defs = if trace then Defs.per_layer else Defs.end_to_end in
  Json.Obj
    [
      ( "config",
        Json.Obj
          [
            ("packets", num (float_of_int o.Bench.packets));
            ("batch", num (float_of_int w.Workload.batch));
            ("domains", num (float_of_int w.Workload.domains));
            ("shards", num (float_of_int w.Workload.shards));
            ( "mode",
              Json.Str
                (match w.Workload.mode with
                | Workload.Flat_out -> "flat-out"
                | Workload.Paced { speedup } -> Printf.sprintf "paced x%g" speedup) );
            ("runs", num (float_of_int o.Bench.runs));
          ] );
      ("correct", Json.Bool (o.Bench.errors = []));
      ("errors", Json.List (List.map (fun e -> Json.Str e) o.Bench.errors));
      ("attempted", num (float_of_int o.Bench.attempted));
      ("failed", num (float_of_int o.Bench.failed));
      ("close_latency_samples", num (float_of_int o.Bench.close_samples));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Defs.metric) ->
               (m.Defs.name, summary_json (List.assoc m.Defs.name o.Bench.metrics) m))
             defs) );
    ]

(* The contract's last line: every metric of the mode, median value. *)
let last_line (o : Bench.outcome) ~trace =
  let defs = if trace then Defs.per_layer else Defs.end_to_end in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (o.Bench.errors = []));
         ("attempted", num (float_of_int o.Bench.attempted));
         ("failed", num (float_of_int o.Bench.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Defs.metric) ->
                  ( m.Defs.name,
                    Json.Obj
                      [
                        ("value", num (List.assoc m.Defs.name o.Bench.metrics).Bench.median);
                        ("unit", Json.Str m.Defs.unit_);
                      ] ))
                defs) );
       ])

let run_main args =
  let workload = ref "all" and seed = ref 5 and seconds = ref None and trace = ref false in
  let quick = ref false and out = ref "perf-results.json" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> die usage);
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := Some s | _ -> die usage);
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> die usage);
        parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | _ -> die usage
  in
  parse args;
  refuse_knobs ();
  let workloads =
    if !workload = "all" then Workload.all
    else match Workload.find !workload with Some w -> [ w ] | None -> die usage
  in
  let seconds = match !seconds with Some s -> s | None -> if !quick then 1.0 else 20.0 in
  let cfg = { Bench.seed = !seed; seconds; quick = !quick; trace = !trace } in
  let log msg = Printf.eprintf "%s\n%!" msg in
  let outcomes =
    List.map
      (fun w ->
        let o = Bench.run w cfg ~log in
        print_outcome o ~trace:!trace;
        o)
      workloads
  in
  let host_cores = Domain.recommended_domain_count () in
  Json.write_file !out
    (Json.Obj
       [
         ( "meta",
           Json.Obj
             [
               ("git_rev", Json.Str (git_rev ()));
               ("host_cores", num (float_of_int host_cores));
               ("ocaml", Json.Str Sys.ocaml_version);
               ("word_size_bits", num (float_of_int Sys.word_size));
               ("seed", num (float_of_int !seed));
               ("seconds", num seconds);
               ("quick", Json.Bool !quick);
               ("trace", Json.Bool !trace);
             ] );
         ( "workloads",
           Json.Obj
             (List.map
                (fun o -> (o.Bench.workload.Workload.name, outcome_json o ~trace:!trace))
                outcomes) );
       ]);
  Printf.printf "wrote %s\n" !out;
  List.iter (fun o -> print_endline (last_line o ~trace:!trace)) outcomes;
  if List.exists (fun o -> o.Bench.errors <> []) outcomes then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> exit (Compare.main a b)
  | "compare" :: _ -> die usage
  | args -> run_main args
