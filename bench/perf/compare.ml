(* perf.exe compare A.json B.json: A is the parent, B the change. For
   every workload both files ran and every end-to-end metric, print the
   two medians and quartiles and a verdict under the metric's fixed
   bound:

   - regressed: B's median is worse than A's by more than the bound;
   - unresolved: either side's spread (interquartile range over median)
     is wider than the bound, unless every B sample beats every A sample;
   - unchanged: otherwise.

   The exit code is 1 when anything regressed, and 2 when the two files
   did not run the same configuration. *)

type side = { median : float; q1 : float; q3 : float; samples : float list }

let side_of j =
  let num k = Option.bind (Json.member k j) Json.to_num in
  match (num "median", num "q1", num "q3") with
  | Some median, Some q1, Some q3 ->
      let samples =
        Option.fold ~none:[] ~some:(fun l -> List.filter_map Json.to_num (Json.to_list l))
          (Json.member "samples" j)
      in
      Some { median; q1; q3; samples }
  | _ -> None

let spread s = if s.median = 0.0 then infinity else (s.q3 -. s.q1) /. Float.abs s.median

(* How much worse [b] is than [a], as a share of [a]; negative = better. *)
let worse (m : Defs.metric) a b =
  let d = (b -. a) /. Float.abs a in
  match m.Defs.better with Defs.Lower -> d | Defs.Higher -> -.d

let verdict (m : Defs.metric) a b =
  let bound = Option.value m.Defs.bound ~default:0.0 in
  let all_better =
    a.samples <> [] && b.samples <> []
    && List.for_all (fun y -> List.for_all (fun x -> worse m x y < 0.0) a.samples) b.samples
  in
  if spread a > bound || spread b > bound then if all_better then "unchanged" else "unresolved"
  else if worse m a.median b.median > bound then "regressed"
  else "unchanged"

let workloads j =
  match Json.member "workloads" j with Some (Json.Obj kvs) -> kvs | _ -> []

(* Medians are comparable only between runs of the same seed, length
   and size on as many cores; a traced file holds per-layer metrics. *)
let comparable a b =
  let meta j k = Option.bind (Json.member "meta" j) (Json.member k) in
  match List.find_opt (fun k -> meta a k <> meta b k) [ "seed"; "seconds"; "quick"; "host_cores" ] with
  | Some k -> Error (Printf.sprintf "the two files differ in %s" k)
  | None ->
      if meta a "trace" <> Some (Json.Bool false) || meta b "trace" <> Some (Json.Bool false) then
        Error "both files must come from untraced runs (--trace 0)"
      else Ok ()

let main path_a path_b =
  let read path = Result.map_error (fun e -> path ^ ": " ^ e) (Json.read_file path) in
  let files =
    let ( let* ) = Result.bind in
    let* a = read path_a in
    let* b = read path_b in
    let* () = comparable a b in
    Ok (a, b)
  in
  match files with
  | Error e -> prerr_endline ("compare: " ^ e); 2
  | Ok (a, b) ->
      let regressed = ref false in
      Printf.printf "%-16s %-22s %14s %25s %14s %25s  %s\n" "workload" "metric" "A median"
        "A [q1, q3]" "B median" "B [q1, q3]" "verdict";
      List.iter
        (fun (wname, wa) ->
          match List.assoc_opt wname (workloads b) with
          | None -> ()
          | Some wb ->
              List.iter
                (fun (m : Defs.metric) ->
                  let get w =
                    Option.bind (Json.member "metrics" w) (fun ms ->
                        Option.bind (Json.member m.Defs.name ms) side_of)
                  in
                  match (get wa, get wb) with
                  | Some sa, Some sb ->
                      let v = verdict m sa sb in
                      if v = "regressed" then regressed := true;
                      Printf.printf "%-16s %-22s %14.6g %25s %14.6g %25s  %s\n" wname m.Defs.name
                        sa.median
                        (Printf.sprintf "[%.6g, %.6g]" sa.q1 sa.q3)
                        sb.median
                        (Printf.sprintf "[%.6g, %.6g]" sb.q1 sb.q3)
                        v
                  | _ -> ())
                Defs.end_to_end)
        (workloads a);
      if !regressed then 1 else 0
