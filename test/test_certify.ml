(* Static memory certification and the admission gate.

   The claim under test: every compiled plan either carries a finite
   symbolic state bound (composed from epoch group-closing, join
   windows, merge skew and sketch parameters) or a structured
   Unbounded verdict naming the operator, the missing ordering
   property, and the fixing rewrite — and the engine refuses, warns on,
   or silently admits unbounded plans according to its admission mode.
   Every query we ship and every differential workload must certify
   finite; the two canonical unbounded shapes (an epoch-less
   aggregation, a windowless join) must not. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Gsql = Gigascope_gsql
module Certify = Gsql.Certify
module Value = Rts.Value

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Compile against a fresh default catalog (sessions registered like
   gsq explain does, so the shipped sessions_report compiles too). *)
let compile text =
  let engine = E.create () in
  ignore (E.add_session_source engine ~name:"sessions" ~feed:(fun () -> None) ());
  match Gsql.Compile.compile_program (E.catalog engine) text with
  | Error e -> Alcotest.fail e
  | Ok compiled -> compiled

let certs text =
  List.map (fun c -> Certify.certify c.Gsql.Compile.split) (compile text)

let last_cert text =
  match List.rev (certs text) with
  | c :: _ -> c
  | [] -> Alcotest.fail "no queries compiled"

(* ------------------------- unbounded verdicts --------------------------- *)

let epochless_agg = "DEFINE { query_name peraddr; } SELECT srcip, count(*) as c FROM eth0.tcp GROUP BY srcip"

let test_epochless_agg_unbounded () =
  let cert = last_cert epochless_agg in
  check Alcotest.bool "verdict is unbounded" false (Certify.finite cert);
  match Certify.unbounded_nodes cert with
  | [ u ] ->
      check Alcotest.string "names the super-aggregation" "peraddr" u.Certify.u_operator;
      check Alcotest.bool "reason names the missing epoch" true
        (contains u.Certify.u_reason "monotone");
      check Alcotest.bool "fix proposes a bucketed ordered key" true
        (contains u.Certify.u_fix "GROUP BY");
      (* the LFTA half is a direct-mapped table, bounded regardless *)
      check Alcotest.bool "lfta table stays bounded" true
        (Certify.node_bound cert "_lfta_peraddr" <> None)
  | us -> Alcotest.failf "expected exactly one unbounded node, got %d" (List.length us)

let windowless_join =
  {| DEFINE { query_name l; } SELECT time, srcip FROM eth0.tcp
     DEFINE { query_name r; } SELECT time, destip FROM eth0.tcp
     DEFINE { query_name j; }
     SELECT a.time, a.srcip, b.destip FROM l a, r b WHERE a.srcip = b.destip |}

let test_windowless_join_unbounded () =
  let cert = last_cert windowless_join in
  check Alcotest.bool "verdict is unbounded" false (Certify.finite cert);
  match Certify.unbounded_nodes cert with
  | [ u ] ->
      check Alcotest.string "names the join" "j" u.Certify.u_operator;
      check Alcotest.bool "reason names the unbounded window" true
        (contains u.Certify.u_reason "bound");
      check Alcotest.bool "fix proposes window conjuncts" true
        (contains u.Certify.u_fix "window")
  | us -> Alcotest.failf "expected exactly one unbounded node, got %d" (List.length us)

let test_one_sided_window_unbounded () =
  let text =
    {| DEFINE { query_name l; } SELECT time, srcip FROM eth0.tcp
       DEFINE { query_name r; } SELECT time, destip FROM eth0.tcp
       DEFINE { query_name j; }
       SELECT a.time FROM l a, r b WHERE a.time >= b.time - 2 and a.srcip = b.destip |}
  in
  let cert = last_cert text in
  check Alcotest.bool "half a window is no window" false (Certify.finite cert)

let test_windowed_join_finite () =
  let text =
    {| DEFINE { query_name l; } SELECT time, srcip FROM eth0.tcp
       DEFINE { query_name r; } SELECT time, destip FROM eth0.tcp
       DEFINE { query_name j; }
       SELECT a.time FROM l a, r b
       WHERE a.time >= b.time - 2 and a.time <= b.time + 1 and a.srcip = b.destip |}
  in
  let cert = last_cert text in
  check Alcotest.bool "windowed join certifies finite" true (Certify.finite cert);
  check Alcotest.bool "a window implies a positive bound" true
    (match Certify.total_estimate cert with Some b -> b > 0.0 | None -> false)

(* ------------------------ shipped plans certify ------------------------- *)

let test_shipped_queries_finite () =
  let dir = Workloads.queries_dir () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".gsql")
    |> List.sort compare
  in
  check Alcotest.bool "query files found" true (files <> []);
  List.iter
    (fun f ->
      let ic = open_in (Filename.concat dir f) in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      List.iter
        (fun cert ->
          if not (Certify.finite cert) then
            Alcotest.failf "%s: %s is unbounded:\n%s" f cert.Certify.cquery
              (Certify.report cert))
        (certs text))
    files

let test_differential_workloads_admit_under_reject () =
  (* the 7-workload differential set must install on an engine that
     rejects unbounded plans — certification of the whole suite *)
  List.iter
    (fun (w : Workloads.workload) ->
      let engine = E.create ~admit:E.Admit_reject () in
      w.Workloads.setup ~seed:5 engine;
      match E.install_program engine ~params:w.Workloads.params (w.Workloads.program ()) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s rejected: %s" w.Workloads.wname e)
    Workloads.workloads

(* --------------------------- admission modes ---------------------------- *)

let engine_with_traffic ?admit () =
  let engine = E.create ?admit () in
  E.add_generator_interface engine ~name:"eth0"
    { Gigascope_traffic.Gen.default with rate_mbps = 20.0; duration = 0.05; seed = 9 };
  engine

let test_reject_refuses_unbounded () =
  let engine = engine_with_traffic ~admit:E.Admit_reject () in
  match E.install_program engine epochless_agg with
  | Ok _ -> Alcotest.fail "reject admission accepted an unbounded plan"
  | Error e ->
      check Alcotest.bool "error names the operator" true (contains e "peraddr");
      check Alcotest.bool "error carries the diagnostic" true (contains e "unbounded state");
      check Alcotest.bool "error names the override" true (contains e "--allow-unbounded")

let test_warn_installs_unbounded () =
  let engine = engine_with_traffic ~admit:E.Admit_warn () in
  (match E.install_program engine epochless_agg with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "warn admission must install: %s" e);
  (* flush-driven use still works: this is Section 2.2's epoch-less
     aggregation, the reason warn (not reject) is the library default *)
  let rows = ref 0 in
  Result.get_ok (E.on_tuple engine "peraddr" (fun _ -> incr rows));
  (match E.run engine () with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.bool "epoch-less aggregation still emits at EOF" true (!rows > 0)

let test_bounded_plans_admit_everywhere () =
  List.iter
    (fun admit ->
      let engine = engine_with_traffic ~admit () in
      match E.install_program engine "SELECT tb, count(*) as c FROM eth0.tcp GROUP BY time/1 as tb" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bounded plan rejected under %s: %s" (E.admit_to_string admit) e)
    [ E.Admit_allow; E.Admit_warn; E.Admit_reject ]

let with_env name value body =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:"")) body

let test_admit_env_knob () =
  with_env "GIGASCOPE_ADMIT" "reject" (fun () ->
      check Alcotest.string "GIGASCOPE_ADMIT=reject honored" "reject"
        (E.admit_to_string (E.admit_mode (E.create ()))));
  with_env "GIGASCOPE_ADMIT" "Allow" (fun () ->
      check Alcotest.string "case-insensitive" "allow"
        (E.admit_to_string (E.admit_mode (E.create ()))));
  with_env "GIGASCOPE_ADMIT" "bogus" (fun () ->
      (* malformed values warn and default, like every other knob *)
      check Alcotest.string "garbage defaults to warn" "warn"
        (E.admit_to_string (E.admit_mode (E.create ()))));
  with_env "GIGASCOPE_ADMIT" "" (fun () ->
      check Alcotest.string "unset defaults to warn" "warn"
        (E.admit_to_string (E.admit_mode (E.create ()))))

(* ----------------------- installed-plan wiring -------------------------- *)

let test_install_wires_bounds_and_burst () =
  let engine = engine_with_traffic () in
  (match E.install_program engine (Workloads.read_query "tcpdest") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* the certificate is recorded per query... *)
  (match E.certificate engine "portcounts" with
  | None -> Alcotest.fail "no certificate recorded for portcounts"
  | Some cert -> check Alcotest.bool "recorded certificate is finite" true (Certify.finite cert));
  (* ...its per-node bounds land on the runtime nodes... *)
  (match Rts.Manager.find (E.manager engine) "portcounts" with
  | None -> Alcotest.fail "portcounts not installed"
  | Some node ->
      check Alcotest.bool "node carries a finite certified bound" true
        (Float.is_finite (Rts.Node.state_bound node)));
  (* ...and the LFTA's table flush sets the query burst (2^12 slots) *)
  check Alcotest.bool "certified burst covers an LFTA table flush" true
    (E.certified_burst engine "portcounts" >= 4096);
  check Alcotest.int "unknown queries have burst 1" 1 (E.certified_burst engine "nosuch")

let test_explain_memory_surfaces_certification () =
  let engine = E.create () in
  let text = "SELECT tb, count(*) as c FROM eth0.tcp GROUP BY time/1 as tb" in
  (match E.explain engine ~memory:true text with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check Alcotest.bool "memory section present" true (contains s "memory certification");
      check Alcotest.bool "query bound printed" true (contains s "query bound"));
  match E.explain engine text with
  | Error e -> Alcotest.fail e
  | Ok s -> check Alcotest.bool "off by default" false (contains s "memory certification")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "certify"
    [
      ( "unbounded verdicts",
        [
          tc "epoch-less aggregation" test_epochless_agg_unbounded;
          tc "windowless join" test_windowless_join_unbounded;
          tc "one-sided window" test_one_sided_window_unbounded;
          tc "windowed join is finite" test_windowed_join_finite;
        ] );
      ( "shipped plans",
        [
          tc "every queries/*.gsql certifies finite" test_shipped_queries_finite;
          tc "differential workloads admit under reject" test_differential_workloads_admit_under_reject;
        ] );
      ( "admission",
        [
          tc "reject refuses with the diagnostic" test_reject_refuses_unbounded;
          tc "warn installs and flushes at EOF" test_warn_installs_unbounded;
          tc "bounded plans admit everywhere" test_bounded_plans_admit_everywhere;
          tc "GIGASCOPE_ADMIT knob" test_admit_env_knob;
        ] );
      ( "wiring",
        [
          tc "install records certificate, bounds, burst" test_install_wires_bounds_and_burst;
          tc "explain --memory" test_explain_memory_surfaces_certification;
        ] );
    ]
