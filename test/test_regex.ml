(* Tests for the regex engine: parser, NFA compilation, Pike VM — including
   a property check against a naive reference matcher over a small
   alphabet, and the paper's HTTP pattern. *)

module Regex = Gigascope_regex.Regex
module Ast = Gigascope_regex.Ast
module Parse = Gigascope_regex.Parse
module Nfa = Gigascope_regex.Nfa

let check = Alcotest.check
let qtest ?(count = 300) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let m pattern s = Regex.matches (Regex.compile pattern) s

(* ----------------------------- basics ---------------------------------- *)

let test_literals () =
  check Alcotest.bool "exact" true (m "abc" "abc");
  check Alcotest.bool "substring match (unanchored)" true (m "abc" "xxabcxx");
  check Alcotest.bool "no match" false (m "abc" "abd");
  check Alcotest.bool "empty pattern matches anything" true (m "" "whatever");
  check Alcotest.bool "empty input vs empty pattern" true (m "" "");
  check Alcotest.bool "empty input vs literal" false (m "a" "")

let test_dot () =
  check Alcotest.bool "dot matches any" true (m "a.c" "abc");
  check Alcotest.bool "dot not newline" false (m "a.c" "a\nc");
  check Alcotest.bool "dot needs a char" false (m "a.c" "ac")

let test_classes () =
  check Alcotest.bool "range" true (m "[a-z]+" "hello");
  check Alcotest.bool "negated" true (m "[^0-9]" "x");
  check Alcotest.bool "negated miss" false (m "^[^0-9]$" "5");
  check Alcotest.bool "multi-range" true (m "^[a-zA-Z0-9]+$" "Az09");
  check Alcotest.bool "literal dash at end" true (m "^[a-]+$" "a-a");
  check Alcotest.bool "class with escape" true (m "[\\n\\t]" "a\tb")

let test_anchors () =
  check Alcotest.bool "bol" true (m "^abc" "abcdef");
  check Alcotest.bool "bol miss" false (m "^abc" "xabc");
  check Alcotest.bool "eol" true (m "abc$" "xxabc");
  check Alcotest.bool "eol miss" false (m "abc$" "abcx");
  check Alcotest.bool "both" true (m "^abc$" "abc");
  check Alcotest.bool "both miss" false (m "^abc$" "aabc")

let test_repetition () =
  check Alcotest.bool "star zero" true (m "^ab*c$" "ac");
  check Alcotest.bool "star many" true (m "^ab*c$" "abbbbc");
  check Alcotest.bool "plus needs one" false (m "^ab+c$" "ac");
  check Alcotest.bool "plus one" true (m "^ab+c$" "abc");
  check Alcotest.bool "opt zero" true (m "^ab?c$" "ac");
  check Alcotest.bool "opt one" true (m "^ab?c$" "abc");
  check Alcotest.bool "opt not two" false (m "^ab?c$" "abbc")

let test_bounded_repetition () =
  check Alcotest.bool "{3} exact" true (m "^a{3}$" "aaa");
  check Alcotest.bool "{3} under" false (m "^a{3}$" "aa");
  check Alcotest.bool "{3} over" false (m "^a{3}$" "aaaa");
  check Alcotest.bool "{2,4} low" true (m "^a{2,4}$" "aa");
  check Alcotest.bool "{2,4} high" true (m "^a{2,4}$" "aaaa");
  check Alcotest.bool "{2,4} out" false (m "^a{2,4}$" "aaaaa");
  check Alcotest.bool "{2,} unbounded" true (m "^a{2,}$" (String.make 50 'a'));
  check Alcotest.bool "{2,} under" false (m "^a{2,}$" "a")

let test_alternation () =
  check Alcotest.bool "left" true (m "^(cat|dog)$" "cat");
  check Alcotest.bool "right" true (m "^(cat|dog)$" "dog");
  check Alcotest.bool "neither" false (m "^(cat|dog)$" "cow");
  check Alcotest.bool "nested" true (m "^a(b|c(d|e))f$" "acef")

let test_escapes () =
  check Alcotest.bool "\\d" true (m "^\\d+$" "123");
  check Alcotest.bool "\\d miss" false (m "^\\d+$" "12a");
  check Alcotest.bool "\\w" true (m "^\\w+$" "ab_9");
  check Alcotest.bool "\\s" true (m "\\s" "a b");
  check Alcotest.bool "\\S" false (m "^\\S+$" "a b");
  check Alcotest.bool "escaped dot" false (m "^a\\.c$" "abc");
  check Alcotest.bool "escaped dot literal" true (m "^a\\.c$" "a.c");
  check Alcotest.bool "escaped star" true (m "^a\\*$" "a*");
  check Alcotest.bool "hex escape" true (m "^\\x41$" "A")

let test_paper_pattern () =
  (* the Section 4 experiment's pattern *)
  let rx = Regex.compile "^[^\\n]*HTTP/1.*" in
  let cases =
    [
      ("GET / HTTP/1.1\r\nHost: x", true);
      ("HTTP/1.0 200 OK", true);
      ("POST /cgi HTTP/1.1", true);
      ("\nHTTP/1.1", false); (* first line must contain it *)
      ("plain data", false);
      ("HTTP/2 h2", false);
      ("", false);
    ]
  in
  List.iter
    (fun (s, want) -> check Alcotest.bool (Printf.sprintf "%S" s) want (Regex.matches rx s))
    cases

let test_syntax_errors () =
  let bad = ["("; "a)"; "["; "[a-"; "a{2"; "a{3,1}"; "*a"; "+"; "\\"] in
  List.iter
    (fun pattern ->
      match Regex.compile_opt pattern with
      | None -> ()
      | Some _ -> Alcotest.failf "pattern %S should be rejected" pattern)
    bad

let test_error_positions () =
  match Regex.compile "ab(cd" with
  | exception Regex.Syntax_error (_, pos) -> check Alcotest.bool "position sane" true (pos >= 2)
  | _ -> Alcotest.fail "expected syntax error"

let test_program_size () =
  let small = Regex.compile "abc" in
  let big = Regex.compile "a{50}" in
  check Alcotest.bool "bounded repetition expands" true
    (Regex.program_size big > Regex.program_size small)

let test_bytes_api () =
  let rx = Regex.compile "HTTP" in
  check Alcotest.bool "bytes match" true (Regex.matches_bytes rx (Bytes.of_string "xHTTPx"));
  check Alcotest.bool "sub match" true
    (Regex.matches_bytes_sub rx (Bytes.of_string "xHTTPx") ~pos:1 ~len:4);
  check Alcotest.bool "sub miss" false
    (Regex.matches_bytes_sub rx (Bytes.of_string "xHTTPx") ~pos:2 ~len:4)

let test_pathological_linear () =
  (* catastrophic-backtracking inputs: a Pike VM stays linear *)
  let rx = Regex.compile "^(a*)*b$" in
  let s = String.make 2000 'a' in
  check Alcotest.bool "no blowup, no match" false (Regex.matches rx s);
  let rx2 = Regex.compile "a?a?a?a?a?a?a?a?a?a?aaaaaaaaaa" in
  check Alcotest.bool "classic pathological case matches" true
    (Regex.matches rx2 (String.make 10 'a'))

(* ----------------- property: engine vs naive reference ----------------- *)

(* A tiny reference matcher that directly interprets the AST, returning the
   set of end positions reachable from position [i] within [s.[start ..
   stop-1]] ([^] holds at [start], [$] at [stop]). Exponential in the
   worst case, fine for the tiny patterns/inputs generated below. *)
let rec ref_ends ast s i ~start ~stop : int list =
  let ends a i = ref_ends a s i ~start ~stop in
  match ast with
  | Ast.Empty -> [i]
  | Ast.Class cs -> if i < stop && Ast.charset_mem cs s.[i] then [i + 1] else []
  | Ast.Bol -> if i = start then [i] else []
  | Ast.Eol -> if i = stop then [i] else []
  | Ast.Seq (a, b) -> List.concat_map (ends b) (ends a i) |> List.sort_uniq compare
  | Ast.Alt (a, b) -> List.sort_uniq compare (ends a i @ ends b i)
  | Ast.Opt a -> List.sort_uniq compare (i :: ends a i)
  | Ast.Plus a -> ends (Ast.Seq (a, Ast.Star a)) i
  | Ast.Repeat (a, min_n, max_n) ->
      let rec expand k positions acc =
        let acc = if k >= min_n then List.sort_uniq compare (acc @ positions) else acc in
        let last = (match max_n with Some mx -> k >= mx | None -> k >= 10) || positions = [] in
        if last then acc
        else
          let next = List.concat_map (ends a) positions |> List.sort_uniq compare in
          expand (k + 1) next acc
      in
      expand 0 [i] []
  | Ast.Star a ->
      let rec go seen frontier =
        let frontier' =
          List.concat_map (ends a) frontier
          |> List.filter (fun j -> not (List.mem j seen))
          |> List.sort_uniq compare
        in
        if frontier' = [] then seen else go (List.sort_uniq compare (seen @ frontier')) frontier'
      in
      go [i] [i]

let ref_matches_sub ast s ~pos ~len =
  let stop = pos + len in
  let rec try_from i = i <= stop && (ref_ends ast s i ~start:pos ~stop <> [] || try_from (i + 1)) in
  try_from pos

let ref_matches ast s = ref_matches_sub ast s ~pos:0 ~len:(String.length s)

let gen_pattern =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then oneofl ["a"; "b"; "."; "[ab]"; "[^a]"; "[^\\n]"; "^"; "$"]
    else
      oneof
        [
          gen 0;
          map2 (fun a b -> a ^ b) (gen (depth - 1)) (gen (depth - 1));
          map2 (fun a b -> "(" ^ a ^ "|" ^ b ^ ")") (gen (depth - 1)) (gen (depth - 1));
          map (fun a -> "(" ^ a ^ ")*") (gen (depth - 1));
          map (fun a -> "(" ^ a ^ ")?") (gen (depth - 1));
          map (fun a -> "(" ^ a ^ ")+") (gen (depth - 1));
        ]
  in
  gen 3

(* Inputs with and without newlines: [.] and [[^\n]] stop at one. *)
let gen_input = QCheck.Gen.(string_size ~gen:(oneofl ['a'; 'b'; 'c'; '\n']) (int_range 0 8))

let engine_vs_reference =
  qtest ~count:1000 "Pike VM agrees with naive reference"
    (QCheck.make (QCheck.Gen.pair gen_pattern gen_input))
    (fun (pattern, input) ->
      let ast = Parse.parse pattern in
      let prog = Nfa.compile ast in
      let engine = Gigascope_regex.Engine.search prog input ~pos:0 ~len:(String.length input) in
      engine = ref_matches ast input)

let anchored_vs_reference =
  qtest ~count:500 "anchored patterns agree with reference"
    (QCheck.make (QCheck.Gen.pair gen_pattern gen_input))
    (fun (pattern, input) ->
      let pattern = "^" ^ pattern ^ "$" in
      let ast = Parse.parse pattern in
      let prog = Nfa.compile ast in
      let engine = Gigascope_regex.Engine.search prog input ~pos:0 ~len:(String.length input) in
      engine = ref_matches ast input)

(* A window [pos, pos+len) strictly inside the input: [^] holds at [pos]
   only, and the bytes around the window must not be read. *)
let sub_vs_reference =
  let gen =
    QCheck.Gen.(
      gen_pattern >>= fun pattern ->
      gen_input >>= fun input ->
      let n = String.length input in
      int_range 0 n >>= fun pos ->
      int_range 0 (n - pos) >>= fun len -> return (pattern, "x" ^ input, pos + 1, len))
  in
  qtest ~count:1000 "matches_sub at pos > 0 agrees with reference"
    (QCheck.make ~print:(fun (p, s, pos, len) -> Printf.sprintf "%S %S pos=%d len=%d" p s pos len) gen)
    (fun (pattern, input, pos, len) ->
      let rx = Regex.compile pattern in
      let want = ref_matches_sub (Parse.parse pattern) input ~pos ~len in
      Regex.matches_sub rx input ~pos ~len = want
      && Regex.matches_bytes_sub rx (Bytes.of_string input) ~pos ~len = want)

let test_mixed_anchoring () =
  (* Alternations and loops whose paths differ in anchoring: a thread may
     die at one offset while the unanchored branch still starts later. *)
  let cases =
    [
      ("^a|b", "cb", true);
      ("^a|b", "ca", false);
      ("b|^a", "ab", true);
      ("(^)*a", "ba", true);
      ("(^)+a", "ba", false);
      ("(^)+a", "ab", true);
      ("(^a|b)c", "xbc", true);
      ("^a|$", "xyz", true);
      ("^a$|b$", "cab", true);
      ("^[^\\n]*HTTP/1.*", "\nHTTP/1.1", false);
    ]
  in
  List.iter
    (fun (pattern, input, want) ->
      check Alcotest.bool (Printf.sprintf "%s on %S" pattern input) want (m pattern input);
      check Alcotest.bool
        (Printf.sprintf "%s on %S (reference)" pattern input)
        want
        (ref_matches (Parse.parse pattern) input))
    cases;
  let rx = Regex.compile "^a|b" in
  check Alcotest.bool "^ holds at pos" true (Regex.matches_sub rx "xab" ~pos:1 ~len:1);
  check Alcotest.bool "^ only at pos" false (Regex.matches_sub rx "axa" ~pos:1 ~len:2);
  check Alcotest.bool "later b after a dead ^a" true (Regex.matches_sub rx "xcb" ~pos:1 ~len:2)

(* The Section 4 query's pattern over every payload kind the traffic
   generator fabricates, against the reference and the definition: the
   first line contains "HTTP/1". *)
let test_paper_pattern_on_payloads () =
  let module Payload = Gigascope_traffic.Payload in
  let pattern = "^[^\\n]*HTTP/1.*" in
  let rx = Regex.compile pattern and ast = Parse.parse pattern in
  let first_line_has_http b =
    let s = Bytes.to_string b in
    let line = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s in
    let n = String.length line in
    let rec go i = i + 6 <= n && (String.sub line i 6 = "HTTP/1" || go (i + 1)) in
    go 0
  in
  let kinds =
    [
      ("http_request", Payload.http_request, Some true);
      ("http_response", Payload.http_response, Some true);
      ("tunneled", Payload.tunneled, Some false);
      ("random_binary", Payload.random_binary, None);
      ("dns_query", Payload.dns_query, None);
    ]
  in
  List.iter
    (fun (name, make, expect) ->
      let rng = Gigascope_util.Prng.create 13 in
      for i = 0 to 39 do
        let b = make rng (if i = 0 then 0 else 1 + (i * 37 mod 600)) in
        let got = Regex.matches_bytes rx b in
        let label = Printf.sprintf "%s #%d" name i in
        check Alcotest.bool (label ^ " = definition") (first_line_has_http b) got;
        check Alcotest.bool (label ^ " = reference") (ref_matches ast (Bytes.to_string b)) got;
        match expect with
        | Some want -> check Alcotest.bool (label ^ " kind") want got
        | None -> ()
      done)
    kinds

let () =
  Alcotest.run "regex"
    [
      ( "matching",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "dot" `Quick test_dot;
          Alcotest.test_case "classes" `Quick test_classes;
          Alcotest.test_case "anchors" `Quick test_anchors;
          Alcotest.test_case "repetition" `Quick test_repetition;
          Alcotest.test_case "bounded repetition" `Quick test_bounded_repetition;
          Alcotest.test_case "alternation" `Quick test_alternation;
          Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "paper HTTP pattern" `Quick test_paper_pattern;
          Alcotest.test_case "paper pattern on payloads" `Quick test_paper_pattern_on_payloads;
          Alcotest.test_case "mixed anchoring" `Quick test_mixed_anchoring;
          Alcotest.test_case "bytes api" `Quick test_bytes_api;
          Alcotest.test_case "pathological linear" `Quick test_pathological_linear;
        ] );
      ( "parser",
        [
          Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          Alcotest.test_case "program size" `Quick test_program_size;
        ] );
      ("properties", [engine_vs_reference; anchored_vs_reference; sub_vs_reference]);
    ]
