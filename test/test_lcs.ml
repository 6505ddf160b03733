(* Tests for Treediff_lcs: Myers O(ND) LCS vs the DP oracle, plus Subseq. *)

module Myers = Treediff_lcs.Myers
module Dp = Treediff_lcs.Dp
module Subseq = Treediff_lcs.Subseq

let ieq = Int.equal

let lcs_values a b =
  List.map (fun (i, j) -> (a.(i), b.(j))) (Myers.lcs ~equal:ieq a b)

let test_known_cases () =
  let check_len name a b expected =
    Alcotest.(check int) name expected (Myers.lcs_length ~equal:ieq a b)
  in
  check_len "identical" [| 1; 2; 3 |] [| 1; 2; 3 |] 3;
  check_len "disjoint" [| 1; 2; 3 |] [| 4; 5; 6 |] 0;
  check_len "classic" [| 1; 2; 3; 4; 5 |] [| 3; 4; 1; 2; 5 |] 3;
  check_len "empty left" [||] [| 1 |] 0;
  check_len "empty right" [| 1 |] [||] 0;
  check_len "both empty" [||] [||] 0;
  check_len "single match" [| 7 |] [| 7 |] 1;
  check_len "prefix" [| 1; 2 |] [| 1; 2; 3; 4 |] 2;
  check_len "suffix" [| 3; 4 |] [| 1; 2; 3; 4 |] 2;
  check_len "repeated" [| 1; 1; 1 |] [| 1; 1 |] 2

let test_pairs_are_matches () =
  let a = [| 1; 2; 3; 2; 1 |] and b = [| 2; 1; 2; 3 |] in
  let pairs = Myers.lcs ~equal:ieq a b in
  List.iter (fun (i, j) -> Alcotest.(check int) "values equal" a.(i) b.(j)) pairs

let test_strings () =
  let a = [| "the"; "quick"; "brown"; "fox" |] in
  let b = [| "the"; "brown"; "dog" |] in
  Alcotest.(check int) "string lcs" 2 (Myers.lcs_length ~equal:String.equal a b);
  Alcotest.(check int) "edit distance" 3 (Myers.edit_distance ~equal:String.equal a b)

let test_custom_equality () =
  (* LCS with a non-trivial equality: case-insensitive, the reason the paper
     cannot use the stock diff (needs equality-only comparisons). *)
  let equal a b = String.lowercase_ascii a = String.lowercase_ascii b in
  let a = [| "A"; "b"; "C" |] and b = [| "a"; "B"; "c" |] in
  Alcotest.(check int) "case-insensitive lcs" 3 (Myers.lcs_length ~equal a b)

let test_lcs_values () =
  (* Two optimal answers exist ([1;2] or [9;9;9]-crossing is impossible —
     it must pick one side); either way length is bounded by the oracle. *)
  let a = [| 9; 9; 9; 1; 2 |] and b = [| 1; 2; 9; 9; 9 |] in
  let vals = lcs_values a b in
  Alcotest.(check int) "interleaved length" 3 (List.length vals);
  List.iter (fun (x, y) -> Alcotest.(check int) "pair equal" x y) vals

(* Input sizes.  QCheck2's default [list] draws lengths up to ~10k (p90
   around 670), and the O(nm) DP oracle then spends the whole suite's
   time on a handful of huge pairs.  The properties draw mostly short
   sequences, where the edge cases live (empty, singleton, all-equal),
   with a tail into the hundreds; long inputs are a fixed set of cases
   below, checked against the same properties. *)
let len = QCheck2.Gen.(frequency [ (8, int_bound 24); (2, int_range 25 300) ])

let seq alpha = QCheck2.Gen.(list_size len (int_bound alpha))

let on_arrays f (la, lb) = f (Array.of_list la) (Array.of_list lb)

let myers_matches_dp a b =
  Myers.lcs_length ~equal:ieq a b = Dp.lcs_length ~equal:ieq a b

(* The result is a strictly increasing common subsequence. *)
let myers_increasing a b =
  let pairs = Myers.lcs ~equal:ieq a b in
  let rec ok prev = function
    | [] -> true
    | (i, j) :: rest ->
      i >= 0 && i < Array.length a && j >= 0 && j < Array.length b
      && a.(i) = b.(j)
      && (match prev with Some (pi, pj) -> i > pi && j > pj | None -> true)
      && ok (Some (i, j)) rest
  in
  ok None pairs

(* DP's own backtrack agrees with its table. *)
let dp_consistent a b =
  List.length (Dp.lcs ~equal:ieq a b) = Dp.lcs_length ~equal:ieq a b

(* Myers length equals DP-oracle length on random inputs. *)
let myers_vs_dp_prop =
  QCheck2.Test.make ~name:"myers length = dp length" ~count:1000
    QCheck2.Gen.(pair (pair (seq 5) (seq 5)) (int_range 1 6))
    (fun (lists, _alpha) -> on_arrays myers_matches_dp lists)

let myers_increasing_prop =
  QCheck2.Test.make ~name:"myers pairs strictly increasing and valid" ~count:1000
    QCheck2.Gen.(pair (seq 4) (seq 4))
    (on_arrays myers_increasing)

let dp_consistency_prop =
  QCheck2.Test.make ~name:"dp pairs length equals dp length" ~count:500
    QCheck2.Gen.(pair (seq 3) (seq 3))
    (on_arrays dp_consistent)

(* ---------------------------------------------------------------- Subseq *)

let test_subseq_known () =
  let items = Subseq.diff ~equal:ieq [| 1; 2; 3 |] [| 2; 3; 4 |] in
  Alcotest.(check bool) "starts with del" true
    (match items with Subseq.Del 0 :: _ -> true | _ -> false);
  let k, d, i = Subseq.counts items in
  Alcotest.(check (list int)) "counts" [ 2; 1; 1 ] [ k; d; i ]

(* Every index of both arrays appears exactly once, in order. *)
let subseq_covers a b =
  let items = Subseq.diff ~equal:ieq a b in
  let ai = ref 0 and bi = ref 0 and ok = ref true in
  List.iter
    (fun item ->
      match item with
      | Subseq.Keep (i, j) ->
        if i <> !ai || j <> !bi then ok := false;
        incr ai;
        incr bi
      | Subseq.Del i ->
        if i <> !ai then ok := false;
        incr ai
      | Subseq.Ins j ->
        if j <> !bi then ok := false;
        incr bi)
    items;
  !ok && !ai = Array.length a && !bi = Array.length b

(* Keeps in a Subseq.diff = LCS length. *)
let subseq_keeps a b =
  let k, _, _ = Subseq.counts (Subseq.diff ~equal:ieq a b) in
  k = Myers.lcs_length ~equal:ieq a b

let subseq_coverage_prop =
  QCheck2.Test.make ~name:"subseq covers all indices in order" ~count:500
    QCheck2.Gen.(pair (seq 4) (seq 4))
    (on_arrays subseq_covers)

let subseq_keeps_prop =
  QCheck2.Test.make ~name:"subseq keeps equal lcs length" ~count:500
    QCheck2.Gen.(pair (seq 4) (seq 4))
    (on_arrays subseq_keeps)

(* ---------------------------------------------------------- long inputs *)

(* The long inputs the default generator used to supply, as a fixed,
   seeded set: long against long (around the old p90 and beyond), very
   long against short or empty (Myers keeps O(D^2) trace, so 4000 rather
   than the old ~10k maximum bounds it to tens of MB), and structured
   pairs — equal, reversed, lightly edited — where the edit distance is
   zero, maximal or small. *)
let long_cases =
  let st = Random.State.make [| 11 |] in
  let rand n alpha = Array.init n (fun _ -> Random.State.int st (alpha + 1)) in
  let edited a =
    Array.of_list
      (List.concat_map
         (fun x ->
           match Random.State.int st 20 with
           | 0 -> []
           | 1 -> [ x; Random.State.int st 6 ]
           | _ -> [ x ])
         (Array.to_list a))
  in
  let long = rand 1500 5 in
  [
    ("random 700 x 650, alphabet 5", rand 700 5, rand 650 5);
    ("random 1200 x 1000, alphabet 2", rand 1200 2, rand 1000 2);
    ("random 1500 x 1500, alphabet 6", rand 1500 6, rand 1500 6);
    ("random 4000 x 40, alphabet 3", rand 4000 3, rand 40 3);
    ("random 40 x 4000, alphabet 4", rand 40 4, rand 4000 4);
    ("empty x 4000", [||], rand 4000 5);
    ("4000 x empty", rand 4000 5, [||]);
    ("equal 1500", long, Array.copy long);
    ("reversed 1500", long, Array.of_list (List.rev (Array.to_list long)));
    ("edited 1500", long, edited long);
  ]

let test_long_cases () =
  List.iter
    (fun (name, a, b) ->
      List.iter
        (fun (prop, f) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s" name prop) true (f a b))
        [
          ("myers length = dp length", myers_matches_dp);
          ("myers pairs valid", myers_increasing);
          ("dp pairs consistent", dp_consistent);
          ("subseq covers", subseq_covers);
          ("subseq keeps", subseq_keeps);
        ])
    long_cases

let () =
  Alcotest.run "lcs"
    [
      ( "myers",
        [
          Alcotest.test_case "known cases" `Quick test_known_cases;
          Alcotest.test_case "pairs are matches" `Quick test_pairs_are_matches;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "custom equality" `Quick test_custom_equality;
          Alcotest.test_case "lcs values" `Quick test_lcs_values;
          QCheck_alcotest.to_alcotest myers_vs_dp_prop;
          QCheck_alcotest.to_alcotest myers_increasing_prop;
          QCheck_alcotest.to_alcotest dp_consistency_prop;
        ] );
      ( "subseq",
        [
          Alcotest.test_case "known diff" `Quick test_subseq_known;
          QCheck_alcotest.to_alcotest subseq_coverage_prop;
          QCheck_alcotest.to_alcotest subseq_keeps_prop;
        ] );
      ("long", [ Alcotest.test_case "fixed long inputs" `Quick test_long_cases ]);
    ]
