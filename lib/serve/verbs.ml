module Diff = Treediff.Diff
module Config = Treediff.Config
module Diag = Treediff_check.Diag
module Store = Treediff_store.Store
module Shard = Treediff_store.Shard

(* ------------------------------------------------------------------ input *)

(* One id generator per pair, the old tree parsed first: node ids, and with
   them every script, do not depend on which entry point read the pair. *)
let parse_pair ?lenient ?warn fmt ~old_src ~new_src =
  let gen = Treediff_tree.Tree.gen () in
  let t1 = Treediff_doc.Format.parse fmt ?lenient ?warn gen old_src in
  (t1, Treediff_doc.Format.parse fmt ?lenient ?warn gen new_src)

(* ----------------------------------------------------------------- config *)

let config ?(approx = false) ?(algorithm = Config.Fast_match) ?leaf_f
    ?threshold ?window ?sim_threshold
    ?(sim_top_k = Config.default.Config.sim_top_k) () =
  let criteria =
    Treediff_matching.Criteria.make ?leaf_f ?internal_t:threshold
      ~compare:Treediff_textdiff.Word_compare.distance ()
  in
  {
    (Config.with_criteria criteria) with
    algorithm = (if approx then Config.Approx_match else algorithm);
    scan_window = window;
    sim_threshold;
    sim_top_k;
  }

(* ----------------------------------------------------------------- render *)

type mode = Script | Delta | Stats | Side_by_side | Summary

let modes =
  [
    ("script", Script);
    ("delta", Delta);
    ("stats", Stats);
    ("side-by-side", Side_by_side);
    ("summary", Summary);
  ]

let mode_name m = fst (List.find (fun (_, m') -> m' = m) modes)

let render mode (result : Diff.t) =
  match mode with
  | Script -> Treediff_edit.Script_io.to_string result.Diff.script
  | Delta -> Treediff.Delta_io.to_string result.Diff.delta ^ "\n"
  | Side_by_side -> Treediff_doc.Render_align.render result.Diff.delta
  | Summary -> Treediff_doc.Render_summary.render result.Diff.delta
  | Stats ->
    let open Treediff_edit.Script in
    let m = result.Diff.measure and s = result.Diff.stats in
    Printf.sprintf
      "ops: %d (ins %d, del %d, upd %d, mov %d)\ncost: %.2f\nweighted distance e: %d\n\
       matching: %d pairs\ncomparisons: %d leaf compares, %d partner checks\n"
      (unweighted m) m.inserts m.deletes m.updates m.moves m.cost m.weighted
      (Treediff_matching.Matching.cardinal result.Diff.matching)
      s.Treediff_util.Stats.leaf_compares s.Treediff_util.Stats.partner_checks

(* ------------------------------------------------------------------ batch *)

type pair =
  | Pair_ok of Diff.t
  | Pair_degraded of Diff.t * string
  | Pair_failed of Diff.failure * string
  | Pair_unparsed of string

let classify : Treediff.Batch.outcome -> pair = function
  | Ok r -> (
    match r.Diff.degraded with
    | None -> Pair_ok r
    | Some rung -> Pair_degraded (r, Diff.rung_name rung))
  | Error f ->
    let reason = match f.Diff.attempts with (_, r) :: _ -> r | [] -> "unknown" in
    Pair_failed (f, reason)

(* The pairs that parsed are diffed together; a pair that did not keeps its
   place in the answer with its parse error. *)
let batch ~config ~execs ?jobs parsed =
  let pairs = Array.of_list (List.filter_map Result.to_option parsed) in
  let outcomes = Treediff.Batch.run ~config ~execs ?jobs pairs in
  let next = ref 0 in
  List.map
    (function
      | Error m -> Pair_unparsed m
      | Ok _ ->
        let outcome = outcomes.(!next) in
        incr next;
        classify outcome)
    parsed

(* ------------------------------------------------------------------ check *)

type artifact = Self | Script_text of string * string | Delta_text of string * string

let check ?exec ?(audit = false) ?(exhaustive = false) ~t1 ~t2 = function
  | Script_text (name, src) -> (
    (* lint + conformance against the pair; with no matching, the matching
       analyzer does not run *)
    match Treediff_edit.Script_io.parse src with
    | Error msg -> ([ Diag.make Diag.Script_parse "%s: %s" name msg ], None)
    | Ok script -> (Treediff_check.Check.verify ~t1 ~t2 script, None))
  | Delta_text (name, src) -> (
    (* structural rules, and does it reproduce the new tree *)
    match Treediff.Delta_io.parse src with
    | Error msg -> ([ Diag.make Diag.Delta_parse "%s: %s" name msg ], None)
    | Ok delta -> (Treediff.Delta_check.run ~new_tree:t2 delta, None))
  | Self ->
    let config = Config.with_check false (config ()) in
    let result = Diff.diff ~config ?exec t1 t2 in
    let diags = Diff.verify ~config ~audit_data:audit result ~t1 ~t2 in
    if exhaustive then
      (* prove the generator's op count minimal on every maximal matched
         subtree pair small enough to decide *)
      let report =
        Treediff.Oracle_audit.run ~matching:result.Diff.matching ~t1 ~t2 ()
      in
      (diags @ report.Treediff.Oracle_audit.diags,
       Some (Treediff.Oracle_audit.summary report))
    else (diags, None)

(* ------------------------------------------------------------------ store *)

type store = Single of Store.t | Corpus of Shard.t

let open_store ?exec path =
  if Shard.is_corpus path then Result.map (fun c -> Corpus c) (Shard.open_ ?exec path)
  else Result.map (fun s -> Single s) (Store.open_ ?exec path)

type chain = Archive of Store.t | Doc of Shard.t * string

let chain store ~doc =
  match (store, doc) with
  | Single s, None -> Ok (Archive s)
  | Single _, Some _ ->
    Error
      "this is a single-document archive; a doc name applies only to a \
       corpus (store init --shards)"
  | Corpus c, Some doc -> Ok (Doc (c, doc))
  | Corpus _, None ->
    Error "this archive is a corpus; per-document verbs need a doc name"

let log = function
  | Archive s -> Ok (Store.log s)
  | Doc (c, doc) -> Shard.log c doc

let materialize ?verify ?exec chain version =
  match chain with
  | Archive s -> Store.materialize ?verify ?exec s version
  | Doc (c, doc) -> Shard.materialize ?verify ?exec c ~doc version

let commit ?exec chain tree =
  match chain with
  | Archive s -> Store.commit ?exec s tree
  | Doc (c, doc) -> Shard.commit ?exec c ~doc tree

let diff_between ?exec chain ~from_ ~to_ =
  match chain with
  | Archive s -> Store.diff_between ?exec s ~from_ ~to_
  | Doc (c, doc) -> Shard.diff_between ?exec c ~doc ~from_ ~to_
