(* The traced diff: [Diff.diff] rebuilt from the public calls it makes —
   [Criteria.ctx], [Fast_match.run], [Postprocess.run],
   [Edit_gen.generate], [Delta.build] — with a span around each.  Every
   traced pair is also diffed by [Diff.diff] itself, and the two scripts
   and delta trees must be byte-identical, so the per-layer numbers
   describe the program that the untraced runs measure. *)

module Criteria = Treediff_matching.Criteria
module Config = Treediff.Config
module Diff = Treediff.Diff
module Exec = Treediff_util.Exec
module Script_io = Treediff_edit.Script_io

let now = Common.now

type totals = {
  mutable pairs : int;
  mutable ctx_ms : float;
  mutable fast_match_ms : float;
  mutable leaf_compares : int;
  mutable partner_checks : int;
  mutable postprocess_ms : float;
  mutable fixes : int;
  mutable edit_gen_ms : float;
  mutable edit_gen_ops : int;
  mutable delta_ms : float;
  mutable diff_ms : float;  (** [Diff.diff] on the same pairs *)
  mutable verify_ms : float;  (** [Diff.verify] on its results *)
  mismatches : Common.Problems.t;
}

let create () =
  {
    pairs = 0;
    ctx_ms = 0.0;
    fast_match_ms = 0.0;
    leaf_compares = 0;
    partner_checks = 0;
    postprocess_ms = 0.0;
    fixes = 0;
    edit_gen_ms = 0.0;
    edit_gen_ops = 0;
    delta_ms = 0.0;
    diff_ms = 0.0;
    verify_ms = 0.0;
    mismatches = Common.Problems.create ();
  }

let phases_ms tt = tt.ctx_ms +. tt.fast_match_ms +. tt.postprocess_ms
                   +. tt.edit_gen_ms +. tt.delta_ms

(* The phases alone, as [Diff.diff] runs them for a FastMatch config.
   Returns the script and delta. *)
let phases tt ~(config : Config.t) t1 t2 =
  let exec = Exec.create () in
  let a = now () in
  let ctx = Criteria.ctx ~exec config.Config.criteria ~t1 ~t2 in
  let b = now () in
  let sim =
    Option.map (fun k -> (k, config.Config.sim_top_k)) config.Config.sim_threshold
  in
  let m =
    Treediff_matching.Fast_match.run ?window:config.Config.scan_window ?sim ctx
  in
  let c = now () in
  let fixes =
    if config.Config.postprocess then Treediff_matching.Postprocess.run ctx m
    else 0
  in
  let d = now () in
  let gen = Treediff.Edit_gen.generate ~exec ~matching:m t1 t2 in
  let e = now () in
  let delta =
    Treediff.Delta.build ~exec ~t1 ~t2 ~total:gen.Treediff.Edit_gen.total
      ~script:gen.Treediff.Edit_gen.script ()
  in
  let f = now () in
  let stats = Criteria.stats ctx in
  tt.pairs <- tt.pairs + 1;
  tt.ctx_ms <- tt.ctx_ms +. Common.ms_between a b;
  tt.fast_match_ms <- tt.fast_match_ms +. Common.ms_between b c;
  tt.leaf_compares <- tt.leaf_compares + stats.Treediff_util.Stats.leaf_compares;
  tt.partner_checks <- tt.partner_checks + stats.Treediff_util.Stats.partner_checks;
  tt.postprocess_ms <- tt.postprocess_ms +. Common.ms_between c d;
  tt.fixes <- tt.fixes + fixes;
  tt.edit_gen_ms <- tt.edit_gen_ms +. Common.ms_between d e;
  tt.edit_gen_ops <- tt.edit_gen_ops + List.length gen.Treediff.Edit_gen.script;
  tt.delta_ms <- tt.delta_ms +. Common.ms_between e f;
  (gen.Treediff.Edit_gen.script, delta)

(* The reference: [Diff.diff] and [Diff.verify] on the same pair, outside
   any traced span. *)
let run_reference tt ~(config : Config.t) t1 t2 =
  let a = now () in
  let r = Diff.diff ~config ~exec:(Exec.create ()) t1 t2 in
  let b = now () in
  let diags = Diff.verify ~config r ~t1 ~t2 in
  let c = now () in
  tt.diff_ms <- tt.diff_ms +. Common.ms_between a b;
  tt.verify_ms <- tt.verify_ms +. Common.ms_between b c;
  (r, diags)

(* The rebuilt pipeline must reproduce [Diff.diff] byte for byte, and the
   result must pass the static verifier. *)
let compare_with tt ~label (r, diags) (script, delta) =
  if
    not
      (String.equal (Script_io.to_string script)
         (Script_io.to_string r.Diff.script))
  then
    Common.Problems.add tt.mismatches
      (label ^ ": rebuilt pipeline's script differs from Diff.diff's")
  else if
    not
      (String.equal (Treediff.Delta.to_string delta)
         (Treediff.Delta.to_string r.Diff.delta))
  then
    Common.Problems.add tt.mismatches
      (label ^ ": rebuilt pipeline's delta differs from Diff.diff's");
  match Treediff_check.Diag.errors diags with
  | [] -> ()
  | errs ->
    Common.Problems.add tt.mismatches
      (label ^ ": Diff.verify: " ^ Treediff_check.Diag.summary errs)

(* One traced pair: the phases and the reference, in the order [first]
   picks.  Callers alternate it so that warm caches favour neither side
   of [diff.overhead_ms].  Returns what the phases produced. *)
let trace_pair tt ~config ~label ~first t1 t2 =
  if first then begin
    let out = phases tt ~config t1 t2 in
    compare_with tt ~label (run_reference tt ~config t1 t2) out;
    out
  end
  else begin
    let reference = run_reference tt ~config t1 t2 in
    let out = phases tt ~config t1 t2 in
    compare_with tt ~label reference out;
    out
  end

let per_pair tt x = if tt.pairs = 0 then 0.0 else x /. float_of_int tt.pairs

(* The per-layer metrics of the diff layers, as means per diffed pair. *)
let metrics tt =
  let n = per_pair tt in
  [
    ("criteria.ctx_ms", n tt.ctx_ms);
    ("fast_match.ms", n tt.fast_match_ms);
    ("fast_match.leaf_compares", n (float_of_int tt.leaf_compares));
    ("fast_match.partner_checks", n (float_of_int tt.partner_checks));
    ("postprocess.ms", n tt.postprocess_ms);
    ("postprocess.fixes", n (float_of_int tt.fixes));
    ("edit_gen.ms", n tt.edit_gen_ms);
    ("edit_gen.ops", n (float_of_int tt.edit_gen_ops));
    ("delta.ms", n tt.delta_ms);
    ("diff.overhead_ms", n (tt.diff_ms -. phases_ms tt));
    ("check.verify_ms", n tt.verify_ms);
  ]
