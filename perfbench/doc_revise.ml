(* doc-revise: the paper's §7/§8 path.  Closed loop, one caller.  Each
   operation parses a document pair through the format registry, runs
   [Diff.diff_result] under [Doc_tree.config] and renders the delta as
   marked-up output.

   Two kinds of noise shape the design.  Diff cost is heavy-tailed in the
   edits a pair carries (a section shuffle can cost ten times a reworded
   sentence), so a run must see many distinct pairs for its figures not to
   depend on the seed: it diffs [pairs] of them.  And a shared host has
   slow phases lasting seconds, which move a memory-heavy loop like this
   one by a quarter between runs: so the pairs are timed round after
   round, each pair's rounds seconds apart, and a pair's latency is its
   fastest round.  Pairs are generated in small segments; each segment is
   timed, then checked ([Diff.verify] and [Diff.check] on the first round,
   the same script on later ones) before the next is generated, so checks
   are never on the timed path and few results are held at a time. *)

module Format = Treediff_doc.Format
module Markup = Treediff_doc.Markup
module Doc_tree = Treediff_doc.Doc_tree
module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate
module Prng = Treediff_util.Prng
module Exec = Treediff_util.Exec
module Tree = Treediff_tree.Tree
module Diff = Treediff.Diff
module Samples = Common.Samples

let now = Common.now

let config = Doc_tree.config

let deadline_ms = Common.deadline_ms

let segment = 12

let segments = 42

let pairs = segment * segments

(* Segments generated in set-up, so that set-up is long enough to time. *)
let prepared = 8

let formats = [| Format.latex; Format.markdown; Format.xml |]

type pair = { fmt : Format.t; old_src : string; new_src : string }

(* Segment [k] holds pairs [k * segment ..].  Pair parameters are
   stratified over the pair index, not drawn: profile (medium, large) and
   mix (revision, move-heavy) alternate, format cycles LaTeX, Markdown,
   XML, and the edit count cycles 4..10. *)
let make_segment ~seed k =
  let g = Prng.create (Hashtbl.hash (seed, k)) in
  Array.init segment (fun i ->
      let n = (k * segment) + i in
      let gen = Tree.gen () in
      let profile = if n mod 2 = 0 then Docgen.medium else Docgen.large in
      let mix =
        if n / 2 mod 2 = 0 then Mutate.revision_mix else Mutate.move_heavy_mix
      in
      let fmt = formats.(n mod Array.length formats) in
      let doc = Docgen.generate g gen profile in
      let doc', _ = Mutate.mutate ~mix g gen doc ~actions:(4 + (n mod 7)) in
      { fmt; old_src = fmt.Format.render doc; new_src = fmt.Format.render doc' })

let parse_pair p =
  let gen = Tree.gen () in
  let t1 = Format.parse p.fmt gen p.old_src in
  let t2 = Format.parse p.fmt gen p.new_src in
  (t1, t2)

let render p delta =
  if p.fmt.Format.caps.Format.document_schema then Markup.to_latex delta
  else Markup.to_text delta

type window = {
  best : float array;  (** per pair, its fastest round; [infinity] if untimed *)
  scripts : Treediff_edit.Script.t option array;  (** per pair, first round *)
  costs : float array;
  lat : Samples.t;  (** every operation, in operation order *)
  mutable runs : int;
  mutable failed : int;
  mutable degraded : int;
  mutable slo_ok : int;  (** answered within the deadline *)
  mutable full_slo_ok : int;  (** ... at full quality *)
  mutable minor_words : float;
  mutable major : int;
  mutable peak_mb : float;
}

let check_result problems ~n (t1, t2, r) =
  (match Treediff_check.Diag.errors (Diff.verify ~config r ~t1 ~t2) with
  | [] -> ()
  | errs ->
    Common.Problems.add problems
      (Printf.sprintf "pair %d: Diff.verify: %s" n (Treediff_check.Diag.summary errs)));
  match Diff.check r ~t1 ~t2 with
  | Ok () -> ()
  | Error m -> Common.Problems.add problems (Printf.sprintf "pair %d: Diff.check: %s" n m)

(* Timed segments, round after round, until [seconds] of operations have
   run. *)
let window ~seed ~first ~seconds =
  let w =
    {
      best = Array.make pairs infinity;
      scripts = Array.make pairs None;
      costs = Array.make pairs 0.0;
      lat = Samples.create ();
      runs = 0;
      failed = 0;
      degraded = 0;
      slo_ok = 0;
      full_slo_ok = 0;
      minor_words = 0.0;
      major = 0;
      peak_mb = 0.0;
    }
  in
  let problems = Common.Problems.create () in
  (* warm-up, untimed *)
  for i = 0 to 2 do
    let t1, t2 = parse_pair first.(0).(i) in
    ignore (Diff.diff_result ~config t1 t2)
  done;
  let gc = Common.Gc_meter.start () in
  let minor = ref 0.0 and major = ref 0 in
  let timed = ref 0.0 in
  let k = ref 0 and round = ref 0 in
  while !timed < seconds do
    let seg = if !k < prepared then first.(!k) else make_segment ~seed !k in
    let results = Array.make segment None in
    let s0 = Gc.quick_stat () in
    let t_seg = now () in
    Array.iteri
      (fun i p ->
        let t0 = now () in
        let outcome =
          match parse_pair p with
          | exception Format.Parse_error m -> Error m
          | t1, t2 -> (
            match Diff.diff_result ~config ~exec:(Exec.create ()) t1 t2 with
            | Ok r ->
              ignore (Sys.opaque_identity (render p r.Diff.delta));
              Ok (t1, t2, r)
            | Error _ -> Error "diff_result failed")
        in
        let dt = Common.ms_between t0 (now ()) in
        let n = (!k * segment) + i in
        w.runs <- w.runs + 1;
        Samples.add w.lat dt;
        match outcome with
        | Error m ->
          w.failed <- w.failed + 1;
          Common.Problems.add problems (Printf.sprintf "pair %d: %s" n m)
        | Ok ((_, _, r) as res) ->
          w.best.(n) <- Float.min w.best.(n) dt;
          if dt <= deadline_ms then w.slo_ok <- w.slo_ok + 1;
          if r.Diff.degraded <> None then w.degraded <- w.degraded + 1
          else if dt <= deadline_ms then w.full_slo_ok <- w.full_slo_ok + 1;
          results.(i) <- Some res)
      seg;
    timed := !timed +. (now () -. t_seg);
    let s1 = Gc.quick_stat () in
    minor := !minor +. (s1.Gc.minor_words -. s0.Gc.minor_words);
    major := !major + (s1.Gc.major_collections - s0.Gc.major_collections);
    Common.Gc_meter.sample gc;
    Array.iteri
      (fun i -> function
        | None -> ()
        | Some ((_, _, r) as res) -> (
          let n = (!k * segment) + i in
          match w.scripts.(n) with
          | None ->
            check_result problems ~n res;
            w.scripts.(n) <- Some r.Diff.script;
            w.costs.(n) <- r.Diff.measure.Treediff_edit.Script.cost
          | Some s when s = r.Diff.script -> ()
          | Some _ ->
            Common.Problems.add problems
              (Printf.sprintf "pair %d: round %d gave another script" n !round)))
      results;
    incr k;
    if !k = segments then begin
      k := 0;
      incr round
    end
  done;
  w.minor_words <- !minor;
  w.major <- !major;
  w.peak_mb <- Common.Gc_meter.peak_mb gc;
  (w, Common.Problems.to_list problems)

let share w x = float_of_int x /. float_of_int (max 1 w.runs)

(* The timed pairs' latencies (fastest round each) and script costs. *)
let timed_pairs w =
  let lat = Samples.create () and cost = Samples.create () in
  Array.iteri
    (fun n b ->
      if Float.is_finite b then begin
        Samples.add lat b;
        Samples.add cost w.costs.(n)
      end)
    w.best;
  (lat, cost)

let end_to_end ~setup_s w =
  let lat, cost = timed_pairs w in
  [
    ("setup_s", setup_s);
    ("ops_per_s", float_of_int (Samples.count lat) /. (Samples.sum lat /. 1e3));
    ("latency_ms.p50", Samples.percentile lat 0.50);
    ("slo_share", share w w.slo_ok);
    ("script_cost", Samples.mean cost);
    ("peak_heap_mb", w.peak_mb);
  ]

(* The traced pass: the timed pairs again, in order, each parse, diff
   phase and render in its own span.  [Diff.diff] and [Diff.verify] run
   beside it on the same pair for the byte-identity check and are not part
   of the traced wall time, which is compared with the same operations'
   untraced latency.  It covers at least one segment and stops after
   [seconds]. *)
let trace ~seed ~first w ~seconds =
  let tt = Layers.create () in
  let parse_ms = ref 0.0 and render_ms = ref 0.0 in
  let traced_wall = ref 0.0 and untraced = ref 0.0 in
  let stop = now () +. seconds in
  let op = ref 0 and k = ref 0 in
  while !k < segments && Float.is_finite w.best.(!k * segment)
        && (!k = 0 || now () < stop) do
    let seg = if !k < prepared then first.(!k) else make_segment ~seed !k in
    Array.iteri
      (fun i p ->
        let n = (!k * segment) + i in
        let ref_before = tt.Layers.diff_ms +. tt.Layers.verify_ms in
        let t0 = now () in
        let t1, t2 = parse_pair p in
        let a = now () in
        let _, delta =
          Layers.trace_pair tt ~config ~label:(Printf.sprintf "pair %d" n)
            ~first:(n mod 2 = 0) t1 t2
        in
        let b = now () in
        ignore (Sys.opaque_identity (render p delta));
        let t_end = now () in
        parse_ms := !parse_ms +. Common.ms_between t0 a;
        render_ms := !render_ms +. Common.ms_between b t_end;
        let ref_ms = tt.Layers.diff_ms +. tt.Layers.verify_ms -. ref_before in
        traced_wall := !traced_wall +. Common.ms_between t0 t_end -. ref_ms;
        untraced := !untraced +. w.lat.Samples.data.(!op);
        incr op)
      seg;
    incr k
  done;
  let n = float_of_int (max 1 !op) in
  let metrics =
    [
      ("format.parse_ms", !parse_ms /. n);
      ("format.render_ms", !render_ms /. n);
      ("trace.overhead_ratio", !traced_wall /. !untraced);
      ("trace.ops", float_of_int !op);
    ]
    @ Layers.metrics tt
  in
  (metrics, Common.Problems.to_list tt.Layers.mismatches)

let per_layer w =
  [
    ("latency_ms.p99", Samples.percentile (fst (timed_pairs w)) 0.99);
    ("gc.minor_words_per_op", w.minor_words /. float_of_int (max 1 w.runs));
    ("gc.major_collections", float_of_int w.major);
    ("failed_share", share w w.failed);
    ("degraded_share", share w w.degraded);
    ("full_slo_share", share w w.full_slo_ok);
  ]

(* Set-up is generating the first segments' inputs. *)
let run ~seed ~seconds ~trace:traced =
  let first, setup_s =
    Common.timed_setup ~reps:(if traced then 1 else 5) ~discard:ignore
      (fun _ -> Array.init prepared (make_segment ~seed))
  in
  let w, problems = window ~seed ~first ~seconds in
  let metrics, more =
    if traced then
      let m, p = trace ~seed ~first w ~seconds in
      (m @ per_layer w, p)
    else (end_to_end ~setup_s w, [])
  in
  {
    Common.attempted = w.runs;
    failed = w.failed;
    problems = problems @ more;
    metrics;
    notes =
      [
        ("latency_samples", string_of_int (Samples.count (fst (timed_pairs w))));
        ("operations", string_of_int w.runs);
      ];
  }
