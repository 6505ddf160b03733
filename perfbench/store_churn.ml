(* store-churn: closed loop, one client on a sharded corpus pre-filled in
   set-up.  One commit of a parsed small-document revision per four
   verified materializations; 80% of reads go to a hot set that fits the
   64-document chain cache, the rest uniformly over a corpus four times
   that size.  Small inputs make the per-diff fixed cost, parse and the
   commit's verify/invert/encode/append/manifest work dominate, and reads
   run beside writes. *)

module Format = Treediff_doc.Format
module Doc_tree = Treediff_doc.Doc_tree
module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate
module Prng = Treediff_util.Prng
module Vec = Treediff_util.Vec
module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node
module Iso = Treediff_tree.Iso
module Shard = Treediff_store.Shard
module Chain = Treediff_store.Chain
module Diff = Treediff.Diff
module Samples = Common.Samples

let now = Common.now

let config = Doc_tree.config

let n_docs = 256

let hot = 48

let initial_versions = 4

let shards = 4

let deadline_ms = Common.deadline_ms

let formats = [| Format.latex; Format.markdown; Format.xml |]

type doc = {
  name : string;
  fmt : Format.t;
  gen : Tree.gen;
  mutable head : Node.t;  (** the generated tree of the newest version *)
  srcs : string Vec.t;  (** every version's source text *)
  hashes : int64 Vec.t;  (** [Iso.hash] of every version as parsed *)
}

type state = { dir : string; store : Shard.t; docs : doc array; g : Prng.t }

let parse d src = Format.parse d.fmt (Tree.gen ()) src

let add_version d tree =
  d.head <- tree;
  let src = d.fmt.Format.render tree in
  Vec.push d.srcs src;
  Vec.push d.hashes (Iso.hash (parse d src))

let revise g d =
  let tree, _ =
    Mutate.mutate ~mix:Mutate.revision_mix g d.gen d.head
      ~actions:(Prng.int_in g 2 5)
  in
  add_version d tree

let fail fmt = Printf.ksprintf failwith fmt

(* Generate every document's first versions and ingest them. *)
let setup ~seed rep =
  let g = Prng.create seed in
  let docs =
    Array.init n_docs (fun i ->
        let gen = Tree.gen () in
        let tree = Docgen.generate g gen Docgen.small in
        let d =
          {
            name = Printf.sprintf "doc%03d" i;
            fmt = formats.(i mod Array.length formats);
            gen;
            head = tree;
            srcs = Vec.create ();
            hashes = Vec.create ();
          }
        in
        add_version d tree;
        for _ = 2 to initial_versions do
          revise g d
        done;
        d)
  in
  let dir = Common.fresh_dir (Printf.sprintf "store-%d" rep) in
  let store =
    match Shard.init ~shards dir with Ok s -> s | Error m -> fail "init: %s" m
  in
  let sources =
    Array.to_list
      (Array.map
         (fun d ->
           {
             Shard.name = d.name;
             count = Vec.length d.srcs;
             load = (fun v -> Ok (parse d (Vec.get d.srcs v)));
           })
         docs)
  in
  (match Shard.ingest ~config ~jobs:1 store sources with
  | Ok { Shard.docs_failed = []; _ } -> ()
  | Ok { Shard.docs_failed = (doc, m) :: _; _ } -> fail "ingest %s: %s" doc m
  | Error m -> fail "ingest: %s" m);
  { dir; store; docs; g }

let discard st = Common.remove_tree st.dir

type op = Commit of doc * int | Read of doc * int

(* The next operation; a commit's revision is generated here, before its
   timer starts. *)
let next_op st i =
  if i mod 5 = 4 then begin
    let d = st.docs.(Prng.int st.g n_docs) in
    revise st.g d;
    Commit (d, Vec.length d.srcs - 1)
  end
  else
    let d =
      if Prng.chance st.g 0.8 then st.docs.(Prng.int st.g hot)
      else st.docs.(Prng.int st.g n_docs)
    in
    Read (d, Prng.int st.g (Vec.length d.srcs))

type window = {
  lat : Samples.t;
  commit_lat : Samples.t;
  read_lat : Samples.t;
  parse_lat : Samples.t;  (** traced commits only *)
  traced_lat : Samples.t;  (** traced commits *)
  untraced_lat : Samples.t;  (** the other commits *)
  mutable ops : int;
  mutable failed : int;
  mutable slo_ok : int;
  commits : (doc * int) Vec.t;
  mutable checkpoints : int;
  reads : (doc * int * int64) Vec.t;
  mutable bytes_added : int;
  mutable minor_words : float;
  mutable major : int;
  mutable peak_mb : float;
  problems : Common.Problems.t;
}

let corpus_bytes store =
  let s = Shard.stats store in
  Array.fold_left ( + ) s.Shard.stat_manifest_bytes s.Shard.stat_shard_bytes

let window st ~seconds ~traced =
  let w =
    {
      lat = Samples.create ();
      commit_lat = Samples.create ();
      read_lat = Samples.create ();
      parse_lat = Samples.create ();
      traced_lat = Samples.create ();
      untraced_lat = Samples.create ();
      ops = 0;
      failed = 0;
      slo_ok = 0;
      commits = Vec.create ();
      checkpoints = 0;
      reads = Vec.create ();
      bytes_added = 0;
      minor_words = 0.0;
      major = 0;
      peak_mb = 0.0;
      problems = Common.Problems.create ();
    }
  in
  let bytes0 = corpus_bytes st.store in
  let gc = Common.Gc_meter.start () in
  let stop = now () +. seconds in
  while now () < stop do
    let op = next_op st w.ops in
    let t0 = now () in
    let ok =
      match op with
      | Commit (d, v) -> (
        (* a traced run spans every other commit's parse on its own, and
           compares those commits' latency with the rest *)
        let span = traced && w.ops / 5 mod 2 = 0 in
        let tree = parse d (Vec.get d.srcs v) in
        if span then Samples.add w.parse_lat (Common.ms_between t0 (now ()));
        match Shard.commit ~config st.store ~doc:d.name tree with
        | Ok e ->
          let dt = Common.ms_between t0 (now ()) in
          Samples.add w.commit_lat dt;
          Samples.add (if span then w.traced_lat else w.untraced_lat) dt;
          if e.Shard.kind = Chain.Checkpoint then
            w.checkpoints <- w.checkpoints + 1;
          Vec.push w.commits (d, v);
          Some dt
        | Error m ->
          Common.Problems.add w.problems
            (Printf.sprintf "commit %s v%d: %s" d.name v m);
          None)
      | Read (d, v) -> (
        match Shard.materialize ~verify:true st.store ~doc:d.name v with
        | Ok tree ->
          let dt = Common.ms_between t0 (now ()) in
          Samples.add w.read_lat dt;
          Vec.push w.reads (d, v, Iso.hash tree);
          Some dt
        | Error m ->
          Common.Problems.add w.problems
            (Printf.sprintf "materialize %s v%d: %s" d.name v m);
          None)
    in
    w.ops <- w.ops + 1;
    (match ok with
    | Some dt ->
      Samples.add w.lat dt;
      if dt <= deadline_ms then w.slo_ok <- w.slo_ok + 1
    | None -> w.failed <- w.failed + 1);
    if w.ops land 63 = 0 then Common.Gc_meter.sample gc
  done;
  let minor, major = Common.Gc_meter.finish gc in
  w.minor_words <- minor;
  w.major <- major;
  w.peak_mb <- Common.Gc_meter.peak_mb gc;
  w.bytes_added <- corpus_bytes st.store - bytes0;
  w

(* Every materialized version hashes like the tree that was committed. *)
let check_reads w =
  Vec.iter
    (fun (d, v, h) ->
      if not (Int64.equal h (Vec.get d.hashes v)) then
        Common.Problems.add w.problems
          (Printf.sprintf "materialize %s v%d: tree differs from the committed one"
             d.name v))
    w.reads

(* The commits' scripts, recomputed on the same pairs (the diff is
   deterministic), for their §3.2 cost. *)
let script_cost w =
  let sum = ref 0.0 in
  Vec.iter
    (fun (d, v) ->
      let t1 = parse d (Vec.get d.srcs (v - 1)) in
      let t2 = parse d (Vec.get d.srcs v) in
      let r = Diff.diff ~config t1 t2 in
      sum := !sum +. r.Diff.measure.Treediff_edit.Script.cost)
    w.commits;
  !sum /. float_of_int (max 1 (Vec.length w.commits))

let share w x = float_of_int x /. float_of_int (max 1 w.ops)

let end_to_end ~setup_s w =
  [
    ("setup_s", setup_s);
    ("ops_per_s", float_of_int w.ops /. (Samples.sum w.lat /. 1e3));
    ("latency_ms.p50", Samples.percentile w.lat 0.50);
    ("slo_share", share w w.slo_ok);
    ("script_cost", script_cost w);
    ("peak_heap_mb", w.peak_mb);
  ]

(* Operations [materialize] replays for version [v]: from the nearest
   snapshot-bearing record below (forward deltas) or above (stored
   inverses), whichever is cheaper — the rule [Chain.materialize] plans
   by. *)
let replay_ops (entries : Shard.entry array) v =
  let has_snap (e : Shard.entry) = e.Shard.kind <> Chain.Delta in
  let n = Array.length entries in
  let rec down k acc =
    if k < 0 then max_int
    else if has_snap entries.(k) then acc
    else down (k - 1) (acc + entries.(k).Shard.ops)
  in
  let rec up k acc =
    if k >= n then max_int
    else if has_snap entries.(k) then acc
    else up (k + 1) (acc + entries.(k).Shard.ops)
  in
  if has_snap entries.(v) then 0
  else
    min (down (v - 1) entries.(v).Shard.ops)
      (if v + 1 < n then up (v + 1) entries.(v + 1).Shard.ops else max_int)

(* The traced run's per-layer figures: the window's own commit and read
   samples, and the rebuilt diff on every commit pair it made. *)
let trace st w =
  let tt = Layers.create () in
  Vec.iteri
    (fun i (d, v) ->
      let t1 = parse d (Vec.get d.srcs (v - 1)) in
      let t2 = parse d (Vec.get d.srcs v) in
      ignore
        (Layers.trace_pair tt ~config
           ~label:(Printf.sprintf "commit %s v%d" d.name v)
           ~first:(i mod 2 = 0) t1 t2))
    w.commits;
  let commits = float_of_int (max 1 (Vec.length w.commits)) in
  let replay = ref 0 in
  Vec.iter
    (fun (d, v, _) ->
      match Shard.log st.store d.name with
      | Ok entries -> replay := !replay + replay_ops (Array.of_list entries) v
      | Error m -> Common.Problems.add w.problems ("log " ^ d.name ^ ": " ^ m))
    w.reads;
  let metrics =
    [
      ("latency_ms.p99", Samples.percentile w.lat 0.99);
      ("commit_ms.p50", Samples.percentile w.commit_lat 0.50);
      ("commit_ms.p99", Samples.percentile w.commit_lat 0.99);
      ("read_ms.p50", Samples.percentile w.read_lat 0.50);
      ("read_ms.p99", Samples.percentile w.read_lat 0.99);
      ("format.parse_ms", Samples.mean w.parse_lat);
      ("shard.commit_self_ms",
       Samples.mean w.traced_lat -. Samples.mean w.parse_lat
       -. ((tt.Layers.diff_ms +. tt.Layers.verify_ms) /. commits));
      ("shard.bytes_per_commit", float_of_int w.bytes_added /. commits);
      ("bytes_per_version",
       float_of_int (corpus_bytes st.store)
       /. float_of_int (Shard.total_versions st.store));
      ("chain.checkpoint_share", float_of_int w.checkpoints /. commits);
      ("shard.materialize_ms", Samples.mean w.read_lat);
      ("chain.replay_ops",
       float_of_int !replay /. float_of_int (max 1 (Vec.length w.reads)));
      ("trace.overhead_ratio",
       Samples.mean w.traced_lat /. Samples.mean w.untraced_lat);
      ("trace.ops", float_of_int (Samples.count w.traced_lat));
      ("gc.minor_words_per_op", w.minor_words /. float_of_int (max 1 w.ops));
      ("gc.major_collections", float_of_int w.major);
      ("failed_share", share w w.failed);
      ("full_slo_share", share w w.slo_ok);
    ]
    @ Layers.metrics tt
  in
  (metrics, Common.Problems.to_list tt.Layers.mismatches)

let run ~seed ~seconds ~trace:traced =
  let st, setup_s =
    Common.timed_setup ~reps:(if traced then 1 else 3) ~discard (setup ~seed)
  in
  Fun.protect ~finally:(fun () -> discard st) @@ fun () ->
  let w = window st ~seconds ~traced in
  check_reads w;
  let metrics, extra =
    if traced then trace st w else (end_to_end ~setup_s w, [])
  in
  (* the corpus verifies end to end after everything the run committed *)
  (match Shard.verify ~jobs:1 st.store with
  | Ok n when n = Shard.total_versions st.store -> ()
  | Ok n ->
    Common.Problems.add w.problems
      (Printf.sprintf "Shard.verify checked %d of %d versions" n
         (Shard.total_versions st.store))
  | Error m -> Common.Problems.add w.problems ("Shard.verify: " ^ m));
  {
    Common.attempted = w.ops;
    failed = w.failed;
    problems = Common.Problems.to_list w.problems @ extra;
    metrics;
    notes =
      [
        ("commit_samples", string_of_int (Samples.count w.commit_lat));
        ("read_samples", string_of_int (Samples.count w.read_lat));
      ];
  }
