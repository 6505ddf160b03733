module Budget = Treediff_util.Budget
module Exec = Treediff_util.Exec
module Fault = Treediff_util.Fault
module Diag = Treediff_check.Diag
module Diff = Treediff.Diff
module Config = Treediff.Config
module Codec = Treediff_tree.Codec
module Iso = Treediff_tree.Iso
module Script = Treediff_edit.Script
module Script_io = Treediff_edit.Script_io
module Line_diff = Treediff_textdiff.Line_diff
module Store = Treediff_store.Store
module Shard = Treediff_store.Shard
module Doc_format = Treediff_doc.Format

type pressure = Full | Forced_approx | Flat_only

let pressure_name = function
  | Full -> "full"
  | Forced_approx -> "approx"
  | Flat_only -> "flat"

(* An open archive handle kept warm between store requests: reopening a
   large archive (or corpus manifest) per request is the dominant cost of
   the store verbs.  The fingerprint is the identity+mtime+size of the
   backing file (the MANIFEST, for a corpus): a hit is trusted only while
   it still matches, so an archive modified by another process — or
   rewritten by gc, which renames a fresh inode into place — is silently
   reopened rather than served stale. *)
type cached_store = { handle : Verbs.store; fingerprint : string }

type t = {
  default_deadline_ms : float;
  max_deadline_ms : float;
  allow_crash : bool;
  faults : Fault.t;  (* server registry: the serve.* points *)
  cache : string Cache.t;
  stores : cached_store Cache.t;  (* archive path -> warm handle *)
  started_at : float;
  mutable served : int;
  mutable ok : int;
  mutable degraded : int;
  mutable internal : int;
  mutable shed : int;
  mutable bad : int;
  mutable cache_faults : int;  (* serve.cache injections absorbed *)
  mutable store_hits : int;  (* store verbs served on a warm, valid handle *)
  mutable store_misses : int;  (* cold or stale: the archive was (re)opened *)
}

let create ?(default_deadline_ms = 1000.) ?(max_deadline_ms = 5000.)
    ?(cache_entries = 256) ?(store_handles = 8) ?(allow_crash = false) ?faults
    () =
  {
    default_deadline_ms;
    max_deadline_ms;
    allow_crash;
    faults = (match faults with Some f -> f | None -> Fault.create ());
    cache = Cache.create cache_entries;
    stores = Cache.create store_handles;
    started_at = Unix.gettimeofday ();
    served = 0;
    ok = 0;
    degraded = 0;
    internal = 0;
    shed = 0;
    bad = 0;
    cache_faults = 0;
    store_hits = 0;
    store_misses = 0;
  }

let served t = t.served
let ok_count t = t.ok
let degraded_count t = t.degraded
let internal_count t = t.internal
let shed_count t = t.shed
let cache_hits t = Cache.hits t.cache
let cache t = t.cache
let store_handle_hits t = t.store_hits
let store_handle_misses t = t.store_misses

(* --------------------------------------------------------------- deadline *)

(* The client asks for [deadline_ms]; the server caps it.  What the request
   actually gets to spend is the capped allowance minus its queueing time. *)
let effective_deadline t req =
  let requested =
    match Json.mem_num "deadline_ms" req.Protocol.params with
    | Some ms when ms > 0. -> ms
    | Some _ | None -> t.default_deadline_ms
  in
  Float.min requested t.max_deadline_ms

let remaining_ms t ~received_at req =
  effective_deadline t req -. ((Unix.gettimeofday () -. received_at) *. 1000.)

let deadline_error t ~id ~received_at req =
  if remaining_ms t ~received_at req <= 0. then begin
    t.shed <- t.shed + 1;
    Some
      (Protocol.error_payload ~id Protocol.Deadline
         "deadline expired before the request could run")
  end
  else None

(* ------------------------------------------------------------------ cache *)

(* The serve.cache fault point covers both directions.  A cache failure is
   never allowed to fail the request: an injected (or synthetic-budget)
   crash here degrades to cache-off behaviour and the request is computed
   normally — exactly how a production cache tier should fail. *)
let cache_find t key =
  match
    Fault.point t.faults "serve.cache";
    Cache.find t.cache key
  with
  | v -> v
  | exception Fault.Injected _ ->
    t.cache_faults <- t.cache_faults + 1;
    None
  | exception Budget.Exceeded _ ->
    t.cache_faults <- t.cache_faults + 1;
    None

let cache_put t key value =
  match
    Fault.point t.faults "serve.cache";
    Cache.put t.cache key value
  with
  | () -> ()
  | exception Fault.Injected _ -> t.cache_faults <- t.cache_faults + 1
  | exception Budget.Exceeded _ -> t.cache_faults <- t.cache_faults + 1

(* ------------------------------------------------------------- tree input *)

exception Bad_params of string

(* Per-request tree format, resolved through the same registry as the CLIs:
   the supported set and the unknown-format error text are identical to
   [treediff -f]'s, so the daemon and the local tool can never drift. *)
let format_of_params params =
  match Json.mem_str "format" params with
  | None -> Doc_format.sexp
  | Some name -> (
    match Doc_format.find name with
    | Ok f -> f
    | Error m -> raise (Bad_params m))

let lenient_of_params params =
  Option.value ~default:false (Json.mem_bool "lenient" params)

(* [where] prefixes the error text, e.g. ["pairs[3]: "] inside a batch *)
let str_param ?(where = "") name params =
  match Json.mem_str name params with
  | Some src -> src
  | None ->
    raise (Bad_params (Printf.sprintf "%smissing string param %S" where name))

let parse_tree_param ~fmt ~lenient name params =
  let src = str_param name params in
  match fmt.Doc_format.parse_result ~lenient (Treediff_tree.Tree.gen ()) src with
  | Ok (t, _warnings) -> t
  | Error m -> raise (Bad_params (Printf.sprintf "%s: parse error: %s" name m))

(* The old/new pair, parsed by the verb layer exactly as the CLI parses it. *)
let parse_pair ~fmt ~lenient params =
  let old_src = str_param "old" params and new_src = str_param "new" params in
  match Verbs.parse_pair ~lenient fmt ~old_src ~new_src with
  | pair -> pair
  | exception Doc_format.Parse_error m -> raise (Bad_params ("parse error: " ^ m))

(* ------------------------------------------------------------ diff verb *)

let render_mode params =
  let name = Option.value ~default:"script" (Json.mem_str "mode" params) in
  match List.assoc_opt name Verbs.modes with
  | Some m -> m
  | None -> raise (Bad_params (Printf.sprintf "unknown mode %S" name))

(* The verb layer's configuration, so the daemon and the CLI answer alike;
   the cache key covers every parameter that varies per request. *)
let diff_config ~pressure params =
  let approx =
    Option.value ~default:false (Json.mem_bool "approx" params)
    || pressure = Forced_approx
  in
  let int name = Option.map int_of_float (Json.mem_num name params) in
  Config.with_check false
    (Verbs.config ~approx ?sim_threshold:(int "sim_threshold")
       ?sim_top_k:(int "sim_top_k") ())

(* Only full-quality and explicitly-approx results are cached: a result the
   ladder degraded under a deadline depends on that request's budget, and a
   flat-pressure answer depends on the queue — neither is a function of the
   inputs alone, so neither belongs in a cache keyed only by them. *)
let cacheable (result : Diff.t) = result.Diff.degraded = None

let cache_key ~mode ~(config : Config.t) t1 t2 =
  Printf.sprintf "diff:%Lx:%Lx:%s:%s:%s:%d"
    (Iso.hash t1) (Iso.hash t2) (Verbs.mode_name mode)
    (match config.Config.algorithm with
    | Config.Fast_match -> "fast"
    | Config.Simple_match -> "simple"
    | Config.Approx_match -> "approx")
    (match config.Config.sim_threshold with
    | None -> "-"
    | Some n -> string_of_int n)
    config.Config.sim_top_k

let flat_output t1 t2 =
  (* the same last-resort rendering Diff's failure path uses, computed
     directly — structure-blind, linear, no budget required *)
  Line_diff.render (Line_diff.diff (Codec.to_string t1) (Codec.to_string t2))

let run_diff t ~pressure ~deadline_ms req =
  let params = req.Protocol.params in
  let mode = render_mode params in
  let fmt = format_of_params params in
  let lenient = lenient_of_params params in
  let t1, t2 = parse_pair ~fmt ~lenient params in
  if pressure = Flat_only then begin
    t.degraded <- t.degraded + 1;
    Ok
      (Json.Obj
         [
           ("mode", Json.Str "flat");
           ("output", Json.Str (flat_output t1 t2));
           ("degraded", Json.Str "flat");
           ("forced", Json.Str "flat");
           ("cached", Json.Bool false);
         ])
  end
  else begin
    let config = diff_config ~pressure params in
    let key = cache_key ~mode ~config t1 t2 in
    match cache_find t key with
    | Some output ->
      Ok
        (Json.Obj
           [
             ("mode", Json.Str (Verbs.mode_name mode));
             ("output", Json.Str output);
             ("degraded", Json.Null);
             ("forced",
              if pressure = Forced_approx then Json.Str "approx" else Json.Null);
             ("cached", Json.Bool true);
           ])
    | None -> (
      let exec = Exec.create ~budget:(Budget.make ~deadline_ms ()) () in
      match Diff.diff_result ~config ~exec t1 t2 with
      | Ok result ->
        let output = Verbs.render mode result in
        if cacheable result then cache_put t key output;
        let degraded =
          match result.Diff.degraded with
          | None -> Json.Null
          | Some rung -> Json.Str (Diff.rung_name rung)
        in
        if result.Diff.degraded <> None || pressure = Forced_approx then
          t.degraded <- t.degraded + 1;
        Ok
          (Json.Obj
             [
               ("mode", Json.Str (Verbs.mode_name mode));
               ("output", Json.Str output);
               ("degraded", degraded);
               ("ops", Json.Num (float_of_int (Script.unweighted result.Diff.measure)));
               ("forced",
                if pressure = Forced_approx then Json.Str "approx" else Json.Null);
               ("cached", Json.Bool false);
             ])
      | Error f -> (
        match f.Diff.cause with
        | Diff.Budget_exhausted e ->
          Error (Protocol.Deadline, Budget.describe e)
        | Diff.Diagnostics ds ->
          Error (Protocol.Internal, Diag.summary ds)
        | Diff.Fault p ->
          Error (Protocol.Internal, "injected fault at " ^ p)
        | Diff.Exception m -> Error (Protocol.Internal, m)))
  end

(* ------------------------------------------------------------ batch verb *)

let run_batch t ~pressure ~deadline_ms req =
  let params = req.Protocol.params in
  let mode = render_mode params in
  let pairs_json =
    match Option.bind (Json.member "pairs" params) Json.arr with
    | Some l -> l
    | None -> raise (Bad_params "missing array param \"pairs\"")
  in
  let fmt = format_of_params params in
  let lenient = lenient_of_params params in
  (* A missing field is a malformed request; a pair whose text does not
     parse is answered in its place, as `treediff batch` reports it. *)
  let parsed =
    List.mapi
      (fun i p ->
        let where = Printf.sprintf "pairs[%d]: " i in
        let old_src = str_param ~where "old" p and new_src = str_param ~where "new" p in
        match Verbs.parse_pair ~lenient fmt ~old_src ~new_src with
        | pair -> Ok pair
        | exception Doc_format.Parse_error m -> Error m)
      pairs_json
  in
  let jobs =
    match Json.mem_num "jobs" params with
    | Some j when j >= 1. -> Some (int_of_float j)
    | Some _ | None -> None
  in
  let config = diff_config ~pressure params in
  (* Every pair runs in its own context under the request's residual
     allowance: the whole batch is one admitted unit, so one deadline
     bounds each member rather than being re-granted per pair. *)
  let execs _ = Exec.create ~budget:(Budget.make ~deadline_ms ()) () in
  let answers = Verbs.batch ~config ~execs ?jobs parsed in
  let count f = List.length (List.filter f answers) in
  let ok status (r : Diff.t) extra =
    Json.Obj
      ([
         ("status", Json.Str status);
         ("ops", Json.Num (float_of_int (Script.unweighted r.Diff.measure)));
         ("output", Json.Str (Verbs.render mode r));
       ]
      @ extra)
  in
  let results =
    List.map
      (function
        | Verbs.Pair_ok r -> ok "ok" r []
        | Verbs.Pair_degraded (r, rung) -> ok "degraded" r [ ("rung", Json.Str rung) ]
        | Verbs.Pair_failed (_, reason) ->
          Json.Obj [ ("status", Json.Str "failed"); ("reason", Json.Str reason) ]
        | Verbs.Pair_unparsed m ->
          Json.Obj [ ("status", Json.Str "parse-error"); ("reason", Json.Str m) ])
      answers
  in
  let n_degraded = count (function Verbs.Pair_degraded _ -> true | _ -> false) in
  if n_degraded > 0 then t.degraded <- t.degraded + 1;
  let num n = Json.Num (float_of_int n) in
  Ok
    (Json.Obj
       [
         ("pairs", num (List.length answers));
         ("degraded", num n_degraded);
         ("failed", num (count (function Verbs.Pair_failed _ -> true | _ -> false)));
         ("parse_errors", num (count (function Verbs.Pair_unparsed _ -> true | _ -> false)));
         ("results", Json.Arr results);
       ])

(* ------------------------------------------------------------ check verb *)

let run_check ~deadline_ms req =
  let params = req.Protocol.params in
  let fmt = format_of_params params in
  let lenient = lenient_of_params params in
  let t1, t2 = parse_pair ~fmt ~lenient params in
  let exec = Exec.create ~budget:(Budget.make ~deadline_ms ()) () in
  let diags, _ =
    Verbs.check ~exec ~t1 ~t2
      (match Json.mem_str "script" params with
      | Some src -> Verbs.Script_text ("script", src)
      | None -> Verbs.Self)
  in
  Ok
    (Json.Obj
       [
         ("diagnostics",
          Json.Arr (List.map (fun d -> Json.Str (Diag.to_string d)) diags));
         ("errors", Json.Num (float_of_int (List.length (Diag.errors diags))));
         ("summary", Json.Str (Diag.summary diags));
       ])

(* ------------------------------------------------------------ store verbs *)

(* Store requests operate on server-side archives by path: the daemon is a
   trusted-perimeter service (compare github/semantic's worker model), not
   a public API.  Handles are cached across requests (see {!cached_store});
   each operation still runs under the request's residual deadline — the
   residual is what {!Treediff_util.Budget.remaining_ms} was added for: the
   nested operation must spend what is left of this request's allowance,
   not a fresh grant.  The per-request budget travels as an explicit
   [~exec] override, never inside the cached handle, so a handle opened
   during one request cannot carry that request's expired deadline into
   the next. *)

let version_param name params =
  match Json.mem_num name params with
  | Some v when Float.is_integer v && v >= 0. -> int_of_float v
  | Some _ -> raise (Bad_params (Printf.sprintf "param %S must be a version number" name))
  | None -> raise (Bad_params (Printf.sprintf "missing numeric param %S" name))

let store_fingerprint path =
  let target =
    if Sys.file_exists path && Sys.is_directory path then
      Filename.concat path "MANIFEST"
    else path
  in
  match Unix.stat target with
  | { Unix.st_ino; st_mtime; st_size; _ } ->
    Some (Printf.sprintf "%d:%h:%d" st_ino st_mtime st_size)
  | exception Unix.Unix_error _ -> None

(* Refresh a cached handle's fingerprint after the handle itself wrote the
   archive: the bytes changed underneath the stat, but this handle is the
   writer and is exactly current. *)
let store_revalidate t path handle =
  match store_fingerprint path with
  | Some fingerprint -> Cache.put t.stores path { handle; fingerprint }
  | None -> ()

let with_store t ~budget params f =
  let path = str_param "archive" params in
  match store_fingerprint path with
  | None ->
    Error (Protocol.Bad_request, Printf.sprintf "store: no such archive %s" path)
  | Some fp -> (
    let opened =
      match Cache.find t.stores path with
      | Some { handle; fingerprint } when fingerprint = fp ->
        t.store_hits <- t.store_hits + 1;
        Ok handle
      | Some _ (* stale: modified or gc-rewritten since it was opened *)
      | None -> (
        t.store_misses <- t.store_misses + 1;
        (* the cached handle outlives this request, so it gets a plain
           context; budgets are passed per operation *)
        match Verbs.open_store ~exec:(Exec.create ()) path with
        | Error msg -> Error (Protocol.Bad_request, "store: " ^ msg)
        | Ok handle ->
          Cache.put t.stores path { handle; fingerprint = fp };
          Ok handle)
    in
    match opened with
    | Error _ as e -> e
    | Ok handle ->
      (* hand the operation the residual allowance of this request *)
      let exec =
        Exec.create
          ~budget:(Budget.make ~deadline_ms:(Budget.remaining_ms budget) ())
          ()
      in
      f ~exec handle)

let entry_json (e : Store.entry) =
  Json.Obj
    [
      ("version", Json.Num (float_of_int e.Store.version));
      ("kind", Json.Str (Store.kind_name e.Store.kind));
      ("ops", Json.Num (float_of_int e.Store.ops));
      ("bytes", Json.Num (float_of_int e.Store.bytes));
      ("hash", Json.Str (Printf.sprintf "%016Lx" e.Store.hash));
    ]

let run_store t ~budget verb req =
  let params = req.Protocol.params in
  let store_err msg = Error (Protocol.Bad_request, "store: " ^ msg) in
  let doc = Json.mem_str "doc" params in
  (* [f] runs on the chain the request names; the verb layer refuses a
     corpus without a doc and a single-file archive with one *)
  let in_chain handle f =
    match Verbs.chain handle ~doc with
    | Error msg -> store_err msg
    | Ok chain -> f chain
  in
  let on_chain f =
    with_store t ~budget params (fun ~exec handle -> in_chain handle (f ~exec handle))
  in
  match verb with
  | "store/log" ->
    with_store t ~budget params (fun ~exec:_ handle ->
        match (handle, doc) with
        | Verbs.Corpus corpus, None ->
          (* no doc: the corpus catalog, one row per document *)
          Ok
            (Json.Obj
               [
                 ("docs",
                  Json.Arr
                    (List.map
                       (fun d ->
                         Json.Obj
                           [
                             ("doc", Json.Str d);
                             ("versions",
                              Json.Num
                                (float_of_int (Shard.versions corpus d)));
                             ("shard",
                              Json.Num
                                (float_of_int (Shard.shard_of corpus d)));
                           ])
                       (Shard.docs corpus)));
                 ("versions",
                  Json.Num (float_of_int (Shard.total_versions corpus)));
                 ("shards", Json.Num (float_of_int (Shard.shards corpus)));
               ])
        | _ ->
          in_chain handle (fun chain ->
              match Verbs.log chain with
              | Error msg -> store_err msg
              | Ok entries ->
                let versions =
                  ("versions", Json.Num (float_of_int (List.length entries)))
                in
                let entries = ("entries", Json.Arr (List.map entry_json entries)) in
                Ok
                  (Json.Obj
                     (match chain with
                     | Verbs.Archive store ->
                       [
                         versions;
                         ("truncated_tail", Json.Bool (Store.truncated_tail store));
                         entries;
                       ]
                     | Verbs.Doc (_, doc) ->
                       [ ("doc", Json.Str doc); versions; entries ]))))
  | "store/materialize" ->
    on_chain (fun ~exec _ chain ->
        let version = version_param "version" params in
        let verify =
          Option.value ~default:true (Json.mem_bool "verify" params)
        in
        match Verbs.materialize ~verify ~exec chain version with
        | Ok tree ->
          (* the response honours the request's format, like the CLI's
             [store materialize -f] *)
          let fmt = format_of_params params in
          Ok (Json.Obj [ ("tree", Json.Str (fmt.Doc_format.render tree)) ])
        | Error msg -> store_err msg)
  | "store/commit" ->
    on_chain (fun ~exec handle chain ->
        let fmt = format_of_params params in
        let lenient = lenient_of_params params in
        let tree = parse_tree_param ~fmt ~lenient "tree" params in
        match Verbs.commit ~exec chain tree with
        | Ok entry ->
          store_revalidate t (str_param "archive" params) handle;
          Ok (entry_json entry)
        | Error msg -> store_err msg)
  | "store/diff" ->
    on_chain (fun ~exec _ chain ->
        let from_ = version_param "from" params in
        let to_ = version_param "to" params in
        match Verbs.diff_between ~exec chain ~from_ ~to_ with
        | Ok script ->
          Ok (Json.Obj [ ("script", Json.Str (Script_io.to_string script)) ])
        | Error msg -> store_err msg)
  | v -> Error (Protocol.Bad_request, Printf.sprintf "unknown store verb %S" v)

(* ------------------------------------------------------------ stats verb *)

let stats_body t ~queue_depth ~draining =
  Json.Obj
    [
      ("uptime_ms",
       Json.Num ((Unix.gettimeofday () -. t.started_at) *. 1000.));
      ("queue_depth", Json.Num (float_of_int queue_depth));
      ("draining", Json.Bool draining);
      ("served", Json.Num (float_of_int t.served));
      ("ok", Json.Num (float_of_int t.ok));
      ("degraded", Json.Num (float_of_int t.degraded));
      ("internal_errors", Json.Num (float_of_int t.internal));
      ("shed", Json.Num (float_of_int t.shed));
      ("bad_requests", Json.Num (float_of_int t.bad));
      ("cache",
       Json.Obj
         [
           ("entries", Json.Num (float_of_int (Cache.length t.cache)));
           ("capacity", Json.Num (float_of_int (Cache.capacity t.cache)));
           ("hits", Json.Num (float_of_int (Cache.hits t.cache)));
           ("misses", Json.Num (float_of_int (Cache.misses t.cache)));
           ("evictions", Json.Num (float_of_int (Cache.evictions t.cache)));
           ("faults_absorbed", Json.Num (float_of_int t.cache_faults));
         ]);
      ("store_handles",
       Json.Obj
         [
           ("entries", Json.Num (float_of_int (Cache.length t.stores)));
           ("capacity", Json.Num (float_of_int (Cache.capacity t.stores)));
           ("hits", Json.Num (float_of_int t.store_hits));
           ("misses", Json.Num (float_of_int t.store_misses));
           ("evictions", Json.Num (float_of_int (Cache.evictions t.stores)));
         ]);
    ]

(* --------------------------------------------------------------- dispatch *)

type outcome = Payload of string | Shutdown of string

let dispatch t ~queue_depth ~pressure ~draining ~deadline_ms req =
  match req.Protocol.verb with
  | "ping" ->
    Ok (Json.Obj [ ("pong", Json.Bool true); ("draining", Json.Bool draining) ])
  | "stats" -> Ok (stats_body t ~queue_depth ~draining)
  | "diff" -> run_diff t ~pressure ~deadline_ms req
  | "batch" -> run_batch t ~pressure ~deadline_ms req
  | "check" -> run_check ~deadline_ms req
  | "store/log" | "store/materialize" | "store/commit" | "store/diff" ->
    (* the store path needs the live budget to compute its residual *)
    let budget = Budget.make ~deadline_ms () in
    run_store t ~budget req.Protocol.verb req
  | "crash" when t.allow_crash ->
    (* Debug verb for the crash-isolation tests and bench: a handler that
       genuinely raises, exercising the isolation barrier below. *)
    failwith "injected handler crash (debug verb)"
  | v -> Error (Protocol.Bad_request, Printf.sprintf "unknown verb %S" v)

let handle t ~queue_depth ~pressure ~draining ~received_at req =
  let id = req.Protocol.id in
  t.served <- t.served + 1;
  if req.Protocol.verb = "shutdown" then begin
    t.ok <- t.ok + 1;
    Shutdown (Protocol.ok_payload ~id (Json.Obj [ ("draining", Json.Bool true) ]))
  end
  else begin
    let deadline_ms = remaining_ms t ~received_at req in
    let payload =
      if deadline_ms <= 0. then begin
        t.shed <- t.shed + 1;
        Protocol.error_payload ~id Protocol.Deadline
          "deadline expired before the request could run"
      end
      else begin
        (* The isolation barrier: nothing a verb does may take the server
           down.  Memory exhaustion is re-raised — answering would lie. *)
        match dispatch t ~queue_depth ~pressure ~draining ~deadline_ms req with
        | Ok body ->
          t.ok <- t.ok + 1;
          Protocol.ok_payload ~id body
        | Error (kind, message) ->
          (match kind with
          | Protocol.Internal -> t.internal <- t.internal + 1
          | Protocol.Deadline -> t.shed <- t.shed + 1
          | Protocol.Bad_request -> t.bad <- t.bad + 1
          | Protocol.Overloaded | Protocol.Shutting_down -> ());
          Protocol.error_payload ~id kind message
        | exception Bad_params m ->
          t.bad <- t.bad + 1;
          Protocol.error_payload ~id Protocol.Bad_request m
        | exception Budget.Exceeded e ->
          t.shed <- t.shed + 1;
          Protocol.error_payload ~id Protocol.Deadline (Budget.describe e)
        | exception Fault.Injected p ->
          t.internal <- t.internal + 1;
          Protocol.error_payload ~id Protocol.Internal ("injected fault at " ^ p)
        | exception Diag.Failed ds ->
          t.internal <- t.internal + 1;
          Protocol.error_payload ~id Protocol.Internal (Diag.summary ds)
        | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
        | exception e ->
          t.internal <- t.internal + 1;
          Protocol.error_payload ~id Protocol.Internal (Printexc.to_string e)
      end
    in
    Payload payload
  end
