(** The verb layer shared by the [treediff] CLI and the daemon.

    Every decision both entry points make lives here once: how a tree pair
    is parsed, the diff configuration, the render modes, the batch outcome
    classes, the checks and the store dispatch with its [doc] policy.  The
    CLI maps cmdliner arguments onto these values and prints text and exit
    codes; {!Handler} maps JSON parameters onto them and answers JSON and
    typed errors.  So the same inputs give byte-identical answers. *)

val parse_pair :
  ?lenient:bool ->
  ?warn:(string -> unit) ->
  Treediff_doc.Format.t ->
  old_src:string ->
  new_src:string ->
  Treediff_tree.Node.t * Treediff_tree.Node.t
(** One fresh id generator per pair, old tree first, so node ids (and the
    scripts that name them) do not depend on the entry point.
    @raise Treediff_doc.Format.Parse_error on malformed input. *)

val config :
  ?approx:bool ->
  ?algorithm:Treediff.Config.algorithm ->
  ?leaf_f:float ->
  ?threshold:float ->
  ?window:int ->
  ?sim_threshold:int ->
  ?sim_top_k:int ->
  unit ->
  Treediff.Config.t
(** The configuration of [diff], [batch] and the self-check: the §7
    word-LCS leaf compare under [leaf_f] (default 0.5) and internal-node
    [threshold] (default 0.6), with its update cost.  [approx] overrides
    [algorithm] (default FastMatch); [window] is the A(k) scan window.  The
    sanitizer flag keeps its environment default. *)

type mode = Script | Delta | Stats | Side_by_side | Summary

val modes : (string * mode) list
(** Each mode under its name: ["script"], ["delta"], ["stats"],
    ["side-by-side"] and ["summary"]. *)

val mode_name : mode -> string

val render : mode -> Treediff.Diff.t -> string

type pair =
  | Pair_ok of Treediff.Diff.t
  | Pair_degraded of Treediff.Diff.t * string  (** verified; the rung's name *)
  | Pair_failed of Treediff.Diff.failure * string
      (** the primary attempt's reason *)
  | Pair_unparsed of string  (** the parse error; the pair was not diffed *)

val batch :
  config:Treediff.Config.t ->
  execs:(int -> Treediff_util.Exec.t) ->
  ?jobs:int ->
  (Treediff_tree.Node.t * Treediff_tree.Node.t, string) result list ->
  pair list
(** Diff every parsed pair with {!Treediff.Batch.run} and class each
    outcome; an [Error m] input answers [Pair_unparsed m] in its place, so
    one malformed pair never sinks the rest.  [execs i] is the context of
    the [i]-th parsed pair. *)

type artifact =
  | Self  (** diff the pair under {!config}, then verify the result *)
  | Script_text of string * string  (** (origin, text) of an edit script *)
  | Delta_text of string * string  (** (origin, text) of a delta *)

val check :
  ?exec:Treediff_util.Exec.t ->
  ?audit:bool ->
  ?exhaustive:bool ->
  t1:Treediff_tree.Node.t ->
  t2:Treediff_tree.Node.t ->
  artifact ->
  Treediff_check.Diag.t list * string option
(** Diagnostics for the artifact against the pair; text that does not parse
    is one error.  [audit] adds the data audit and [exhaustive] the
    minimality oracle (self-check only), whose summary line comes second. *)

type store = Single of Treediff_store.Store.t | Corpus of Treediff_store.Shard.t

val open_store : ?exec:Treediff_util.Exec.t -> string -> (store, string) result
(** A corpus directory opens as a corpus, anything else as an archive. *)

(** One version chain: a single-file archive or one document of a corpus. *)
type chain = Archive of Treediff_store.Store.t | Doc of Treediff_store.Shard.t * string

val chain : store -> doc:string option -> (chain, string) result
(** The [doc] policy: a corpus needs a document, an archive refuses one. *)

val log : chain -> (Treediff_store.Store.entry list, string) result

val materialize :
  ?verify:bool -> ?exec:Treediff_util.Exec.t -> chain -> int ->
  (Treediff_tree.Node.t, string) result

val commit :
  ?exec:Treediff_util.Exec.t -> chain -> Treediff_tree.Node.t ->
  (Treediff_store.Store.entry, string) result

val diff_between :
  ?exec:Treediff_util.Exec.t -> chain -> from_:int -> to_:int ->
  (Treediff_edit.Script.t, string) result
