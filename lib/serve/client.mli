(** Blocking client for the daemon protocol, with retry + exponential
    backoff + jitter on [overloaded]/[shutting_down] answers and on
    connection errors.

    The backoff schedule is a pure function of the seeded
    {!Treediff_util.Prng}: delay [i] is
    [min (base_ms * 2^i) max_ms * (0.5 + u_i)] with [u_i] drawn from the
    PRNG, so the full-jitter schedule is reproducible — the determinism
    tests replay it.  When an [overloaded] answer carries
    [retry_after_ms], the larger of the two delays is honoured. *)

type t

val connect : host:string -> port:int -> (t, string) result

val fd : t -> Unix.file_descr
(** The connection's socket ([TCP_NODELAY] already set). *)

val close : t -> unit

val call : t -> Protocol.request -> (Protocol.response, string) result
(** One round-trip: send the request frame, read one response frame.
    [Error] means transport or protocol failure (connection refused, short
    frame, response id mismatch) — the server's typed errors come back as
    [Ok (Err_resp _)]. *)

val backoff_schedule :
  attempts:int ->
  base_ms:float ->
  max_ms:float ->
  Treediff_util.Prng.t ->
  float list
(** The [attempts - 1] inter-attempt delays (ms), in order.  Exposed for
    the determinism tests and to keep {!call_with_retry} honest: the
    schedule is drawn {e up front}, so the delays depend only on the seed,
    not on server timing. *)

type attempt = {
  number : int;  (** 1-based attempt number that just failed *)
  reason : string;  (** why it is being retried *)
  delay_ms : float;  (** sleep before the next attempt *)
}

val idempotent_verb : string -> bool
(** Verbs that are safe to re-send after an ambiguous transport failure
    (read-only or pure: [ping], [stats], [diff], [check], [batch],
    [store/log], [store/materialize], [store/diff]).  Unknown verbs are
    conservatively non-idempotent. *)

val call_with_retry :
  ?attempts:int ->
  ?base_ms:float ->
  ?max_ms:float ->
  ?sleep:(float -> unit) ->
  ?on_attempt:(attempt -> unit) ->
  ?retry_unsafe:bool ->
  prng:Treediff_util.Prng.t ->
  connect:(unit -> (t, string) result) ->
  Protocol.request ->
  (Protocol.response, string) result
(** Run [call] with up to [attempts] (default 5) tries, reconnecting each
    time via [connect] (a fresh connection tolerates a server restart
    mid-sequence).  Retryable outcomes: typed [overloaded] and
    [shutting_down] answers (the server refused without executing, so any
    verb may retry), connect failures (the request never left this
    process), and — only for {!idempotent_verb}s — transport errors after
    the request was sent, when the server may already have executed it.
    [retry_unsafe] (default [false]) lifts that last restriction for
    non-idempotent verbs, accepting the risk of a duplicate
    [store/commit].  Everything else returns immediately.  [sleep]
    (default [Unix.sleepf], taking milliseconds) is injectable so the
    tests can record delays instead of waiting them out; [on_attempt]
    observes each retry decision. *)
