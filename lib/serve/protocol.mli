(** Wire protocol of the diff service.

    {b Frames.}  Each message — request or response — is one frame: a
    4-byte big-endian payload length followed by that many bytes of JSON.
    A frame longer than {!max_frame} is a protocol violation (the peer is
    told once, then the connection closes): an unbounded length prefix
    would let one client commit the server to arbitrary allocation before
    admission control ever sees the request.

    {b Requests.}  The payload is an object
    [{"id": N, "verb": V, "params": {...}}]: [id] is an arbitrary integer
    the client uses to correlate responses (the server echoes it verbatim,
    so requests may be pipelined on one connection), [verb] names the
    operation ([diff], [batch], [check], [ping], [stats], [store/log], …)
    and [params] is a verb-specific object (defaults to [{}]).

    {b Responses.}  Either [{"id": N, "ok": {...}}] or
    [{"id": N, "error": {"kind": K, "message": M, ...}}] with [kind] one of
    the typed {!error_kind}s below.  [overloaded] errors carry a
    [retry_after_ms] hint for the client's backoff. *)

val max_frame : int
(** Maximum payload bytes per frame (16 MiB). *)

val encode_frame : string -> string
(** Length prefix + payload.  @raise Invalid_argument beyond {!max_frame}. *)

(** Incremental frame decoder for a byte stream that arrives in arbitrary
    chunks (the server's select loop). *)
module Framer : sig
  type t

  val create : unit -> t

  val feed : t -> string -> unit
  (** Append raw bytes received from the peer. *)

  val feed_bytes : t -> bytes -> int -> int -> unit
  (** [feed_bytes t b off len] appends [len] bytes of [b] from [off]: the
      select loop feeds its one read buffer without an intermediate
      string copy. *)

  val next : t -> (string option, string) result
  (** [Ok (Some payload)] — one complete frame extracted; call again, more
      may be buffered.  [Ok None] — need more bytes.  [Error] — the stream
      is unrecoverable (oversized frame): the connection must close. *)

  val buffered : t -> int
  (** Bytes currently held (for observability/tests). *)
end

val read_frame : in_channel -> (string option, string) result
(** Blocking read of one frame: [Ok None] on clean EOF at a frame boundary,
    [Error] on a truncated or oversized frame.  For the client and the
    [--stdio] server. *)

val write_frame : out_channel -> string -> unit
(** [encode_frame] + output + flush. *)

val set_nodelay : Unix.file_descr -> unit
(** Turn off Nagle's algorithm ([TCP_NODELAY]) on a connected socket, so
    each frame goes on the wire when it is written instead of waiting for
    the peer's ACK of the previous one.  Both ends of a daemon connection
    set it: the server on every accepted socket, {!Client.connect} on its
    own.  Errors are ignored. *)

(** {1 Requests} *)

type request = { id : int; verb : string; params : Json.t }

val parse_request : string -> (request, string) result
(** Decode one frame payload.  Malformed JSON, a missing/non-integer [id]
    or a missing [verb] are errors (the caller answers with a
    [bad_request] under id 0 when no id could be recovered). *)

val request_to_json : request -> Json.t

(** {1 Responses} *)

type error_kind =
  | Bad_request  (** malformed frame, unknown verb, bad params *)
  | Overloaded  (** admission control refused: queue beyond capacity *)
  | Deadline  (** the request's deadline expired (in queue or mid-work) *)
  | Internal  (** the handler crashed; message carries the diagnostic *)
  | Shutting_down  (** the server is draining and will not start new work *)

val error_kind_name : error_kind -> string
(** Wire names: ["bad_request"], ["overloaded"], ["deadline"],
    ["internal"], ["shutting_down"]. *)

val error_kind_of_name : string -> error_kind option

type response =
  | Ok_resp of Json.t
  | Err_resp of {
      kind : error_kind;
      message : string;
      retry_after_ms : float option;
    }

val ok_payload : id:int -> Json.t -> string
(** Rendered [{"id": N, "ok": body}] frame payload (not yet framed). *)

val error_payload :
  id:int -> ?retry_after_ms:float -> error_kind -> string -> string

val parse_response : string -> (int * response, string) result
(** Decode one response payload into its correlation id and body. *)
