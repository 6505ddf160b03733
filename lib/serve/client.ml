module Prng = Treediff_util.Prng

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ~host ~port =
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (match
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
     with
    | () -> ()
    | exception e ->
      (match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ());
      raise e);
    Protocol.set_nodelay fd;
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  with
  | c -> Ok c
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e))

let fd c = c.fd

let close c =
  (* closing the out channel closes the underlying fd *)
  match close_out c.oc with
  | () -> ()
  | exception Sys_error _ -> ()

let call c req =
  match
    Protocol.write_frame c.oc
      (Json.to_string (Protocol.request_to_json req));
    Protocol.read_frame c.ic
  with
  | Error e -> Error e
  | Ok None -> Error "connection closed before a response arrived"
  | Ok (Some payload) -> (
    match Protocol.parse_response payload with
    | Error e -> Error e
    | Ok (id, resp) ->
      if id <> req.Protocol.id && id <> 0 then
        Error
          (Printf.sprintf "response id %d does not match request id %d" id
             req.Protocol.id)
      else Ok resp)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Sys_error m -> Error m
  | exception End_of_file -> Error "connection closed mid-frame"

(* -------------------------------------------------------------- backoff *)

let backoff_schedule ~attempts ~base_ms ~max_ms prng =
  List.init
    (max 0 (attempts - 1))
    (fun i ->
      let cap = Float.min max_ms (base_ms *. (2. ** float_of_int i)) in
      (* full jitter over [0.5, 1.5): never fully synchronized, never
         shorter than half the nominal delay *)
      cap *. (0.5 +. Prng.float prng))

type attempt = { number : int; reason : string; delay_ms : float }

(* Verbs a retry may safely re-send after an ambiguous transport failure:
   read-only or pure, so running them twice is the same as once.  Anything
   else (store/commit, shutdown, crash, future verbs) defaults to unsafe. *)
let idempotent_verb = function
  | "ping" | "stats" | "diff" | "check" | "batch" | "store/log"
  | "store/materialize" | "store/diff" ->
    true
  | _ -> false

let retryable = function
  | Error reason -> Some reason (* transport: refused, reset, short frame *)
  | Ok (Protocol.Err_resp { kind = Protocol.Overloaded; retry_after_ms; _ }) ->
    Some
      (match retry_after_ms with
      | Some ms -> Printf.sprintf "overloaded (retry_after %.0fms)" ms
      | None -> "overloaded")
  | Ok (Protocol.Err_resp { kind = Protocol.Shutting_down; _ }) ->
    Some "shutting_down"
  | Ok _ -> None

let server_hint = function
  | Ok (Protocol.Err_resp { retry_after_ms = Some ms; _ }) -> ms
  | _ -> 0.

let call_with_retry ?(attempts = 5) ?(base_ms = 25.) ?(max_ms = 1600.)
    ?(sleep = fun ms -> Unix.sleepf (ms /. 1000.)) ?on_attempt
    ?(retry_unsafe = false) ~prng ~connect req =
  let delays = Array.of_list (backoff_schedule ~attempts ~base_ms ~max_ms prng) in
  let safe = retry_unsafe || idempotent_verb req.Protocol.verb in
  let rec go n =
    (* [sent] separates "the frame never left this process" (connect
       failure — always safe to re-send) from a transport error after the
       request went out, when the server may already have executed it *)
    let sent = ref false in
    let outcome =
      match connect () with
      | Error e -> Error e
      | Ok c ->
        sent := true;
        let r = call c req in
        close c;
        r
    in
    let transport_error =
      match outcome with Error _ -> true | Ok _ -> false
    in
    match retryable outcome with
    | Some _ when transport_error && !sent && not safe -> (
      (* re-sending a non-idempotent verb after an ambiguous failure risks
         a duplicate commit; typed overloaded/shutting_down answers stay
         retryable for every verb — the server refused without executing *)
      match outcome with
      | Error e ->
        Error
          (Printf.sprintf
             "%s (not retried: %S is not idempotent and the request may \
              already have been executed)"
             e req.Protocol.verb)
      | Ok _ as r -> r)
    | None -> outcome
    | Some reason when n < attempts ->
      let delay_ms =
        Float.max delays.(n - 1) (server_hint outcome)
      in
      (match on_attempt with
      | Some f -> f { number = n; reason; delay_ms }
      | None -> ());
      sleep delay_ms;
      go (n + 1)
    | Some reason ->
      (match outcome with
      | Error _ -> Error (Printf.sprintf "gave up after %d attempts: %s" attempts reason)
      | Ok _ as r -> r)
  in
  go 1
