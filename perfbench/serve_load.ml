(* serve-steady and serve-burst: an in-process daemon ([Server.run] in its
   own domain) driven open loop at one fixed rate from the main domain,
   over one connection, with select-driven send and receive.  The load is
   small and medium [diff] requests in four formats with a 250 ms
   deadline; one request in ten repeats a small hot set, so the result
   cache is used.  Each request is timed from when it was due, which
   charges a stall to every request it delays. *)

module Format = Treediff_doc.Format
module Doc_tree = Treediff_doc.Doc_tree
module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate
module Prng = Treediff_util.Prng
module Vec = Treediff_util.Vec
module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node
module Iso = Treediff_tree.Iso
module Script = Treediff_edit.Script
module Script_io = Treediff_edit.Script_io
module Json = Treediff_serve.Json
module Protocol = Treediff_serve.Protocol
module Handler = Treediff_serve.Handler
module Server = Treediff_serve.Server
module Samples = Common.Samples

let now = Common.now

let deadline_ms = Common.deadline_ms

(* Distinct request pairs.  Twice the result cache's capacity, so a
   cycled pair has always been evicted by the time it comes round again
   and only the hot set hits. *)
let n_pairs = 512

let n_hot = 8

(* The generator may fall this far behind a request's due time before
   the run is flagged: beyond it, the offered rate was not the one
   measured. *)
let late_limit_ms = 5.0

let formats = [| Format.latex; Format.markdown; Format.xml; Format.sexp |]

(* The daemon answers with the same criteria and cost model as the
   document pipeline. *)
let cost_model = Doc_tree.config.Treediff.Config.cost

type pair = { fmt : Format.t; old_src : string; new_src : string; tail : string }

(* A request's frame payload after its id: the id is spliced in at send
   time, everything else is encoded once in set-up. *)
let tail_of p =
  let params =
    Json.Obj
      [
        ("old", Json.Str p.old_src);
        ("new", Json.Str p.new_src);
        ("format", Json.Str p.fmt.Format.name);
        ("mode", Json.Str "script");
        ("deadline_ms", Json.Num deadline_ms);
      ]
  in
  "\"verb\":\"diff\",\"params\":" ^ Json.to_string params ^ "}"

let payload ~id p = Printf.sprintf "{\"id\":%d,%s" id p.tail

let make_pair g i =
  let gen = Tree.gen () in
  let profile = if i mod 2 = 0 then Docgen.small else Docgen.medium in
  let fmt = formats.(i mod Array.length formats) in
  let doc = Docgen.generate g gen profile in
  let doc', _ = Mutate.mutate g gen doc ~actions:(2 + (i mod 7)) in
  let p =
    { fmt; old_src = fmt.Format.render doc; new_src = fmt.Format.render doc';
      tail = "" }
  in
  { p with tail = tail_of p }

type state = {
  pairs : pair array;
  hot : pair array;
  domain : unit Domain.t;
  port : int;
}

let start_server () =
  let port = Atomic.make 0 in
  let config = { Server.default_config with Server.port = 0 } in
  let domain =
    Domain.spawn (fun () ->
        Server.run ~config ~on_listen:(fun p -> Atomic.set port p) ())
  in
  let give_up = now () +. 10.0 in
  while Atomic.get port = 0 && now () < give_up do
    Unix.sleepf 0.001
  done;
  if Atomic.get port = 0 then failwith "the daemon did not listen";
  (domain, Atomic.get port)

(* One blocking round trip on a fresh connection. *)
let call ~port payload =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  Protocol.write_frame oc payload;
  match Protocol.read_frame ic with
  | Ok (Some answer) -> answer
  | Ok None | Error _ -> failwith "the daemon hung up"

let stop_server st =
  ignore (call ~port:st.port "{\"id\":1,\"verb\":\"shutdown\",\"params\":{}}");
  Domain.join st.domain

(* Set-up: generate the requests, start the daemon, and see it answer. *)
let setup ~seed _rep =
  let g = Prng.create seed in
  let pairs = Array.init n_pairs (make_pair g) in
  let hot = Array.init n_hot (fun i -> make_pair g (n_pairs + i)) in
  let domain, port = start_server () in
  ignore (call ~port "{\"id\":1,\"verb\":\"ping\",\"params\":{}}");
  { pairs; hot; domain; port }

(* Request [i] of the schedule: every tenth goes to the hot set. *)
let pair_of st i =
  if i mod 10 = 0 then st.hot.(i / 10 mod n_hot)
  else st.pairs.((i - (i / 10) - 1) mod n_pairs)

type answer =
  | Script of {
      degraded : string option;  (** ladder rung or pressure level *)
      cached : bool;
      script : string;
    }
  | Flat
  | Refused of string  (** a typed error: overloaded, deadline, … *)

type window = {
  n : int;
  due : float array;
  sent : float array;
  recv : float array;
  answers : answer option array;
  span_s : float;
  mutable minor_words : float;
  mutable major : int;
  mutable peak_mb : float;
  problems : Common.Problems.t;
}

let classify payload =
  match Protocol.parse_response payload with
  | Error m -> Error m
  | Ok (id, Protocol.Err_resp { kind; _ }) ->
    Ok (id, Refused (Protocol.error_kind_name kind))
  | Ok (id, Protocol.Ok_resp body) -> (
    let output = Option.value ~default:"" (Json.mem_str "output" body) in
    let named key = match Json.member key body with
      | Some (Json.Str s) -> Some s
      | Some _ | None -> None
    in
    let cached = Json.mem_bool "cached" body = Some true in
    match (Json.mem_str "mode" body, named "degraded", named "forced") with
    | Some "flat", _, _ -> Ok (id, Flat)
    | _, Some rung, _ -> Ok (id, Script { degraded = Some rung; cached; script = output })
    | _, None, level -> Ok (id, Script { degraded = level; cached; script = output }))

(* A flat answer carries a whole line diff, and the window keeps every
   answer until it ends; this recognises one from its first bytes
   ([{"id":N,"ok":{"mode":"flat"...]) so that only a stub is kept.
   Anything else is kept whole. *)
let flat_stub payload =
  let prefix = "{\"id\":" and flat = "\"ok\":{\"mode\":\"flat\"" in
  match String.index_opt payload ',' with
  | Some k
    when String.starts_with ~prefix payload
         && String.length payload >= k + 1 + String.length flat
         && String.sub payload (k + 1) (String.length flat) = flat -> (
    match int_of_string_opt (String.sub payload 6 (k - 6)) with
    | Some id -> Printf.sprintf "{\"id\":%d,\"ok\":{\"mode\":\"flat\"}}" id
    | None -> payload)
  | Some _ | None -> payload

(* The open loop.  Request [i] is due at [t0 + i / rate]; the generator
   queues every due frame, writes what the socket takes, and reads
   whatever has arrived, sleeping in [select] until the next due time.
   After the last send it waits for the remaining answers. *)
let window st ~rate ~seconds =
  let n = int_of_float (rate *. seconds) in
  let w =
    {
      n;
      due = Array.make n 0.0;
      sent = Array.make n 0.0;
      recv = Array.make n 0.0;
      answers = Array.make n None;
      span_s = float_of_int n /. rate;
      minor_words = 0.0;
      major = 0;
      peak_mb = 0.0;
      problems = Common.Problems.create ();
    }
  in
  (* warm the hot set into the cache *)
  Array.iteri (fun i p -> ignore (call ~port:st.port (payload ~id:(i + 1) p))) st.hot;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, st.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  let framer = Protocol.Framer.create () in
  let pending = Queue.create () and offset = ref 0 in
  let buf = Bytes.create 65536 in
  let got = Vec.create () in
  let next = ref 0 in
  let gc = Common.Gc_meter.start () in
  let t0 = now () +. 0.01 in
  Array.iteri (fun i _ -> w.due.(i) <- t0 +. (float_of_int i /. rate)) w.due;
  let give_up = t0 +. w.span_s +. 10.0 in
  let rec flush () =
    match Queue.peek_opt pending with
    | None -> ()
    | Some s -> (
      let len = String.length s - !offset in
      match Unix.write_substring fd s !offset len with
      | k when k = len ->
        ignore (Queue.pop pending);
        offset := 0;
        flush ()
      | k -> offset := !offset + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
  in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "the daemon closed the connection"
    | k ->
      let t = now () in
      Protocol.Framer.feed framer (Bytes.sub_string buf 0 k);
      let rec frames () =
        match Protocol.Framer.next framer with
        | Ok (Some p) -> Vec.push got (t, flat_stub p); frames ()
        | Ok None -> ()
        | Error m -> failwith m
      in
      frames ();
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  while Vec.length got < n && now () < give_up do
    let t = now () in
    while !next < n && w.due.(!next) <= t do
      let i = !next in
      Queue.add (Protocol.encode_frame (payload ~id:(i + 1) (pair_of st i))) pending;
      w.sent.(i) <- now ();
      incr next
    done;
    flush ();
    let timeout =
      if !next < n then Float.max 0.0 (w.due.(!next) -. now ()) else 0.05
    in
    let writes = if Queue.is_empty pending then [] else [ fd ] in
    (match Unix.select [ fd ] writes [] timeout with
    | r, _, _ -> if r <> [] then drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if Vec.length got land 63 = 0 then Common.Gc_meter.sample gc
  done;
  let minor, major = Common.Gc_meter.finish gc in
  w.minor_words <- minor;
  w.major <- major;
  w.peak_mb <- Common.Gc_meter.peak_mb gc;
  Vec.iter
    (fun (t, p) ->
      match classify p with
      | Ok (id, a) when id >= 1 && id <= n ->
        w.recv.(id - 1) <- t;
        w.answers.(id - 1) <- Some a
      | Ok (id, _) ->
        Common.Problems.add w.problems (Printf.sprintf "answer for unknown id %d" id)
      | Error m -> Common.Problems.add w.problems ("bad answer: " ^ m))
    got;
  w

(* Replay a returned script on its pair, parsed as the daemon parses it;
   a dummy-rooted script (unmatched roots) replays under the dummy root
   the script names.  Returns the script's §3.2 cost. *)
let replay p output =
  let gen = Tree.gen () in
  let t1 = Format.parse p.fmt gen p.old_src in
  let t2 = Format.parse p.fmt gen p.new_src in
  match Script_io.parse output with
  | Error m -> Error ("unreadable script: " ^ m)
  | Ok script -> (
    let direct = Script.apply_result t1 script in
    let base, result =
      match direct with
      | Ok out -> (t1, Ok out)
      | Error _ ->
        let d1 = 1 + max (Tree.max_id t1) (Tree.max_id t2) in
        let root = Node.make ~id:d1 ~label:"@@root" () in
        Node.append_child root (Tree.copy t1);
        let out =
          Result.bind (Script.apply_result root script) (fun out ->
              match Node.children out with
              | [ real ] -> Ok real
              | _ -> Error "dummy root does not have exactly one child")
        in
        (root, out)
    in
    match result with
    | Error m -> Error ("script does not apply: " ^ m)
    | Ok out when not (Iso.equal out t2) -> Error "script does not reproduce the new tree"
    | Ok _ -> Ok (Script.measure ~model:cost_model base script).Script.cost)

(* After the window: every answer carrying a script replays its pair to an
   isomorphic tree.  Identical answers for one pair are checked once.
   Returns the costs of the scripts the daemon produced; a cache hit
   produced none. *)
let check st w =
  let seen = Hashtbl.create 1024 in
  let costs = Samples.create () in
  Array.iteri
    (fun i a ->
      match a with
      | Some (Script { cached; script = s; _ }) -> (
        let p = pair_of st i in
        let key = (p.tail, s) in
        let cost =
          match Hashtbl.find_opt seen key with
          | Some cost -> Some cost
          | None -> (
            match replay p s with
            | Ok cost ->
              Hashtbl.replace seen key cost;
              Some cost
            | Error m ->
              Common.Problems.add w.problems
                (Printf.sprintf "request %d: %s" (i + 1) m);
              None)
        in
        match cost with
        | Some c when not cached -> Samples.add costs c
        | Some _ | None -> ())
      | Some Flat | Some (Refused _) | None -> ())
    w.answers;
  costs

let count w f =
  Array.fold_left (fun acc a -> if f a then acc + 1 else acc) 0 w.answers

let served = function
  | Some (Script _ | Flat) -> true
  | Some (Refused _) | None -> false

(* Latency from due time, over served requests. *)
let latencies w =
  let s = Samples.create () in
  Array.iteri
    (fun i a -> if served a then Samples.add s (Common.ms_between w.due.(i) w.recv.(i)))
    w.answers;
  s

(* Share of sent requests answered within the deadline: at any quality,
   or at full quality only.  A refused or unanswered request misses. *)
let slo_share w ~full =
  let ok = ref 0 in
  Array.iteri
    (fun i a ->
      let in_time () = Common.ms_between w.due.(i) w.recv.(i) <= deadline_ms in
      match a with
      | Some (Script { degraded = None; _ }) when in_time () -> incr ok
      | Some (Script _ | Flat) when (not full) && in_time () -> incr ok
      | Some _ | None -> ())
    w.answers;
  float_of_int !ok /. float_of_int (max 1 w.n)

let end_to_end ~setup_s w costs =
  let lat = latencies w in
  (* served answers per second, from the first due time to the last
     answer: a daemon that falls behind stretches the denominator *)
  let last = Array.fold_left Float.max w.due.(0) w.recv in
  [
    ("setup_s", setup_s);
    ("ops_per_s", float_of_int (Samples.count lat) /. (last -. w.due.(0)));
    ("latency_ms.p50", Samples.percentile lat 0.50);
    ("slo_share", slo_share w ~full:false);
    ("script_cost", Samples.mean costs);
    ("peak_heap_mb", w.peak_mb);
  ]

let lateness w =
  let s = Samples.create () in
  Array.iteri (fun i d -> Samples.add s (Common.ms_between d w.sent.(i))) w.due;
  s

(* The daemon's own counters, through the [stats] verb. *)
let cache_hit_ratio st =
  match
    Protocol.parse_response
      (call ~port:st.port "{\"id\":1,\"verb\":\"stats\",\"params\":{}}")
  with
  | Ok (_, Protocol.Ok_resp body) -> (
    match Json.member "cache" body with
    | Some c ->
      let get k = Option.value ~default:0.0 (Json.mem_num k c) in
      get "hits" /. Float.max 1.0 (get "hits" +. get "misses")
    | None -> 0.0)
  | Ok _ | Error _ -> 0.0

(* The traced pass: the window's requests again, in order, sent straight
   into a fresh [Handler] (same cache capacity) with protocol decode,
   handler and response encode each in its own span, after one pass
   without spans for the overhead baseline; then the rebuilt diff on every
   distinct pair those requests carried.  It covers at most [seconds] of
   requests per pass. *)
let trace st w ~seconds =
  let capacity = Server.default_config.Server.cache_entries in
  let requests = Array.init w.n (fun i -> payload ~id:(i + 1) (pair_of st i)) in
  let serve_one h p =
    match Protocol.parse_request p with
    | Error m -> failwith m
    | Ok req -> (
      match
        Handler.handle h ~queue_depth:0 ~pressure:Handler.Full ~draining:false
          ~received_at:(now ()) req
      with
      | Handler.Payload out | Handler.Shutdown out -> out)
  in
  (* untraced baseline *)
  let h0 = Handler.create ~cache_entries:capacity () in
  let stop = now () +. seconds in
  let m = ref 0 in
  let base = ref 0.0 in
  while !m < w.n && now () < stop do
    let t = now () in
    ignore (serve_one h0 requests.(!m));
    base := !base +. Common.ms_between t (now ());
    incr m
  done;
  let h = Handler.create ~cache_entries:capacity () in
  let decode = ref 0.0 and service = ref 0.0 and encode = ref 0.0 in
  let service_of = Array.make !m 0.0 in
  for i = 0 to !m - 1 do
    let a = now () in
    let req =
      match Protocol.parse_request requests.(i) with
      | Ok r -> r
      | Error e -> failwith e
    in
    let b = now () in
    let out =
      match
        Handler.handle h ~queue_depth:0 ~pressure:Handler.Full ~draining:false
          ~received_at:b req
      with
      | Handler.Payload out | Handler.Shutdown out -> out
    in
    let c = now () in
    (* the response body, re-encoded and framed in its own span *)
    (match Protocol.parse_response out with
    | Ok (id, Protocol.Ok_resp body) ->
      let d = now () in
      ignore (Sys.opaque_identity (Protocol.encode_frame (Protocol.ok_payload ~id body)));
      encode := !encode +. Common.ms_between d (now ())
    | Ok (_, Protocol.Err_resp _) | Error _ -> ());
    decode := !decode +. Common.ms_between a b;
    service := !service +. Common.ms_between b c;
    service_of.(i) <- Common.ms_between b c
  done;
  let traced = !decode +. !service +. !encode in
  (* queue wait: answer latency from the send, minus the service time *)
  let wait = Samples.create () in
  for i = 0 to !m - 1 do
    if served w.answers.(i) then
      Samples.add wait (Common.ms_between w.sent.(i) w.recv.(i) -. service_of.(i))
  done;
  (* the diff layers, once per distinct pair among the traced requests *)
  let tt = Layers.create () in
  let parse_ms = ref 0.0 and render_ms = ref 0.0 in
  let seen = Hashtbl.create 1024 in
  let config = Treediff.Config.with_check false Doc_tree.config in
  for i = 0 to !m - 1 do
    let p = pair_of st i in
    if not (Hashtbl.mem seen p.tail) then begin
      Hashtbl.replace seen p.tail ();
      let a = now () in
      let gen = Tree.gen () in
      let t1 = Format.parse p.fmt gen p.old_src in
      let t2 = Format.parse p.fmt gen p.new_src in
      parse_ms := !parse_ms +. Common.ms_between a (now ());
      let script, _ =
        Layers.trace_pair tt ~config ~label:(Printf.sprintf "request %d" (i + 1))
          ~first:(Hashtbl.length seen mod 2 = 0) t1 t2
      in
      let b = now () in
      ignore (Sys.opaque_identity (Script_io.to_string script));
      render_ms := !render_ms +. Common.ms_between b (now ())
    end
  done;
  let nm = float_of_int (max 1 !m) in
  let distinct = float_of_int (max 1 (Hashtbl.length seen)) in
  let metrics =
    [
      ("protocol.decode_ms", !decode /. nm);
      ("protocol.encode_ms", !encode /. nm);
      ("handler.service_ms", !service /. nm);
      ("server.queue_wait_ms", Samples.mean wait);
      ("format.parse_ms", !parse_ms /. distinct);
      ("format.render_ms", !render_ms /. distinct);
      ("trace.overhead_ratio", traced /. !base);
      ("trace.ops", float_of_int !m);
    ]
    @ Layers.metrics tt
  in
  (metrics, Common.Problems.to_list tt.Layers.mismatches)

let per_layer st w =
  let is f a = match a with Some x -> f x | None -> false in
  let degraded_as name =
    is (function Script { degraded = Some r; _ } -> r = name | _ -> false)
  in
  let refused_as name = is (function Refused k -> k = name | _ -> false) in
  let n = float_of_int (max 1 w.n) in
  [
    ("latency_ms.p99", Samples.percentile (latencies w) 0.99);
    ("cache.hit_ratio", cache_hit_ratio st);
    ("server.approx", float_of_int (count w (degraded_as "approx")));
    ("server.flat", float_of_int (count w (is (function Flat -> true | _ -> false))));
    ("server.overloaded", float_of_int (count w (refused_as "overloaded")));
    ("server.shed", float_of_int (count w (refused_as "deadline")));
    ("failed_share", float_of_int (count w (fun a -> not (served a))) /. n);
    ("degraded_share",
     float_of_int
       (count w
          (is (function
            | Script { degraded = Some _; _ } | Flat -> true
            | Script { degraded = None; _ } | Refused _ -> false)))
     /. n);
    ("full_slo_share", slo_share w ~full:true);
    ("generator.late_ms", Samples.percentile (lateness w) 0.99);
    ("gc.minor_words_per_op", w.minor_words /. n);
    ("gc.major_collections", float_of_int w.major);
  ]

let run ~rate ~seed ~seconds ~trace:traced =
  let st, setup_s =
    Common.timed_setup ~reps:(if traced then 1 else 5) ~discard:stop_server
      (setup ~seed)
  in
  let w, layer_stats =
    Fun.protect ~finally:(fun () -> stop_server st) @@ fun () ->
    let w = window st ~rate ~seconds in
    (w, if traced then per_layer st w else [])
  in
  let costs = check st w in
  let late = Samples.percentile (lateness w) 0.99 in
  if late > late_limit_ms then
    Printf.eprintf
      "perfbench: generator ran %.1f ms late at p99 (limit %.1f ms): the \
       offered rate was not held\n%!"
      late late_limit_ms;
  let metrics, more =
    if traced then
      let m, p = trace st w ~seconds in
      (m @ layer_stats, p)
    else (end_to_end ~setup_s w costs, [])
  in
  let unanswered = count w Option.is_none in
  {
    Common.attempted = w.n;
    failed = unanswered;
    problems =
      Common.Problems.to_list w.problems
      @ more
      @
      if unanswered > 0 then [ Printf.sprintf "%d requests unanswered" unanswered ]
      else [];
    metrics;
    notes =
      [
        ("rate_per_s", Printf.sprintf "%g" rate);
        ("latency_samples", string_of_int (Samples.count (latencies w)));
        ("generator_late_p99_ms", Printf.sprintf "%.3f" late);
        ("generator_within_limit", string_of_bool (late <= late_limit_ms));
      ];
  }
