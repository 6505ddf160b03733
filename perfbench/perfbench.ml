(* The benchmark's entry point.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]

   Run from the root of the repository (it reads BENCHMARK.json there for
   the metric names and units).  Prints one provenance line, then, as the
   last line, the result object.  Exits 1 when an output check fails and 2
   on a usage error or a refused environment. *)

module Json = Treediff_serve.Json

let usage =
  "perfbench --workload doc-revise|store-churn|serve-steady|serve-burst \
   --seed N --seconds S --trace 0|1 [--rev REV]"

let die code msg =
  prerr_endline ("perfbench: " ^ msg);
  exit code

(* A fault plan or the always-on checker would change what is measured. *)
let refuse_environment () =
  List.iter
    (fun var ->
      match Sys.getenv_opt var with
      | Some _ -> die 2 (var ^ " is set; unset it to benchmark")
      | None -> ())
    [ "TREEDIFF_FAULT"; "TREEDIFF_CHECK" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  rev : string;
}

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and rev = ref "unknown" in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | "--rev" :: v :: rest -> rev := v; go rest
    | [] -> ()
    | arg :: _ -> die 2 (Printf.sprintf "unexpected argument %S\n%s" arg usage)
  in
  (try go (List.tl (Array.to_list Sys.argv))
   with Failure _ -> die 2 ("bad number\n" ^ usage));
  if !workload = "" || !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
  then die 2 usage;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    rev = !rev }

(* The metric names and units, from BENCHMARK.json: [(end_to_end,
   per_layer)], each a list of [(name, unit)]. *)
let declared_metrics () =
  let text =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | s -> s
    | exception Sys_error m -> die 2 m
  in
  let spec = match Json.parse text with Ok j -> j | Error m -> die 2 m in
  let list key =
    match Option.bind (Json.member key spec) Json.arr with
    | None -> die 2 ("BENCHMARK.json: no " ^ key)
    | Some items ->
      List.map
        (fun m ->
          match (Json.mem_str "name" m, Json.mem_str "unit" m) with
          | Some n, Some u -> (n, u)
          | _ -> die 2 ("BENCHMARK.json: bad metric in " ^ key))
        items
  in
  (list "end_to_end", list "per_layer")

(* ROADMAP aim 1: a parallel speedup may be claimed only on a host where a
   pure-CPU spin on two domains runs twice as fast as on one.  The speedup
   is [2 * t(one domain, n) / t(two domains, n each)]. *)
let spin n =
  let x = ref 0 in
  for i = 1 to n do
    x := (!x * 31) + i
  done;
  Sys.opaque_identity !x

(* [(speedup, one-domain time in ms)]; the second shows how fast the host
   ran when the run started. *)
let spin_speedup () =
  let n = 20_000_000 in
  ignore (spin (n / 10));
  let t0 = Common.now () in
  ignore (spin n);
  let one = Common.now () -. t0 in
  let t1 = Common.now () in
  let d = Domain.spawn (fun () -> spin n) in
  ignore (spin n);
  ignore (Domain.join d);
  let two = Common.now () -. t1 in
  (2.0 *. one /. two, one *. 1e3)

(* The two fixed open-loop rates (requests per second).  On a quiet
   2-vCPU host that runs one domain at a time, the daemon stops serving
   this request mix at full quality at about 190/s; shared hosts run at
   half that speed for minutes at a time.  The steady rate stays below
   saturation even then; the burst rate is about twice the quiet-host
   saturation.  Fixed, so two commits see the same load. *)
let steady_rate = 50.0

let burst_rate = 400.0

let run_workload a =
  match a.workload with
  | "doc-revise" -> Doc_revise.run ~seed:a.seed ~seconds:a.seconds ~trace:a.trace
  | "store-churn" -> Store_churn.run ~seed:a.seed ~seconds:a.seconds ~trace:a.trace
  | "serve-steady" ->
    Serve_load.run ~rate:steady_rate ~seed:a.seed ~seconds:a.seconds ~trace:a.trace
  | "serve-burst" ->
    Serve_load.run ~rate:burst_rate ~seed:a.seed ~seconds:a.seconds ~trace:a.trace
  | w -> die 2 (Printf.sprintf "unknown workload %S\n%s" w usage)

let () =
  let a = parse_args () in
  refuse_environment ();
  let e2e, per_layer = declared_metrics () in
  let speedup, spin_ms = spin_speedup () in
  let o =
    try run_workload a
    with e -> die 1 ("workload failed: " ^ Printexc.to_string e)
  in
  let declared = if a.trace then per_layer else e2e in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name declared) then
        die 2 (Printf.sprintf "metric %S is not declared in BENCHMARK.json" name))
    o.Common.metrics;
  let metrics =
    List.map
      (fun (name, unit_) ->
        let value =
          match List.assoc_opt name o.Common.metrics with
          | Some v when Float.is_finite v -> v
          | Some v -> die 2 (Printf.sprintf "metric %s is %f" name v)
          | None when a.trace -> 0.0 (* a layer this workload does not use *)
          | None -> die 2 (Printf.sprintf "workload %s did not report %s" a.workload name)
        in
        (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ]))
      declared
  in
  let nproc = Domain.recommended_domain_count () in
  let provenance =
    Json.Obj
      ([
         ("rev", Json.Str a.rev);
         ("nproc", Json.Num (float_of_int nproc));
         ("workload", Json.Str a.workload);
         ("seed", Json.Num (float_of_int a.seed));
         ("seconds", Json.Num a.seconds);
         ("trace", Json.Bool a.trace);
         ("spin_speedup", Json.Num speedup);
         ("spin_ms", Json.Num spin_ms);
         ("parallel_claims_allowed", Json.Bool (speedup >= 1.8));
       ]
      @ List.map (fun (k, v) -> (k, Json.Str v)) o.Common.notes)
  in
  print_endline (Json.to_string (Json.Obj [ ("provenance", provenance) ]));
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) o.Common.problems;
  let correct = o.Common.problems = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int o.Common.attempted));
            ("failed", Json.Num (float_of_int o.Common.failed));
            ("metrics", Json.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
