(* CLI/daemon parity: the same inputs give byte-identical answers from
   every entry point, because both call the one verb layer
   (Treediff_serve.Verbs).  For each example pair and each render mode the
   output of `treediff diff`, of the daemon's `diff`, of the file
   `treediff batch -o DIR` writes and of the daemon's `batch` result must
   agree byte for byte.  The daemon runs in process through
   Handler.handle; the CLI runs as a real process.  The store's doc policy
   is checked from both entry points too. *)

module Json = Treediff_serve.Json
module Protocol = Treediff_serve.Protocol
module Handler = Treediff_serve.Handler
module Store = Treediff_store.Store

let bin name =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat dir (Filename.concat ".." (Filename.concat "bin" (name ^ ".exe")))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let tmp_dir name =
  let p = Filename.temp_file ("treediff_parity_" ^ name) "" in
  Sys.remove p;
  Unix.mkdir p 0o755;
  p

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* Run a command; returns (exit code, stdout). *)
let run cmd =
  let out = Filename.temp_file "treediff_parity_out" ".txt" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>/dev/null" cmd out) in
  let stdout = read_file out in
  Sys.remove out;
  (code, stdout)

let handle h verb params =
  let req = { Protocol.id = 1; verb; params } in
  match
    Handler.handle h ~queue_depth:0 ~pressure:Handler.Full ~draining:false
      ~received_at:(Unix.gettimeofday ()) req
  with
  | Handler.Payload p | Handler.Shutdown p -> Protocol.parse_response p

let ok_body = function
  | Ok (_, Protocol.Ok_resp body) -> body
  | Ok (_, Protocol.Err_resp { message; _ }) -> Alcotest.failf "error: %s" message
  | Error e -> Alcotest.failf "protocol: %s" e

(* a typed bad_request answer that names the doc parameter *)
let refuses_doc = function
  | Ok (_, Protocol.Err_resp { kind = Protocol.Bad_request; message; _ }) ->
    let n = String.length message in
    let rec has i = i + 3 <= n && (String.sub message i 3 = "doc" || has (i + 1)) in
    has 0
  | Ok _ | Error _ -> false

(* ------------------------------------------------------------ render parity *)

let modes = [ "script"; "delta"; "stats"; "side-by-side"; "summary" ]

(* One sentence with one changed word: the word-LCS leaf compare makes it
   one update wherever the pipeline runs. *)
let fox_old = {|(D (P (S "The quick brown fox jumps over the lazy dog.")))|}
let fox_new = {|(D (P (S "The quick brown fox leaps over the lazy dog.")))|}

(* (format name, extension, [(stem, old text, new text)]), stems sorted as
   `treediff batch` reads a directory *)
let groups () =
  let dir = Filename.concat ".." (Filename.concat "examples" "pairs") in
  let files = Sys.readdir dir in
  Array.sort compare files;
  let pairs_with ext =
    Array.to_list files
    |> List.filter_map (fun f ->
           if Filename.check_suffix f (".old." ^ ext) then
             let stem = Filename.chop_suffix f (".old." ^ ext) in
             let path side = Filename.concat dir (stem ^ side ^ ext) in
             Some (stem, read_file (path ".old."), read_file (path ".new."))
           else None)
  in
  [
    ("sexp", "sexp",
     List.sort compare (("fox", fox_old, fox_new) :: pairs_with "sexp"));
    ("json", "json", pairs_with "json");
    ("markdown", "md", pairs_with "md");
  ]

let test_render_parity () =
  let t = bin "treediff_cli" in
  let h = Handler.create () in
  let checked = ref 0 in
  List.iter
    (fun (format, ext, pairs) ->
      let dir = tmp_dir format in
      List.iter
        (fun (stem, o, n) ->
          write_file (Filename.concat dir (stem ^ ".old." ^ ext)) o;
          write_file (Filename.concat dir (stem ^ ".new." ^ ext)) n)
        pairs;
      List.iter
        (fun mode ->
          let out = tmp_dir "out" in
          let code, _ =
            run
              (Printf.sprintf "%s batch %s -f %s -m %s -o %s --jobs 1" t dir
                 format mode out)
          in
          Alcotest.(check int) (format ^ " batch exit") 0 code;
          let batch =
            ok_body
              (handle h "batch"
                 (Json.Obj
                    [
                      ("format", Json.Str format);
                      ("mode", Json.Str mode);
                      ("pairs",
                       Json.Arr
                         (List.map
                            (fun (_, o, n) ->
                              Json.Obj [ ("old", Json.Str o); ("new", Json.Str n) ])
                            pairs));
                    ]))
          in
          let results =
            Option.value ~default:[]
              (Option.bind (Json.member "results" batch) Json.arr)
          in
          Alcotest.(check int) "one daemon result per pair" (List.length pairs)
            (List.length results);
          List.iteri
            (fun i (stem, o, n) ->
              let label path = Printf.sprintf "%s.%s %s: %s" stem ext mode path in
              let flag =
                match mode with
                | "side-by-side" | "summary" -> "--render"
                | _ -> "-m"
              in
              let code, cli =
                run
                  (Printf.sprintf "%s diff -f %s %s %s %s %s" t format
                     (Filename.concat dir (stem ^ ".old." ^ ext))
                     (Filename.concat dir (stem ^ ".new." ^ ext))
                     flag mode)
              in
              Alcotest.(check int) (label "diff exit") 0 code;
              let daemon =
                ok_body
                  (handle h "diff"
                     (Json.Obj
                        [
                          ("old", Json.Str o);
                          ("new", Json.Str n);
                          ("format", Json.Str format);
                          ("mode", Json.Str mode);
                        ]))
              in
              Alcotest.(check (option string)) (label "daemon diff") (Some cli)
                (Json.mem_str "output" daemon);
              Alcotest.(check string) (label "batch file") cli
                (read_file (Filename.concat out (stem ^ "." ^ mode)));
              Alcotest.(check (option string)) (label "daemon batch") (Some cli)
                (Json.mem_str "output" (List.nth results i));
              incr checked)
            pairs;
          rm_rf out)
        modes;
      rm_rf dir)
    (groups ());
  Alcotest.(check bool) "every fixture checked" true (!checked >= 30)

(* The word-LCS configuration reaches every path: the one-word change is a
   single update, and the stats answer counts the comparisons. *)
let test_one_word_update () =
  let h = Handler.create () in
  let diff mode =
    Json.mem_str "output"
      (ok_body
         (handle h "diff"
            (Json.Obj
               [
                 ("old", Json.Str fox_old);
                 ("new", Json.Str fox_new);
                 ("mode", Json.Str mode);
               ])))
  in
  let lines mode =
    String.split_on_char '\n' (Option.value ~default:"" (diff mode))
  in
  let starts prefix = String.starts_with ~prefix in
  (match lines "script" with
  | [ op; "" ] when starts "UPD(" op -> ()
  | l -> Alcotest.failf "expected one UPD, got %S" (String.concat "\n" l));
  Alcotest.(check bool) "stats report comparisons" true
    (List.exists (starts "comparisons:") (lines "stats"))

(* One truncated s-expression among valid pairs: both batch entry points
   report that pair as a parse error, with the same message, and diff the
   others exactly as `treediff diff` does. *)
let test_batch_parse_error () =
  let t = bin "treediff_cli" in
  let dir = tmp_dir "broken" in
  let broken = {|(D (P (S "The quick brown fox|} in
  let pairs = [ ("a", fox_old, fox_new); ("b", broken, fox_new); ("c", fox_new, fox_old) ] in
  List.iter
    (fun (stem, o, n) ->
      write_file (Filename.concat dir (stem ^ ".old.sexp")) o;
      write_file (Filename.concat dir (stem ^ ".new.sexp")) n)
    pairs;
  let code, status = run (Printf.sprintf "%s batch %s --jobs 1" t dir) in
  Alcotest.(check int) "batch exit is the parse error's" 2 code;
  let body =
    ok_body
      (handle (Handler.create ()) "batch"
         (Json.Obj
            [
              ("pairs",
               Json.Arr
                 (List.map
                    (fun (_, o, n) -> Json.Obj [ ("old", Json.Str o); ("new", Json.Str n) ])
                    pairs));
            ]))
  in
  Alcotest.(check (option (float 0.))) "one parse error counted" (Some 1.)
    (Json.mem_num "parse_errors" body);
  let results =
    Option.value ~default:[] (Option.bind (Json.member "results" body) Json.arr)
  in
  Alcotest.(check int) "one result per pair" 3 (List.length results);
  List.iteri
    (fun i (stem, _, _) ->
      let r = List.nth results i in
      let line = List.nth (String.split_on_char '\n' status) i in
      if stem = "b" then begin
        Alcotest.(check (option string)) "status" (Some "parse-error") (Json.mem_str "status" r);
        let reason = Option.value ~default:"" (Json.mem_str "reason" r) in
        Alcotest.(check string) "the CLI's status line" line
          (Printf.sprintf "parse-error  b: %s" reason)
      end
      else begin
        let _, cli =
          run
            (Printf.sprintf "%s diff %s %s -m script" t
               (Filename.concat dir (stem ^ ".old.sexp"))
               (Filename.concat dir (stem ^ ".new.sexp")))
        in
        Alcotest.(check (option string)) (stem ^ " status") (Some "ok") (Json.mem_str "status" r);
        Alcotest.(check (option string)) (stem ^ " output") (Some cli) (Json.mem_str "output" r)
      end)
    pairs;
  rm_rf dir

(* --------------------------------------------------------- store doc policy *)

(* A single-file archive refuses a doc name and a corpus needs one, with
   the same rule from the CLI and from the daemon. *)
let test_doc_policy () =
  let t = bin "treediff_cli" in
  let dir = tmp_dir "policy" in
  let archive = Filename.concat dir "single.tds" in
  let corpus = Filename.concat dir "corpus" in
  let tree = Filename.concat dir "t.sexp" in
  write_file tree fox_old;
  let cli args = fst (run (t ^ " store " ^ args)) in
  Alcotest.(check int) "init archive" 0 (cli ("init " ^ archive));
  Alcotest.(check int) "init corpus" 0 (cli ("init --shards 2 " ^ corpus));
  Alcotest.(check int) "commit archive" 0
    (cli (Printf.sprintf "commit %s %s" archive tree));
  Alcotest.(check int) "commit corpus" 0
    (cli (Printf.sprintf "commit %s %s --doc d" corpus tree));
  let h = Handler.create () in
  let daemon verb path extra =
    handle h verb
      (Json.Obj
         ([ ("archive", Json.Str path); ("tree", Json.Str fox_new) ] @ extra))
  in
  let versions = [ ("version", Json.Num 0.); ("from", Json.Num 0.); ("to", Json.Num 0.) ] in
  List.iter
    (fun (verb, cli_args) ->
      Alcotest.(check int) ("cli " ^ verb ^ " --doc on an archive") 1
        (cli (Printf.sprintf "%s %s %s --doc d" verb archive cli_args));
      Alcotest.(check bool) ("daemon store/" ^ verb ^ " doc on an archive") true
        (refuses_doc
           (daemon ("store/" ^ verb) archive (("doc", Json.Str "d") :: versions)));
      if verb <> "log" then begin
        Alcotest.(check int) ("cli " ^ verb ^ " without --doc on a corpus") 1
          (cli (Printf.sprintf "%s %s %s" verb corpus cli_args));
        Alcotest.(check bool) ("daemon store/" ^ verb ^ " no doc on a corpus") true
          (refuses_doc (daemon ("store/" ^ verb) corpus versions))
      end)
    [
      ("log", "");
      ("commit", tree);
      ("materialize", "0");
      ("diff", "--from 0 --to 0");
    ];
  (* the refusals wrote nothing *)
  let s =
    match Store.open_ archive with Ok s -> s | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "archive still holds one version" 1 (Store.versions s);
  let c =
    match Treediff_store.Shard.open_ corpus with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "corpus doc still holds one version" 1
    (Treediff_store.Shard.versions c "d");
  rm_rf dir

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "parity"
    [
      ( "render",
        [
          quick "diff, daemon diff, batch file and daemon batch agree"
            test_render_parity;
          quick "one-word update is one UPD; stats count comparisons"
            test_one_word_update;
          quick "a malformed pair is a per-pair parse error in both batches"
            test_batch_parse_error;
        ] );
      ("store", [ quick "doc policy from the CLI and the daemon" test_doc_policy ]);
    ]
