(* Pieces every workload shares: the clock, sample statistics, the GC
   meter, the set-up timer and the work directory. *)

let now = Unix.gettimeofday

(* The service objective every workload is held to: an answer slower than
   this misses it (the daemon's per-request deadline in the serve
   workloads). *)
let deadline_ms = 250.0

let ms_between t0 t1 = (t1 -. t0) *. 1e3

(* A growable sample of float observations. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 256 0.0; n = 0 }

  let add s x =
    if s.n = Array.length s.data then begin
      let bigger = Array.make (2 * s.n) 0.0 in
      Array.blit s.data 0 bigger 0 s.n;
      s.data <- bigger
    end;
    s.data.(s.n) <- x;
    s.n <- s.n + 1

  let count s = s.n

  let sum s =
    let acc = ref 0.0 in
    for i = 0 to s.n - 1 do
      acc := !acc +. s.data.(i)
    done;
    !acc

  let mean s = if s.n = 0 then 0.0 else sum s /. float_of_int s.n

  (* Nearest-rank percentile: the smallest observation with at least a
     [p] share of the sample at or below it. *)
  let percentile s p =
    if s.n = 0 then 0.0
    else begin
      let a = Array.sub s.data 0 s.n in
      Array.sort Float.compare a;
      let rank = int_of_float (Float.ceil (p *. float_of_int s.n)) in
      a.(max 0 (min (s.n - 1) (rank - 1)))
    end

  let of_list xs =
    let s = create () in
    List.iter (add s) xs;
    s
end

let median xs = Samples.percentile (Samples.of_list xs) 0.5

(* GC activity over a window, for the per-layer gc.* metrics.  The heap
   peak is sampled (the major heap's current size) rather than read from
   the all-time high-water mark, so input generation in set-up does not
   mask what the timed window needs. *)
module Gc_meter = struct
  type t = {
    minor0 : float;
    major0 : int;
    mutable peak_words : int;
  }

  let start () =
    Gc.compact ();
    let s = Gc.quick_stat () in
    { minor0 = s.Gc.minor_words; major0 = s.Gc.major_collections;
      peak_words = s.Gc.heap_words }

  let sample m =
    let s = Gc.quick_stat () in
    if s.Gc.heap_words > m.peak_words then m.peak_words <- s.Gc.heap_words

  let peak_mb m =
    float_of_int (m.peak_words * (Sys.word_size / 8)) /. (1024. *. 1024.)

  (* [(minor words, major collections)] since [start]. *)
  let finish m =
    sample m;
    let s = Gc.quick_stat () in
    (s.Gc.minor_words -. m.minor0, s.Gc.major_collections - m.major0)
end

(* Run [f] [reps] times and keep the last state; the set-up time is the
   median over the repetitions, so one slow repetition does not move it.
   [discard] releases a state that is not kept (its files, its server). *)
let timed_setup ~reps ~discard f =
  let rec go i times kept =
    let t0 = now () in
    let st = f i in
    let dt = now () -. t0 in
    (match kept with Some old -> discard old | None -> ());
    if i + 1 = reps then (st, median (dt :: times))
    else go (i + 1) (dt :: times) (Some st)
  in
  go 0 [] None

(* Scratch space inside the checkout; each run uses its own directory and
   removes it when done. *)
let work_root = ".perfbench-work"

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir name =
  (try Unix.mkdir work_root 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  remove_tree dir;
  dir

(* Every workload reports through this record.  [attempted] counts the
   operations of the timed window, [failed] those that errored or got no
   answer, [problems] the output-check failures (any makes the run
   incorrect). *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;
  metrics : (string * float) list;
  notes : (string * string) list;  (** provenance extras, e.g. sample counts *)
}

(* Output-check failures, collected after the timed window. *)
module Problems = struct
  type t = { mutable list : string list; mutable count : int }

  let create () = { list = []; count = 0 }

  (* Keep the first few messages; count all of them. *)
  let add p msg =
    p.count <- p.count + 1;
    if p.count <= 5 then p.list <- msg :: p.list

  let to_list p =
    let shown = List.rev p.list in
    if p.count > 5 then
      shown @ [ Printf.sprintf "... %d output checks failed in all" p.count ]
    else shown
end
