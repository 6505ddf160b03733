let is_word_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '\'' | '-' -> true
  (* UTF-8 continuation and lead bytes: keep multibyte words whole *)
  | c when Char.code c >= 0x80 -> true
  | _ -> false

(* Lowercasing the whole string once and then slicing equals slicing and
   then lowercasing each word ([lowercase_ascii] is a byte-wise map); the
   two-pass scan fills an exact-size array with no intermediate list. *)
let words s =
  let s = String.lowercase_ascii s in
  let n = String.length s in
  let count = ref 0 and i = ref 0 in
  while !i < n do
    while !i < n && not (is_word_char s.[!i]) do
      incr i
    done;
    if !i < n then begin
      incr count;
      while !i < n && is_word_char s.[!i] do
        incr i
      done
    end
  done;
  let out = Array.make !count "" in
  let j = ref 0 and i = ref 0 in
  while !i < n do
    while !i < n && not (is_word_char s.[!i]) do
      incr i
    done;
    let start = !i in
    while !i < n && is_word_char s.[!i] do
      incr i
    done;
    if !i > start then begin
      out.(!j) <- String.sub s start (!i - start);
      incr j
    end
  done;
  out

(* Tokenization memo: [words] is a pure function, so token arrays are cached
   per input string.  Words are interned to ints on the way in, making the
   LCS probes integer comparisons.  The cache is flushed wholesale when
   oversized; both tables are generation-consistent because the flush
   happens only before either string of a call is looked up.

   [masks] is the bit-parallel kernel's scratch, indexed by word id: all
   zero between calls (each call clears exactly the slots it set), grown
   only when the interned vocabulary outgrows it.

   Caches are values, not module state: each execution context (or domain)
   owns its own, so concurrent diffs never share a table. *)
module Tbl = Hashtbl.Make (String)

module Cache = struct
  type t = {
    token_tbl : int array Tbl.t;
    word_ids : int Tbl.t;
    mutable masks : int array;
    cap : int;
  }

  let default_cap = 1 lsl 16

  let create ?(cap = default_cap) () =
    if cap < 1 then invalid_arg "Word_compare.Cache.create: cap < 1";
    {
      token_tbl = Tbl.create 1024;
      word_ids = Tbl.create 1024;
      masks = Array.make 1024 0;
      cap;
    }

  let clear c =
    Tbl.reset c.token_tbl;
    Tbl.reset c.word_ids

  let size c = Tbl.length c.token_tbl
  let cap c = c.cap
end

let intern_word c w =
  match Tbl.find_opt c.Cache.word_ids w with
  | Some i -> i
  | None ->
    let i = Tbl.length c.Cache.word_ids in
    Tbl.replace c.Cache.word_ids w i;
    i

let tokens c s =
  match Tbl.find_opt c.Cache.token_tbl s with
  | Some a -> a
  | None ->
    let a = Array.map (intern_word c) (words s) in
    Tbl.replace c.Cache.token_tbl s a;
    a

(* Longest word sequence the bit-parallel kernel takes: one bit per word of
   the shorter sentence, inside OCaml's 63-bit int. *)
let word_bits = 62

(* Allison–Dix / Hyyrö bit-parallel LCS length.  Bit [i] of [masks.(w)] is
   set iff [short.(i) = w]; [v] starts all ones over [m] bits and each word
   of [long] turns off at most one more bit, so the LCS length is the number
   of zero bits left.  Requires [Array.length short <= word_bits]; at 62,
   [full] is [max_int] and [v + u] may wrap, which leaves the low bits the
   scan keeps intact. *)
let bit_lcs_length masks short long =
  let m = Array.length short in
  for i = 0 to m - 1 do
    let w = short.(i) in
    masks.(w) <- masks.(w) lor (1 lsl i)
  done;
  let full = (1 lsl m) - 1 in
  let v = ref full in
  for j = 0 to Array.length long - 1 do
    let u = !v land masks.(long.(j)) in
    v := ((!v + u) lor (!v - u)) land full
  done;
  for i = 0 to m - 1 do
    masks.(short.(i)) <- 0
  done;
  let zeros = ref (lnot !v land full) and c = ref 0 in
  while !zeros <> 0 do
    zeros := !zeros land (!zeros - 1);
    incr c
  done;
  !c

let lcs_length cache wa wb =
  let short, long = if Array.length wa <= Array.length wb then (wa, wb) else (wb, wa) in
  if Array.length short > word_bits then
    Treediff_lcs.Myers.lcs_length ~equal:Int.equal wa wb
  else begin
    let nwords = Tbl.length cache.Cache.word_ids in
    if Array.length cache.Cache.masks < nwords then
      cache.Cache.masks <- Array.make (max nwords (2 * Array.length cache.Cache.masks)) 0;
    bit_lcs_length cache.Cache.masks short long
  end

let distance_with cache a b =
  (* Equal strings tokenize identically, so the LCS is total and the
     distance is exactly 0 — skip the tokenization, which dominates the
     cost on mostly-unchanged documents. *)
  if String.equal a b then 0.0
  else begin
    if Cache.size cache > cache.Cache.cap then Cache.clear cache;
    let wa = tokens cache a and wb = tokens cache b in
    let na = Array.length wa and nb = Array.length wb in
    if na = 0 && nb = 0 then 0.0
    else
      let c = lcs_length cache wa wb in
      float_of_int (na + nb - (2 * c)) /. float_of_int (max na nb)
  end

(* The default [distance] keeps its historical closure-friendly signature by
   memoizing through a domain-local cache: safe under domains (each gets its
   own tables) and still bounded by [Cache.default_cap].  Pipelines that
   want per-run isolation use [exec_cache]/[distance_in] instead. *)
let domain_cache_key = Domain.DLS.new_key (fun () -> Cache.create ())

let domain_cache () = Domain.DLS.get domain_cache_key

let distance a b = distance_with (domain_cache ()) a b

let similar ?(threshold = 0.5) a b = distance a b <= threshold

let exec_key : Cache.t Treediff_util.Exec.Key.t =
  Treediff_util.Exec.Key.create "word_compare.cache"

let exec_cache exec =
  Treediff_util.Exec.memo exec exec_key (fun () -> Cache.create ())

let distance_in exec a b = distance_with (exec_cache exec) a b
