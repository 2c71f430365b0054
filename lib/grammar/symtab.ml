type sym = T of int | N of int

type t = {
  by_name : (string, sym) Hashtbl.t;
  mutable term_names : string array;
  mutable n_terms : int;
  mutable nonterm_names : string array;
  mutable n_nonterms : int;
  term_cache : (string * int) array;
}

let create () =
  {
    by_name = Hashtbl.create 256;
    term_names = Array.make 64 "";
    n_terms = 0;
    nonterm_names = Array.make 64 "";
    n_nonterms = 0;
    term_cache = Array.make 64 ("", -1);
  }

let is_terminal_name s =
  String.length s > 0
  &&
  match s.[0] with
  | 'A' .. 'Z' -> true
  | _ -> false

let push names n v =
  let names =
    if n >= Array.length names then begin
      let bigger = Array.make (2 * Array.length names) "" in
      Array.blit names 0 bigger 0 n;
      bigger
    end
    else names
  in
  names.(n) <- v;
  names

let intern t s =
  match Hashtbl.find_opt t.by_name s with
  | Some sym -> sym
  | None ->
    if s = "" then invalid_arg "Symtab.intern: empty symbol name";
    let sym =
      if is_terminal_name s then begin
        t.term_names <- push t.term_names t.n_terms s;
        let sym = T t.n_terms in
        t.n_terms <- t.n_terms + 1;
        sym
      end
      else begin
        t.nonterm_names <- push t.nonterm_names t.n_nonterms s;
        let sym = N t.n_nonterms in
        t.n_nonterms <- t.n_nonterms + 1;
        sym
      end
    in
    Hashtbl.replace t.by_name s sym;
    sym

let find t s = Hashtbl.find_opt t.by_name s

(* A small direct-mapped cache in front of the hashtable.  Token names
   are shared string constants ({!Gg_ir.Termname}), so after the first
   lookup a name is recognised by pointer.  Each slot holds one
   immutable (name, id) pair and an update is a single pointer store,
   so the cache is safe to share between domains: a racing reader sees
   either the old or the new pair, and a lost update only costs a
   future miss.  Only terminals are cached, and a terminal's id never
   changes once interned, so no entry goes stale and ids stay
   cache-independent (parallel compiles stay deterministic). *)
let term_id t s =
  let slot = (Char.code (String.unsafe_get s 0) + String.length s) land 63 in
  let cs, cid = Array.unsafe_get t.term_cache slot in
  if cs == s then cid
  else
    match Hashtbl.find t.by_name s with
    | T i ->
      Array.unsafe_set t.term_cache slot (s, i);
      i
    | N _ -> -1
    | exception Not_found -> -1

let term_name t i =
  assert (i >= 0 && i < t.n_terms);
  t.term_names.(i)

let nonterm_name t i =
  assert (i >= 0 && i < t.n_nonterms);
  t.nonterm_names.(i)

let name t = function T i -> term_name t i | N i -> nonterm_name t i
let n_terms t = t.n_terms
let n_nonterms t = t.n_nonterms

let sym_equal a b =
  match (a, b) with
  | T x, T y | N x, N y -> Int.equal x y
  | T _, N _ | N _, T _ -> false

let pp_sym t ppf sym = Fmt.string ppf (name t sym)
