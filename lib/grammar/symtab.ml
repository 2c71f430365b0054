type sym = T of int | N of int

(* The terminal cache: an open-addressing table (linear probing) of
   [mask + 1] slots, at most a quarter of them used, in which every
   terminal has a slot of its own.  [names.(slot)] is [vacant] or a
   string spelling the slot's terminal [ids.(slot)]; [slot.(i)] is
   terminal [i]'s slot. *)
type cache = {
  mask : int;
  names : string array;
  ids : int array;
  slot : int array;
}

type t = {
  by_name : (string, sym) Hashtbl.t;
  mutable term_names : string array;
  mutable n_terms : int;
  mutable nonterm_names : string array;
  mutable n_nonterms : int;
  mutable term_cache : cache;
}

(* a string no caller can hold: it marks a vacant slot *)
let vacant = String.make 1 '\000'

(* FNV-1a over the name *)
let hash s =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  !h lxor (!h lsr 17)

(* place terminal [i] in the first vacant slot from its home slot *)
let place c name i =
  let rec go k =
    if c.ids.(k) < 0 then begin
      c.ids.(k) <- i;
      c.names.(k) <- name;
      c.slot.(i) <- k
    end
    else go ((k + 1) land c.mask)
  in
  go (hash name land c.mask)

(* a cache over the first [n] terminals, with room for [capacity]
   (at least 16 slots, four per terminal) *)
let build_cache term_names n ~capacity =
  let rec size m = if m + 1 >= 4 * capacity then m else size ((2 * m) + 1) in
  let mask = size 15 in
  let c =
    {
      mask;
      names = Array.make (mask + 1) vacant;
      ids = Array.make (mask + 1) (-1);
      slot = Array.make capacity (-1);
    }
  in
  for i = 0 to n - 1 do
    place c term_names.(i) i
  done;
  c

let create () =
  {
    by_name = Hashtbl.create 256;
    term_names = Array.make 64 "";
    n_terms = 0;
    nonterm_names = Array.make 64 "";
    n_nonterms = 0;
    term_cache = build_cache [||] 0 ~capacity:16;
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
        (* every terminal gets a slot of its own as it is interned, so
           the cache is complete before the table is shared *)
        let c = t.term_cache in
        if t.n_terms <= Array.length c.slot then place c s (t.n_terms - 1)
        else
          t.term_cache <-
            build_cache t.term_names t.n_terms ~capacity:(2 * t.n_terms);
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

(* Every terminal owns a slot of the cache, so after the first lookup
   of a name through a given string (the token names are shared
   constants, {!Gg_ir.Termname}) it is recognised by pointer: one hash
   over the name, then pointer comparisons along the probe sequence
   (one, mostly, at a load of at most a quarter).  Anything else — the
   first sight of a string, a non-terminal, an unknown name — reaches a
   vacant slot and falls through to the hashtable; a terminal's string
   is then stored in the terminal's slot with a single pointer store.
   That store only ever replaces a string by another spelling of the
   same name, and the ids never change once the table is shared, so
   domains may share the cache and race on it freely. *)
(* a top-level function, not a local closure over [t], [c] and [s]:
   one would be allocated per lookup *)
let rec probe t c s k =
  let name = Array.unsafe_get c.names k in
  if name == s then Array.unsafe_get c.ids k
  else if name == vacant then
    match Hashtbl.find t.by_name s with
    | T i ->
      c.names.(c.slot.(i)) <- s;
      i
    | N _ -> -1
    | exception Not_found -> -1
  else probe t c s ((k + 1) land c.mask)

let term_id t s =
  let c = t.term_cache in
  probe t c s (hash s land c.mask)

let term_slot t i =
  assert (i >= 0 && i < t.n_terms);
  t.term_cache.slot.(i)

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
