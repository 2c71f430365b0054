open Import

(* encoded actions: 0 = error; (s<<2)|1 = shift s; (p<<2)|2 = reduce p;
   3 = accept; ((i+1)<<2)|3 = semantic tie, candidates in aux.(i).
   Tie candidate arrays are interned: equal arrays share one [i], so a
   tie row's cells equal its tie default and are covered by it. *)
let ties () : (int array, int) Hashtbl.t = Hashtbl.create 16

let tie_arrays ties =
  let arrays = Array.make (Hashtbl.length ties) [||] in
  Hashtbl.iter (fun candidates i -> arrays.(i) <- candidates) ties;
  arrays

let encode ties = function
  | Tables.Error -> 0
  | Tables.Shift s -> (s lsl 2) lor 1
  | Tables.Accept -> 3
  | Tables.Reduce [| p |] -> (p lsl 2) lor 2
  | Tables.Reduce candidates ->
    let i =
      match Hashtbl.find_opt ties candidates with
      | Some i -> i
      | None ->
        let i = Hashtbl.length ties in
        Hashtbl.add ties candidates i;
        i
    in
    ((i + 1) lsl 2) lor 3

type t = {
  n_terms : int;  (* action row width is n_terms + 1 (eof) *)
  n_nonterms : int;
  n_states : int;
  grammar_digest : string;  (* Grammar.digest of the source grammar *)
  profile_digest : string option;  (* Heat.digest of the layout profile *)
  defaults : int array;  (* encoded default reduce per state; 0 = none *)
  valid : Bytes.t;  (* bitset: 1 = the dense action cell is non-Error *)
  act_base : int array;  (* >= 0: comb displacement; -1: cold state *)
  act_check : int array;
  act_value : int array;
  cold_off : int array;  (* n_states + 1 offsets into cold_col/val, or [||] *)
  cold_col : int array;  (* per cold state, exception columns ascending *)
  cold_val : int array;
  goto_base : int array;
  goto_check : int array;
  goto_value : int array;  (* target + 1; 0 = none *)
  aux : int array array;  (* tie candidate arrays, one per distinct tie *)
}

(* First-fit row displacement.  Slot occupancy is mirrored in a bitset,
   63 slots per int, so one pass over a row's columns tests 63
   candidate bases at once; the layout is still exactly first-fit (see
   the .mli). *)
let bits = 63 (* Sys.int_size: OCaml 5 runs on 64-bit platforms only *)

(* index of the lowest clear bit of [w], which is not all ones *)
let lowest_clear w =
  let n = ref 0 and x = ref (lnot w land (w + 1)) in
  if !x land 0xFFFFFFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

(* occupancy of slots [i, i + 63) as one int, slot [i + k] at bit [k];
   slots past the bitset are free *)
let window occ i =
  let k = i / bits and r = i mod bits in
  let n = Array.length occ in
  let lo = if k < n then Array.unsafe_get occ k else 0 in
  if r = 0 then lo
  else
    let hi = if k + 1 < n then Array.unsafe_get occ (k + 1) else 0 in
    (lo lsr r) lor (hi lsl (bits - r))

let comb_pack ?(keep_order = false) ~width ~n_states rows =
  let check = ref (Array.make (width * 4) (-1)) in
  let value = ref (Array.make (width * 4) 0) in
  let occ = ref (Array.make (((width * 4) / bits) + 1) 0) in
  let grow a fill len =
    let n = Array.length a in
    if len <= n then a
    else begin
      let b = Array.make (max (2 * n) len) fill in
      Array.blit a 0 b 0 n;
      b
    end
  in
  let base = Array.make n_states 0 in
  (* densest rows first pack tightest *)
  let order =
    if keep_order then rows
    else
      List.sort
        (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
        rows
  in
  let high = ref 0 in
  List.iter
    (fun (s, entries) ->
      match entries with
      | [] -> base.(s) <- 0
      | _ ->
        let cols = Array.of_list (List.map fst entries) in
        (* bit [i] set iff base [b + i] puts some column on a taken slot *)
        let taken b =
          let acc = ref 0 and j = ref 0 in
          while !acc <> -1 && !j < Array.length cols do
            acc := !acc lor window !occ (b + Array.unsafe_get cols !j);
            incr j
          done;
          !acc
        in
        let rec find b =
          let t = taken b in
          if t = -1 then find (b + bits) else b + lowest_clear t
        in
        let b = find 0 in
        base.(s) <- b;
        let last = b + Array.fold_left Int.max 0 cols in
        check := grow !check (-1) (last + 1);
        value := grow !value 0 (last + 1);
        occ := grow !occ 0 ((last / bits) + 1);
        List.iter
          (fun (col, code) ->
            let i = b + col in
            !check.(i) <- s;
            !value.(i) <- code;
            !occ.(i / bits) <- !occ.(i / bits) lor (1 lsl (i mod bits)))
          entries;
        if last + 1 > !high then high := last + 1)
    order;
  let trim a = Array.sub a 0 (max 1 !high) in
  (base, trim !check, trim !value)

(* Everything [pack] computes before the comb layout is laid down:
   validity bits, default reductions, exception rows and the tie
   arrays.  Every layout [pack] chooses stores these same cells, so it
   decodes identically to the dense table whatever the profile. *)
type prepared = {
  p_n_terms : int;
  p_n_nonterms : int;
  p_n_states : int;
  p_grammar_digest : string;
  p_width : int;  (* action row width, [p_n_terms + 1] *)
  p_valid : Bytes.t;
  p_defaults : int array;
  p_act_rows : (int * (int * int) list) list;
      (* per state, the (terminal, code) cells differing from the
         default *)
  p_goto_rows : (int * (int * int) list) list;
  p_aux : int array array;
}

let is_reduce code = code land 3 = 2 || (code land 3 = 3 && code <> 3)

(* the most frequent code of an ascending list, the lowest of those on
   equal counts (a stated order, so the layout is reproducible); 0 for
   the empty list *)
let most_frequent sorted =
  let rec go best best_n cur n = function
    | c :: rest when c = cur -> go best best_n cur (n + 1) rest
    | rest -> (
      let best, best_n = if n > best_n then (cur, n) else (best, best_n) in
      match rest with [] -> best | c :: rest -> go best best_n c 1 rest)
  in
  go 0 0 0 0 sorted

let prepare (tables : Tables.t) =
  let g = Tables.grammar tables in
  let nt = Symtab.n_terms g.Grammar.symtab in
  let nn = Symtab.n_nonterms g.Grammar.symtab in
  let n_states = Tables.n_states tables in
  let ties = ties () in
  (* one bit per dense action cell: set iff the cell is not Error.  The
     bit distinguishes "no action" from "covered by the default
     reduction", which the comb arrays alone cannot, and is what keeps
     the packed action function identical to the dense one. *)
  let width = nt + 1 in
  let valid = Bytes.make (((n_states * width) + 7) / 8) '\000' in
  let set_valid s a =
    let i = (s * width) + a in
    Bytes.set valid (i lsr 3)
      (Char.chr (Char.code (Bytes.get valid (i lsr 3)) lor (1 lsl (i land 7))))
  in
  (* each cell is encoded once; a row's default is its most frequent
     reduce code *)
  let defaults = Array.make n_states 0 in
  let act_rows =
    List.init n_states (fun s ->
        let codes = Array.map (encode ties) tables.Tables.action.(s) in
        let reduces = ref [] in
        Array.iteri
          (fun a code ->
            if code <> 0 then set_valid s a;
            if is_reduce code then reduces := code :: !reduces)
          codes;
        let default = most_frequent (List.sort Int.compare !reduces) in
        defaults.(s) <- default;
        let entries = ref [] in
        Array.iteri
          (fun a code ->
            if code <> 0 && code <> default then
              entries := (a, code) :: !entries)
          codes;
        (s, !entries))
  in
  let goto_rows =
    List.init n_states (fun s ->
        let entries = ref [] in
        Array.iteri
          (fun n target ->
            if target >= 0 then entries := (n, target + 1) :: !entries)
          tables.Tables.goto_.(s);
        (s, !entries))
  in
  {
    p_n_terms = nt;
    p_n_nonterms = nn;
    p_n_states = n_states;
    p_grammar_digest = Grammar.digest g;
    p_width = width;
    p_valid = valid;
    p_defaults = defaults;
    p_act_rows = act_rows;
    p_goto_rows = goto_rows;
    p_aux = tie_arrays ties;
  }

(* -- the comb order -------------------------------------------------------- *)

(* A profile counts production firings; the table is indexed by state.
   Credit each state's cells from the profile: a reduce cell carries
   its productions' counts directly, and a shift cell on terminal [a]
   carries the counts of every production whose right-hand side
   mentions [a] — a production cannot fire without first shifting each
   of its terminals, so shift-only states inherit the heat of the
   reductions they feed. *)
let state_heats (tables : Tables.t) (profile : Heat.t) =
  let g = Tables.grammar tables in
  let n_prods = Grammar.n_productions g in
  let prod_heat = Array.make (max 1 n_prods) 0 in
  List.iter
    (fun (id, c) ->
      (* foreign ids (another grammar's profile, a fuzzer) carry no
         weight here but stay in the profile digest *)
      if id < n_prods then prod_heat.(id) <- prod_heat.(id) + c)
    profile.Heat.counts;
  let nt = Symtab.n_terms g.Grammar.symtab in
  let term_heat = Array.make (nt + 1) 0 in
  for p = 0 to n_prods - 1 do
    if prod_heat.(p) > 0 then
      Array.iter
        (function
          | Symtab.T a -> term_heat.(a) <- term_heat.(a) + prod_heat.(p)
          | Symtab.N _ -> ())
        (Grammar.production g p).Grammar.rhs
  done;
  Array.map
    (fun row ->
      let acc = ref 0 in
      Array.iteri
        (fun a cell ->
          match cell with
          | Tables.Error | Tables.Accept -> ()
          | Tables.Shift _ -> acc := !acc + term_heat.(a)
          | Tables.Reduce candidates ->
            Array.iter (fun p -> acc := !acc + prod_heat.(p)) candidates)
        row;
      !acc)
    tables.Tables.action

(* the share of estimated probe heat the comb must cover *)
let coverage = 0.9

(* The states laid into the action comb, in packing order: hottest
   first, then densest, then by id.  The comb holds the smallest
   hottest-first prefix covering [coverage] of the estimated heat, plus
   state 0 (every parse starts there).  With no usable heat every heat
   is 0, so every state is in the comb and the order is densest-first,
   the profile-free layout. *)
let comb_order heats (rows : (int * int) list array) =
  let n = Array.length heats in
  let total = Array.fold_left ( + ) 0 heats in
  let in_comb = Array.make n (total = 0) in
  if total > 0 then begin
    let order = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare heats.(b) heats.(a)) order;
    let target =
      int_of_float (ceil (coverage *. float_of_int total)) |> max 1
    in
    let acc = ref 0 in
    Array.iter
      (fun s ->
        if !acc < target && heats.(s) > 0 then begin
          acc := !acc + heats.(s);
          in_comb.(s) <- true
        end)
      order;
    in_comb.(0) <- true
  end;
  let density = Array.map List.length rows in
  List.init n Fun.id
  |> List.filter (fun s -> in_comb.(s))
  |> List.sort (fun a b ->
         match Int.compare heats.(b) heats.(a) with
         | 0 -> (
           match Int.compare density.(b) density.(a) with
           | 0 -> Int.compare a b
           | c -> c)
         | c -> c)

(* the per-state action rows, and the comb order over them *)
let rows_and_order ?profile (tables : Tables.t) p =
  let n = p.p_n_states in
  let rows = Array.make n [] in
  List.iter (fun (s, entries) -> rows.(s) <- entries) p.p_act_rows;
  let heats =
    match profile with
    | None -> Array.make n 0
    | Some profile -> state_heats tables profile
  in
  (rows, comb_order heats rows)

let comb_states ?profile tables =
  snd (rows_and_order ?profile tables (prepare tables))

let pack ?profile (tables : Tables.t) =
  let p = prepare tables in
  let n = p.p_n_states in
  let rows, order = rows_and_order ?profile tables p in
  let act_base, act_check, act_value =
    comb_pack ~keep_order:true ~width:p.p_width ~n_states:n
      (List.map (fun s -> (s, rows.(s))) order)
  in
  (* the states left out of the comb keep their exact exception lists,
     searched by column: no comb slack, still O(log row) *)
  let in_comb = Array.make n false in
  List.iter (fun s -> in_comb.(s) <- true) order;
  let cold_off, cold_col, cold_val =
    if List.length order = n then ([||], [||], [||])
    else begin
      let off = Array.make (n + 1) 0 in
      let cells = ref [] and n_cells = ref 0 in
      for s = 0 to n - 1 do
        off.(s) <- !n_cells;
        if not in_comb.(s) then begin
          act_base.(s) <- -1;
          List.iter
            (fun cell ->
              cells := cell :: !cells;
              incr n_cells)
            (List.sort compare rows.(s))
        end
      done;
      off.(n) <- !n_cells;
      let cells = Array.of_list (List.rev !cells) in
      (off, Array.map fst cells, Array.map snd cells)
    end
  in
  let goto_base, goto_check, goto_value =
    comb_pack ~width:p.p_n_nonterms ~n_states:n p.p_goto_rows
  in
  {
    n_terms = p.p_n_terms;
    n_nonterms = p.p_n_nonterms;
    n_states = n;
    grammar_digest = p.p_grammar_digest;
    profile_digest = Option.map Heat.digest profile;
    defaults = p.p_defaults;
    valid = p.p_valid;
    act_base;
    act_check;
    act_value;
    cold_off;
    cold_col;
    cold_val;
    goto_base;
    goto_check;
    goto_value;
    aux = p.p_aux;
  }

(* -- lookups --------------------------------------------------------------- *)

let decode tie code =
  if code = 0 then Tables.Error
  else if code = 3 then Tables.Accept
  else
    match code land 3 with
    | 1 -> Tables.Shift (code lsr 2)
    | 2 -> Tables.Reduce [| code lsr 2 |]
    | 3 -> Tables.Reduce (tie ((code lsr 2) - 1))
    | _ -> Tables.Error

let has_action t s a =
  let i = (s * (t.n_terms + 1)) + a in
  Char.code (Bytes.unsafe_get t.valid (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* The stored cells are never [Error] and never the state's default
   (see [prepare]), so a comb or cold-list hit is already the answer;
   only a miss reads the validity bit, which tells an [Error] cell from
   one the default covers.  [has_action] is inlined by hand: the
   compiler will not inline it across the call. *)
let miss_code t s a =
  let b = (s * (t.n_terms + 1)) + a in
  if Char.code (Bytes.unsafe_get t.valid (b lsr 3)) land (1 lsl (b land 7)) = 0
  then 0
  else Array.unsafe_get t.defaults s

(* cold-partition probes taken by each domain; the matcher reads the
   count before and after a run, so the comb-hit path carries no
   telemetry *)
let cold_key = Domain.DLS.new_key (fun () -> ref 0)
let cold_probes () = !(Domain.DLS.get cold_key)

(* a cold state binary-searches its exception list *)
let cold_code t s a =
  incr (Domain.DLS.get cold_key);
  let lo = ref (Array.unsafe_get t.cold_off s) in
  let hi = ref (Array.unsafe_get t.cold_off (s + 1)) in
  let res = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Array.unsafe_get t.cold_col mid in
    if c = a then begin
      res := Array.unsafe_get t.cold_val mid;
      lo := !hi
    end
    else if c < a then lo := mid + 1
    else hi := mid
  done;
  if !res >= 0 then !res else miss_code t s a

(* [s] is a state the tables themselves produced, so [act_base] is read
   unchecked; act_check and act_value have the same length and [a >= 0],
   so one upper-bound check on [i] covers both comb reads *)
let action_code t s a =
  let base = Array.unsafe_get t.act_base s in
  if base < 0 then cold_code t s a
  else
    let i = base + a in
    if i < Array.length t.act_check && Array.unsafe_get t.act_check i = s then
      Array.unsafe_get t.act_value i
    else miss_code t s a

let tie_candidates t i = t.aux.(i)
let action t s a = decode (tie_candidates t) (action_code t s a)

let encode_table (tables : Tables.t) =
  let ties = ties () in
  let codes = Array.map (Array.map (encode ties)) tables.Tables.action in
  (codes, tie_arrays ties)

let expected t s =
  let acc = ref [] in
  for a = t.n_terms downto 0 do
    if has_action t s a then acc := a :: !acc
  done;
  !acc

let digest t = t.grammar_digest

let default_of t s =
  match decode (tie_candidates t) t.defaults.(s) with
  | Tables.Error -> None
  | other -> Some other

let goto t s n =
  let i = t.goto_base.(s) + n in
  if i < 0 || i >= Array.length t.goto_check then -1
  else if Array.unsafe_get t.goto_check i <> s then -1
  else Array.unsafe_get t.goto_value i - 1

(* -- the parity proof ------------------------------------------------------ *)

let pp_act ppf = function
  | Tables.Error -> Fmt.string ppf "error"
  | Tables.Accept -> Fmt.string ppf "accept"
  | Tables.Shift s -> Fmt.pf ppf "shift %d" s
  | Tables.Reduce ps -> Fmt.pf ppf "reduce %a" Fmt.(array ~sep:comma int) ps

let verify t (tables : Tables.t) =
  let g = Tables.grammar tables in
  let exception Mismatch of string in
  try
    if t.grammar_digest <> Grammar.digest g then
      raise
        (Mismatch
           (Fmt.str "grammar digest %s does not match tables (%s)"
              t.grammar_digest (Grammar.digest g)));
    let n = Tables.n_states tables in
    if t.n_states <> n then
      raise (Mismatch (Fmt.str "%d states, dense has %d" t.n_states n));
    for s = 0 to n - 1 do
      for a = 0 to t.n_terms do
        let dense = tables.Tables.action.(s).(a) in
        let packed = action t s a in
        if packed <> dense then
          raise
            (Mismatch
               (Fmt.str "action(%d, %d): packed %a, dense %a" s a pp_act
                  packed pp_act dense))
      done;
      for nt = 0 to t.n_nonterms - 1 do
        if goto t s nt <> tables.Tables.goto_.(s).(nt) then
          raise
            (Mismatch
               (Fmt.str "goto(%d, %d): packed %d, dense %d" s nt (goto t s nt)
                  tables.Tables.goto_.(s).(nt)))
      done;
      if expected t s <> Tables.expected tables s then
        raise (Mismatch (Fmt.str "expected(%d) differs" s))
    done;
    Ok ()
  with Mismatch m -> Error m

(* -- layout statistics ----------------------------------------------------- *)

type stats = {
  states : int;
  hot_states : int;
  cold_entries : int;
  dense_cells : int;
  packed_cells : int;
  dense_bytes : int;
  packed_bytes : int;
  ratio : float;
}

let stats t =
  let dense_cells = t.n_states * (t.n_terms + 1 + t.n_nonterms) in
  let word = 4 in
  let packed_cells =
    (2 * Array.length t.act_check)
    + (2 * Array.length t.goto_check)
    + (3 * t.n_states) (* the base and default arrays *)
    + Array.length t.cold_off
    + (2 * Array.length t.cold_col)
    + ((Bytes.length t.valid + word - 1) / word) (* the validity bitset *)
  in
  {
    states = t.n_states;
    hot_states =
      Array.fold_left (fun n b -> if b >= 0 then n + 1 else n) 0 t.act_base;
    cold_entries = Array.length t.cold_col;
    dense_cells;
    packed_cells;
    dense_bytes = dense_cells * word;
    packed_bytes = packed_cells * word;
    ratio = float_of_int packed_cells /. float_of_int dense_cells;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "%d states: %d dense cells (%d KB) -> %d packed cells (%d KB), %.2fx"
    s.states s.dense_cells (s.dense_bytes / 1024) s.packed_cells
    (s.packed_bytes / 1024) s.ratio;
  if s.hot_states < s.states then
    Fmt.pf ppf "; %d states in the comb, %d cold entries" s.hot_states
      s.cold_entries

(* -- the on-disk format ---------------------------------------------------- *)

let magic = "ggcg-tables-v4"

let save t path =
  let oc = open_out_bin path in
  output_string oc magic;
  Marshal.to_channel oc t [];
  close_out oc

let load ?profile (g : Grammar.t) path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let m =
        try really_input_string ic (String.length magic)
        with End_of_file -> Fmt.failwith "%s: not a ggcg table file" path
      in
      if m <> magic then
        Fmt.failwith "%s: not a %s file (found %S)" path magic m;
      let t : t =
        try Marshal.from_channel ic
        with End_of_file | Failure _ ->
          Fmt.failwith "%s: truncated or corrupt table file" path
      in
      if
        t.n_terms <> Symtab.n_terms g.Grammar.symtab
        || t.n_nonterms <> Symtab.n_nonterms g.Grammar.symtab
      then Fmt.failwith "%s: tables do not match this grammar" path;
      let want = Grammar.digest g in
      if t.grammar_digest <> want then
        Fmt.failwith
          "%s: stale tables: built for grammar %s but this grammar is %s \
           (rebuild with mdgtool cache or delete the file)"
          path t.grammar_digest want;
      (match profile with
      | Some p when t.profile_digest <> Some (Heat.digest p) ->
        Fmt.failwith
          "%s: stale tables: laid out for profile %s but this profile is %s \
           (re-run mdgtool specialize or delete the file)"
          path
          (Option.value ~default:"none" t.profile_digest)
          (Heat.digest p)
      | _ -> ());
      t)
