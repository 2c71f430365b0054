open Import
module Matcher = Gg_matcher.Matcher

type t = {
  n_terms : int;
  n_nonterms : int;
  n_states : int;
  n_hot : int;
  grammar_digest : string;
  profile_digest : string;
  hot : Bytes.t;  (* bitset: 1 = the state is on the hot path *)
  valid : Bytes.t;  (* per dense action cell, as in Packed *)
  defaults : int array;
  act_base : int array;  (* >= 0: hot comb displacement; -1: cold state *)
  act_check : int array;  (* padded to max hot base + width: no bounds check *)
  act_value : int array;
  cold_off : int array;  (* n_states + 1 prefix offsets into cold_col/val *)
  cold_col : int array;  (* per cold state, exception columns ascending *)
  cold_val : int array;
  goto_base : int array;
  goto_check : int array;
  goto_value : int array;
  aux : int array array;
}

let is_hot t s =
  Char.code (Bytes.unsafe_get t.hot (s lsr 3)) land (1 lsl (s land 7)) <> 0

(* -- heat estimation ------------------------------------------------------ *)

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
  let n_states = Tables.n_states tables in
  Array.init n_states (fun s ->
      let acc = ref 0 in
      Array.iteri
        (fun a cell ->
          match cell with
          | Tables.Error | Tables.Accept -> ()
          | Tables.Shift _ -> acc := !acc + term_heat.(a)
          | Tables.Reduce candidates ->
            Array.iter (fun p -> acc := !acc + prod_heat.(p)) candidates)
        tables.Tables.action.(s);
      !acc)

(* hot = the smallest heat-first state prefix covering this share of
   the total estimated heat (state 0 always rides along: every parse
   starts there) *)
let default_coverage = 0.9

(* The hot states in packing order: hottest first (then densest, then
   by id, so the order is total).  The first-fit packer lays them down
   in this order, landing the workload's working set in the low,
   cache-resident slots. *)
let hot_order ~coverage ~profile (tables : Tables.t) act_rows =
  let n = Tables.n_states tables in
  let heats = state_heats tables profile in
  let total = Array.fold_left ( + ) 0 heats in
  let hot = Array.make n false in
  if total = 0 then
    (* no usable heat (empty profile, foreign ids only): degenerate to
       the baseline layout with every state hot *)
    Array.fill hot 0 n true
  else begin
    let order = Array.init n (fun s -> s) in
    Array.sort
      (fun a b ->
        match Int.compare heats.(b) heats.(a) with
        | 0 -> Int.compare a b
        | c -> c)
      order;
    let target =
      int_of_float (ceil (coverage *. float_of_int total)) |> max 1
    in
    let acc = ref 0 in
    Array.iter
      (fun s ->
        if !acc < target && heats.(s) > 0 then begin
          acc := !acc + heats.(s);
          hot.(s) <- true
        end)
      order;
    hot.(0) <- true
  end;
  List.init n (fun s -> s)
  |> List.filter (fun s -> hot.(s))
  |> List.sort (fun a b ->
         match Int.compare heats.(b) heats.(a) with
         | 0 -> (
           match
             Int.compare (List.length act_rows.(b)) (List.length act_rows.(a))
           with
           | 0 -> Int.compare a b
           | c -> c)
         | c -> c)

let act_rows_of (p : Packed.prepared) =
  let rows = Array.make p.Packed.p_n_states [] in
  List.iter (fun (s, entries) -> rows.(s) <- entries) p.Packed.p_act_rows;
  rows

let hot_states ?(coverage = default_coverage) ~profile tables =
  hot_order ~coverage ~profile tables (act_rows_of (Packed.prepare tables))

let build ?(coverage = default_coverage) ~(profile : Heat.t)
    (tables : Tables.t) =
  let p = Packed.prepare tables in
  let n = p.Packed.p_n_states in
  let width = p.Packed.p_width in
  let act_rows = act_rows_of p in
  let hot_states = hot_order ~coverage ~profile tables act_rows in
  let hot = Bytes.make ((n + 7) / 8) '\000' in
  List.iter
    (fun s ->
      Bytes.set hot (s lsr 3)
        (Char.chr (Char.code (Bytes.get hot (s lsr 3)) lor (1 lsl (s land 7)))))
    hot_states;
  let hot_bit s =
    Char.code (Bytes.get hot (s lsr 3)) land (1 lsl (s land 7)) <> 0
  in
  let n_hot = List.length hot_states in
  let act_base, act_check, act_value =
    Packed.comb_pack ~keep_order:true ~width ~n_states:n
      (List.map (fun s -> (s, act_rows.(s))) hot_states)
  in
  (* pad the comb past every hot row's last reachable slot so the hot
     probe needs no bounds check ([action_code] reads unsafely) *)
  let needed =
    List.fold_left
      (fun m s -> max m (act_base.(s) + width))
      (Array.length act_check) hot_states
  in
  let pad arr fill =
    let out = Array.make needed fill in
    Array.blit arr 0 out 0 (Array.length arr);
    out
  in
  let act_check = pad act_check (-1) in
  let act_value = pad act_value 0 in
  (* cold states fall back to exact per-state exception lists, searched
     by column: no comb slack, no padding, still O(log row) *)
  let cold_off = Array.make (n + 1) 0 in
  let cold_cols = ref [] and cold_vals = ref [] and n_cold_entries = ref 0 in
  for s = 0 to n - 1 do
    cold_off.(s) <- !n_cold_entries;
    if not (hot_bit s) then begin
      act_base.(s) <- -1;
      let entries = List.sort compare act_rows.(s) in
      List.iter
        (fun (col, code) ->
          cold_cols := col :: !cold_cols;
          cold_vals := code :: !cold_vals;
          incr n_cold_entries)
        entries
    end
  done;
  cold_off.(n) <- !n_cold_entries;
  let cold_col = Array.of_list (List.rev !cold_cols) in
  let cold_val = Array.of_list (List.rev !cold_vals) in
  (* the goto comb is off the per-token probe path; keep the baseline
     densest-first layout *)
  let goto_base, goto_check, goto_value =
    Packed.comb_pack ~width:p.Packed.p_n_nonterms ~n_states:n
      p.Packed.p_goto_rows
  in
  {
    n_terms = p.Packed.p_n_terms;
    n_nonterms = p.Packed.p_n_nonterms;
    n_states = n;
    n_hot;
    grammar_digest = p.Packed.p_grammar_digest;
    profile_digest = Heat.digest profile;
    hot;
    valid = p.Packed.p_valid;
    defaults = p.Packed.p_defaults;
    act_base;
    act_check;
    act_value;
    cold_off;
    cold_col;
    cold_val;
    goto_base;
    goto_check;
    goto_value;
    aux = p.Packed.p_aux;
  }

(* -- lookups -------------------------------------------------------------- *)

(* The hot path after the validity probe is three unsafe loads and one
   compare: the base doubles as the hot/cold discriminant, the comb is
   padded so [base + a] is always in range, and the owner check decides
   between the stored cell and the state's default.  Cold states binary
   search their exact exception list instead — slower, but the profile
   says they are rarely probed, and they cost no comb slack at all. *)
(* The stored exception cells are never [Error] and never the default
   (see [Packed.prepare]), so a comb or exception-list *hit* is already
   a genuine action: the validity bitset is only consulted on a miss,
   where it separates [Error] cells from default-covered ones.  That
   makes the hot hit two loads and one compare — strictly less work
   than the baseline probe, which pays the bitset load and two bounds
   checks up front on every cell. *)
let miss_code t s a =
  let b = (s * (t.n_terms + 1)) + a in
  if Char.code (Bytes.unsafe_get t.valid (b lsr 3)) land (1 lsl (b land 7)) = 0
  then 0
  else Array.unsafe_get t.defaults s

let action_code t s a =
  let base = Array.unsafe_get t.act_base s in
  if base >= 0 then begin
    if !Metrics.enabled then Metrics.incr "matcher.probe_hits_hot";
    let i = base + a in
    if Array.unsafe_get t.act_check i = s then Array.unsafe_get t.act_value i
    else miss_code t s a
  end
  else begin
    if !Metrics.enabled then Metrics.incr "matcher.probe_hits_cold";
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
  end

let decode t code =
  if code = 0 then Tables.Error
  else if code = 3 then Tables.Accept
  else
    match code land 3 with
    | 1 -> Tables.Shift (code lsr 2)
    | 2 -> Tables.Reduce [| code lsr 2 |]
    | 3 -> Tables.Reduce t.aux.((code lsr 2) - 1)
    | _ -> Tables.Error

let action t s a = decode t (action_code t s a)
let tie_candidates t i = t.aux.(i)

let has_action t s a =
  let i = (s * (t.n_terms + 1)) + a in
  Char.code (Bytes.unsafe_get t.valid (i lsr 3)) land (1 lsl (i land 7)) <> 0

let expected t s =
  let acc = ref [] in
  for a = t.n_terms downto 0 do
    if has_action t s a then acc := a :: !acc
  done;
  !acc

let goto t s n =
  let i = t.goto_base.(s) + n in
  if i < 0 || i >= Array.length t.goto_check then -1
  else if Array.unsafe_get t.goto_check i <> s then -1
  else Array.unsafe_get t.goto_value i - 1

let default_of t s =
  match decode t t.defaults.(s) with
  | Tables.Error -> None
  | other -> Some other

let grammar_digest t = t.grammar_digest
let profile_digest t = t.profile_digest

(* -- the parity proof ----------------------------------------------------- *)

(* Cell-for-cell against the dense tables, the same contract Packed
   documents: every action cell (including Error cells), every goto
   cell, every expected set.  This is what makes --specialize safe to
   enable transparently: a layout bug is caught at build/load time, not
   as wrong instructions. *)
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
        let spec = action t s a in
        if spec <> dense then
          raise
            (Mismatch
               (Fmt.str "action(%d, %d): specialized %a, dense %a" s a pp_act
                  spec pp_act dense))
      done;
      for nt = 0 to t.n_nonterms - 1 do
        if goto t s nt <> tables.Tables.goto_.(s).(nt) then
          raise
            (Mismatch
               (Fmt.str "goto(%d, %d): specialized %d, dense %d" s nt
                  (goto t s nt)
                  tables.Tables.goto_.(s).(nt)))
      done;
      if expected t s <> Tables.expected tables s then
        raise (Mismatch (Fmt.str "expected(%d) differs" s))
    done;
    Ok ()
  with Mismatch m -> Error m

(* -- layout statistics ---------------------------------------------------- *)

type stats = {
  states : int;
  hot_states : int;
  dense_cells : int;
  spec_cells : int;
  dense_bytes : int;
  spec_bytes : int;
  ratio : float;  (* spec / dense *)
  hot_slots : int;  (* padded hot comb length *)
  cold_entries : int;
}

let stats t =
  let dense_cells = t.n_states * (t.n_terms + 1 + t.n_nonterms) in
  let word = 4 in
  let spec_cells =
    (2 * Array.length t.act_check)
    + (2 * Array.length t.goto_check)
    + (3 * t.n_states) (* act_base, goto_base, defaults *)
    + Array.length t.cold_off
    + (2 * Array.length t.cold_col)
    + ((Bytes.length t.valid + Bytes.length t.hot + word - 1) / word)
  in
  {
    states = t.n_states;
    hot_states = t.n_hot;
    dense_cells;
    spec_cells;
    dense_bytes = dense_cells * word;
    spec_bytes = spec_cells * word;
    ratio = float_of_int spec_cells /. float_of_int dense_cells;
    hot_slots = Array.length t.act_check;
    cold_entries = Array.length t.cold_col;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "%d states (%d hot): %d dense cells (%d KB) -> %d specialized cells (%d \
     KB), %.2fx; %d hot comb slots, %d cold exact entries"
    s.states s.hot_states s.dense_cells (s.dense_bytes / 1024) s.spec_cells
    (s.spec_bytes / 1024) s.ratio s.hot_slots s.cold_entries

(* -- the v3 on-disk format ------------------------------------------------ *)

let magic = "ggcg-tables-v3"

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
        with End_of_file ->
          Fmt.failwith "%s: not a ggcg specialized table file" path
      in
      if m <> magic then
        Fmt.failwith "%s: not a ggcg-tables-v3 file (found %S)" path m;
      let t : t =
        try Marshal.from_channel ic
        with End_of_file | Failure _ ->
          Fmt.failwith "%s: truncated or corrupt specialized table file" path
      in
      if
        t.n_terms <> Symtab.n_terms g.Grammar.symtab
        || t.n_nonterms <> Symtab.n_nonterms g.Grammar.symtab
      then Fmt.failwith "%s: tables do not match this grammar" path;
      let want = Grammar.digest g in
      if t.grammar_digest <> want then
        Fmt.failwith
          "%s: stale specialized tables: built for grammar %s but this \
           grammar is %s (re-run mdgtool specialize or delete the file)"
          path t.grammar_digest want;
      (match profile with
      | Some p when Heat.digest p <> t.profile_digest ->
        Fmt.failwith
          "%s: stale specialized tables: built for profile %s but this \
           profile is %s (re-run mdgtool specialize or delete the file)"
          path t.profile_digest (Heat.digest p)
      | _ -> ());
      t)

(* -- cache entries (tables-<target>-<gdigest>-p<pdigest>.tbl) ------------- *)

let cache_load ?dir ?(target = "vax") ~(profile : Heat.t) (g : Grammar.t) =
  let file =
    Gg_tablegen.Cache.spec_path ?dir ~target
      ~profile_digest:(Heat.digest profile) g
  in
  if not (Sys.file_exists file) then None
  else
    match
      Gg_profile.Trace.phase "tables.load" (fun () -> load ~profile g file)
    with
    | t -> Some t
    | exception (Failure _ | Sys_error _) -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let cache_store ?dir ?(target = "vax") (g : Grammar.t) t =
  let file =
    Gg_tablegen.Cache.spec_path ?dir ~target ~profile_digest:t.profile_digest
      g
  in
  try
    mkdir_p (Filename.dirname file);
    (* write-then-rename, like the baseline cache: a concurrent load
       never sees a torn file *)
    let tmp =
      Filename.temp_file ~temp_dir:(Filename.dirname file) "tables-" ".tmp"
    in
    save t tmp;
    Sys.rename tmp file;
    true
  with Sys_error _ -> false

(* -- the matcher engine --------------------------------------------------- *)

(* eta-expanded like Matcher.packed_engine, for direct arity-2 calls in
   the hot loop *)
let engine ~grammar (t : t) =
  let g : Grammar.t = grammar in
  {
    Matcher.eng_grammar = g;
    eng_eof = Symtab.n_terms g.Grammar.symtab;
    eng_action = (fun s a -> action t s a);
    eng_code = (fun s a -> action_code t s a);
    eng_tie = (fun i -> tie_candidates t i);
    eng_goto = (fun s n -> goto t s n);
    eng_expected = (fun s -> expected t s);
    eng_intern = Matcher.interner g.Grammar.symtab;
  }
