(** Comb-compressed parse tables — the production representation.

    The CGGWS the paper started from "produced tables that were too
    large" and its matcher "spent too much time … unpacking cumbersome
    tables" (section 2); table size is a recurring concern (sections 6.4
    and 9).  The sparse action/goto matrices are packed by the classic
    row-displacement (comb) technique — each state's row is slid over a
    single value array until its non-error entries fall into free slots,
    with an owner check array making lookups safe.

    LR rows are dominated by reduce entries, so before packing, each
    state's most frequent reduce becomes its {e default action} (the
    classic yacc-style transformation): only shifts, accepts and
    minority reduces are stored as exceptions.  Unlike yacc, a per-cell
    validity bitset (one bit per dense cell, a 1/32 overhead) records
    which cells hold a real action, so error cells answer [Error]
    instead of the default reduction: the packed action function is
    {e identical} to the dense one, including error positions and
    expected sets — the parity Nederhof & Satta require of compact
    tabular representations.

    Lookup stays O(1) in the comb; {!stats} reports the achieved
    compression.  The
    tables embed a {!Gg_grammar.Grammar.digest} of their source grammar
    and {!load} rejects files built from any other grammar, even one
    with identical symbol counts. *)

(** The one table layout.  A state is either {e in the comb} or
    {e cold}:

    {ul
    {- [act_base.(s) >= 0]: the state's exception cells sit in the
       shared [act_check]/[act_value] comb at [act_base.(s) + column],
       owned when [act_check] holds [s].  The comb is trimmed to its
       last used slot; there is no padding.}
    {- [act_base.(s) = -1]: the state is cold; its exception cells are
       the exact list [cold_col]/[cold_val] between [cold_off.(s)] and
       [cold_off.(s + 1)], columns ascending, binary-searched on probe.
       All three arrays are empty when every state is in the comb.}}

    The probe ({!action_code}) reads the comb (or the cold list) first,
    with one bounds check.  Stored cells are never [Error] and never the
    state's default, so a hit is the answer; only a miss reads the
    validity bit, which tells an [Error] cell from one the default
    covers.

    Without a profile, or with one that has no usable heat, every state
    is in the comb and the rows are laid down densest-first.  With a
    heat profile ({!Heat}, from [mdgtool heat --json]) the comb holds
    the smallest hottest-first set of states covering 90% of the
    estimated probe heat (after Samuelsson's example-based table
    optimisation), laid down hottest-first so the working set shares
    the low slots; every other state is cold and costs no comb slack.
    Either way the table decodes cell-for-cell like the dense one
    ({!verify}). *)
type t = private {
  n_terms : int;  (** action row width is [n_terms + 1] (eof) *)
  n_nonterms : int;
  n_states : int;
  grammar_digest : string;  (** {!Gg_grammar.Grammar.digest} of the source *)
  profile_digest : string option;
      (** {!Heat.digest} of the profile the comb was laid out for *)
  defaults : int array;  (** encoded default reduce per state; 0 = none *)
  valid : Bytes.t;  (** bitset: 1 = the dense action cell is non-Error *)
  act_base : int array;  (** [>= 0]: comb displacement; [-1]: cold *)
  act_check : int array;
  act_value : int array;
  cold_off : int array;
  cold_col : int array;
  cold_val : int array;
  goto_base : int array;  (** the goto comb, densest-first, no cold rows *)
  goto_check : int array;
  goto_value : int array;  (** target + 1; 0 = none *)
  aux : int array array;  (** tie candidate arrays, one per distinct tie *)
}

(** [pack ?profile tables] lays the tables out as described above.
    Exact for {e any} profile: the profile only steers the layout. *)
val pack : ?profile:Heat.t -> Tables.t -> t

(** The states {!pack} lays into the action comb, in packing order:
    hottest first, then densest, then by id. *)
val comb_states : ?profile:Heat.t -> Tables.t -> int list

(** The representation-independent half of {!pack}: validity bits,
    default reductions, per-state exception rows (cells whose code
    differs from the state's default) and the tie-candidate arrays.
    Tie candidate arrays are interned — one [p_aux] entry, and so one
    code, per distinct array — and a state's default is its most
    frequent reduce code, the lowest such code on equal counts. *)
type prepared = {
  p_n_terms : int;
  p_n_nonterms : int;
  p_n_states : int;
  p_grammar_digest : string;
  p_width : int;  (** action row width, [p_n_terms + 1] for eof *)
  p_valid : Bytes.t;  (** bitset: 1 = the dense action cell is non-Error *)
  p_defaults : int array;
  p_act_rows : (int * (int * int) list) list;
  p_goto_rows : (int * (int * int) list) list;
  p_aux : int array array;
}

val prepare : Tables.t -> prepared

(** First-fit row-displacement packing of [(row, (column, value) list)]
    rows into a (base, check, value) triple: each row in turn takes the
    lowest base at which every one of its columns lands on a free slot
    (an empty row gets base 0 and no slots).  The layout is {e exactly}
    the one trying base 0, 1, 2, ... in turn gives, but 63 bases are
    tested per step: slot occupancy is also kept as a bitset, and
    OR-ing, over the row's columns, the 63 occupancy bits starting at
    [b + column] leaves bit [i] clear iff base [b + i] fits; the lowest
    clear bit is the first fit, and an all-ones result moves on to
    [b + 63].  Rows are packed densest-first unless [keep_order] is
    set, in which case the given order is the packing order ({!pack}
    passes its hottest-first comb order). *)
val comb_pack :
  ?keep_order:bool ->
  width:int ->
  n_states:int ->
  (int * (int * int) list) list ->
  int array * int array * int array

(** Decoded lookups, equal to the dense table's entries in every cell
    (including [Error] cells). *)
val action : t -> int -> int -> Tables.action

(** The same lookup as an integer code — the matcher's allocation-free
    view of the table.  [0] is error, [3] accept, [(s lsl 2) lor 1]
    shift to state [s], [(p lsl 2) lor 2] reduce by production [p], and
    [((i+1) lsl 2) lor 3] a semantic tie whose candidate productions
    are [tie_candidates t i] (one [i] per distinct candidate array).
    [action t s a = decode (tie_candidates t) (action_code t s a)] in
    every cell.  O(1) for states in the comb, O(log row) for cold
    ones; a cold probe bumps the calling domain's {!cold_probes}. *)
val action_code : t -> int -> int -> int

(** [decode tie code] — the {!Tables.action} an integer code stands
    for, [tie i] giving the candidates of tie [i]. *)
val decode : (int -> int array) -> int -> Tables.action

(** The candidate array of tie [i], in the same order the dense table's
    [Reduce] carries them. *)
val tie_candidates : t -> int -> int array

(** The number of cold-state probes the calling domain has made, over
    all tables: a running count, read before and after a matcher run. *)
val cold_probes : unit -> int

(** Encode a dense table's action matrix into the same integer codes,
    plus the tie-candidate arrays indexed by the codes' [i] — lets the
    dense engine share the matcher's allocation-free hot loop. *)
val encode_table : Tables.t -> int array array * int array array

(** [has_action t s a] — does state [s] have a non-error action on
    terminal [a]?  O(1) bitset probe. *)
val has_action : t -> int -> int -> bool

(** Terminals with a non-error action in a state, equal to
    {!Tables.expected} on the source tables. *)
val expected : t -> int -> int list

(** The state's default reduction, if any. *)
val default_of : t -> int -> Tables.action option

val goto : t -> int -> int -> int

(** The {!Gg_grammar.Grammar.digest} of the grammar the tables were
    built from. *)
val digest : t -> string

(** Cell-for-cell parity against the dense tables: every action cell
    (including [Error]), every goto, every expected set.  [Error _]
    names the first differing cell. *)
val verify : t -> Tables.t -> (unit, string) result

type stats = {
  states : int;
  hot_states : int;  (** states in the comb *)
  cold_entries : int;  (** exact cold exception cells *)
  dense_cells : int;  (** action + goto cells in the dense tables *)
  packed_cells : int;  (** slots used by all arrays + the bitset *)
  dense_bytes : int;  (** at one word per cell *)
  packed_bytes : int;
  ratio : float;  (** packed / dense *)
}

val stats : t -> stats
val pp_stats : stats Fmt.t

(** The [ggcg-tables-v4] on-disk format: magic, then the marshalled
    tables with the embedded grammar and profile digests.  The tables
    are built once per target machine, as in the paper, and shipped
    with (or cached beside) the compiler. *)
val save : t -> string -> unit

(** Loads and validates: wrong magic (including the older v2 and v3
    formats), truncation, symbol-count mismatch and grammar-digest
    mismatch (an edited grammar with unchanged symbol counts) all raise
    [Failure] rather than selecting wrong instructions.  Passing
    [profile] also rejects tables laid out for any other profile (or
    for none). *)
val load : ?profile:Heat.t -> Gg_grammar.Grammar.t -> string -> t
