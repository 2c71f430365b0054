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

    Lookup stays O(1); {!stats} reports the achieved compression.  The
    tables embed a {!Gg_grammar.Grammar.digest} of their source grammar
    and {!load} rejects files built from any other grammar, even one
    with identical symbol counts. *)

type t

val pack : Tables.t -> t

(** The representation-independent half of {!pack}: validity bits,
    default reductions, per-state exception rows (cells whose code
    differs from the state's default) and the tie-candidate arrays.
    Tie candidate arrays are interned — one [p_aux] entry, and so one
    code, per distinct array — and a state's default is its most
    frequent reduce code, the lowest such code on equal counts.
    {!pack} lays the rows out densest-first; the profile-guided
    specializer ({!Gg_specialize.Specialize}) lays the same rows out
    hottest-first — both decode identically to the dense table because
    they share this preparation. *)
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
    set, in which case the given order is the packing order (the
    specializer packs hottest-first so hot rows share cache lines). *)
val comb_pack :
  ?keep_order:bool ->
  width:int ->
  n_states:int ->
  (int * (int * int) list) list ->
  int array * int array * int array

(** O(1) decoded lookups, equal to the dense table's entries in every
    cell (including [Error] cells — see above). *)
val action : t -> int -> int -> Tables.action

(** The same lookup as an integer code — the matcher's allocation-free
    view of the table.  [0] is error, [3] accept, [(s lsl 2) lor 1]
    shift to state [s], [(p lsl 2) lor 2] reduce by production [p], and
    [((i+1) lsl 2) lor 3] a semantic tie whose candidate productions
    are [tie_candidates t i] (one [i] per distinct candidate array).
    [action t s a = decode (action_code t s a)] in every cell. *)
val action_code : t -> int -> int -> int

(** The candidate array of tie [i], in the same order the dense table's
    [Reduce] carries them. *)
val tie_candidates : t -> int -> int array

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

type stats = {
  states : int;
  dense_cells : int;  (** action + goto cells in the dense tables *)
  packed_cells : int;  (** slots used by the packed arrays + bitset *)
  dense_bytes : int;  (** at one word per cell *)
  packed_bytes : int;
  ratio : float;  (** packed / dense *)
}

val stats : t -> stats
val pp_stats : stats Fmt.t

(** The [ggcg-tables-v2] on-disk format: magic, then the marshalled
    tables with the embedded grammar digest.  The tables are built once
    per target machine, as in the paper, and shipped with (or cached
    beside) the compiler. *)
val save : t -> string -> unit

(** Loads and validates: wrong magic, truncation, symbol-count mismatch
    and grammar-digest mismatch (an edited grammar with unchanged
    symbol counts) all raise [Failure] rather than selecting wrong
    instructions. *)
val load : Gg_grammar.Grammar.t -> string -> t
