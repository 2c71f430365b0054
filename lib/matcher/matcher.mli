open Import

(** The instruction pattern matcher: a table-driven shift/reduce parser
    invoked once per expression tree (paper section 3.3).

    The matcher is generic in the semantic values ['a] carried on the
    parse stack — the code generator instantiates them with operand
    descriptors.  Each shift turns a token into a value; each reduction
    condenses the right-hand-side values into one left-hand-side value
    (paper section 5.2).  When the tables left a reduce/reduce tie to
    semantics, [choose] picks the production dynamically. *)

type 'a callbacks = {
  on_shift : Termname.token -> 'a;
  on_reduce : Grammar.production -> 'a array -> 'a;
  choose : Grammar.production array -> 'a array list -> int;
      (** [choose candidates argss] returns the index of the production
          to reduce by; [argss] are the would-be argument arrays, in
          candidate order.  Only called for genuine ties. *)
}

(** One parser action, for tracing (the paper's Appendix prints this
    sequence for [a := 27 + b]). *)
type step =
  | Sshift of string  (** terminal shifted *)
  | Sreduce of int  (** production id reduced *)
  | Saccept

type error = {
  at : int;  (** index of the offending token, or input length for eof *)
  token : string;  (** terminal name, or ["<eof>"] *)
  state : int;
  expected : string list;  (** terminals with actions in that state *)
}

exception Reject of error

type 'a outcome = { value : 'a; trace : step list }

(** A table representation bound to its lookup functions.  The matcher
    is driven through this record, so the dense and the comb-packed
    representations are interchangeable end to end — the production
    path runs packed ({!packed_engine}); the dense form is kept for
    differential testing ({!engine}). *)
type engine = {
  eng_grammar : Grammar.t;
  eng_eof : int;  (** terminal index of the end marker *)
  eng_code : int -> int -> int;
      (** an action cell as an integer code
          ({!Gg_tablegen.Packed.action_code}'s encoding); drives the hot
          loop without allocating a [Tables.action] per probe *)
  eng_tie : int -> int array;
      (** candidate productions of semantic tie [i] in the codes *)
  eng_goto : int -> int -> int;
  eng_expected : int -> int list;
      (** terminals with a non-error action, for diagnostics *)
  eng_intern : string -> int;
      (** terminal id of a token name, [-1] if unknown; a
          pointer-equality cache over {!Gg_grammar.Symtab.term_id},
          safe to share between domains *)
  eng_split : bool;
      (** the packed tables keep cold states: when
          {!Gg_profile.Metrics.enabled}, each completed run adds its
          probes to the named counters [matcher.probe_hits_hot] and
          [matcher.probe_hits_cold] *)
}

val engine : Tables.t -> engine

(** The packed engine is behaviourally identical to the dense one,
    including error positions and expected sets (see
    {!Gg_tablegen.Packed}). *)
val packed_engine : grammar:Grammar.t -> Gg_tablegen.Packed.t -> engine

(** [run_engine engine callbacks tokens] parses one linearised tree.
    Returns the semantic value of the start symbol.  Raises {!Reject}
    on a syntactic block — which, per the paper, indicates a bug in the
    machine description, not in the program being compiled.

    The loop is allocation-free per action: the parse stack is a pair
    of preallocated arrays, the token stream is interned to terminal
    ids once before the loop, and the lookahead is carried across
    consecutive reductions. *)
val run_engine :
  ?trace:bool -> engine -> 'a callbacks -> Termname.token list -> 'a outcome

(** Linearise a tree and run the matcher over it. *)
val run_tree_engine :
  ?trace:bool ->
  ?special_constants:bool ->
  engine ->
  'a callbacks ->
  Tree.t ->
  'a outcome

val pp_step : Grammar.t -> step Fmt.t
val pp_trace : Grammar.t -> step list Fmt.t
val pp_error : error Fmt.t
