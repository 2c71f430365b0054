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

(** [run ~grammar packed callbacks tokens] parses one linearised tree
    over the tables [packed] built from [grammar].  Returns the
    semantic value of the start symbol.  Raises {!Reject} on a
    syntactic block — which, per the paper, indicates a bug in the
    machine description, not in the program being compiled.

    The loop is allocation-free per action: the parse stack is a pair
    of preallocated arrays, each token is interned to its terminal id
    once ({!Gg_grammar.Symtab.term_id}), the lookahead is carried across
    consecutive reductions, and every table probe is a direct call into
    {!Gg_tablegen.Packed}.  When the tables keep cold states and
    {!Gg_profile.Metrics.enabled} is set, each completed run adds its
    probes to the named counters [matcher.probe_hits_hot] and
    [matcher.probe_hits_cold]. *)
val run :
  ?trace:bool ->
  grammar:Grammar.t ->
  Gg_tablegen.Packed.t ->
  'a callbacks ->
  Termname.token list ->
  'a outcome

(** Linearise a tree and run the matcher over it. *)
val run_tree :
  ?trace:bool ->
  ?special_constants:bool ->
  grammar:Grammar.t ->
  Gg_tablegen.Packed.t ->
  'a callbacks ->
  Tree.t ->
  'a outcome

val pp_step : Grammar.t -> step Fmt.t
val pp_trace : Grammar.t -> step list Fmt.t
val pp_error : error Fmt.t
