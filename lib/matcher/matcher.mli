open Import

(** The instruction pattern matcher: a table-driven shift/reduce parser
    invoked once per expression tree (paper section 3.3).

    The matcher is generic in the semantic values ['a] carried on the
    parse stack — the code generator instantiates them with operand
    descriptors.  Each shift turns a token's tree node into a value; each
    reduction
    condenses the right-hand-side values into one left-hand-side value
    (paper section 5.2).  When the tables left a reduce/reduce tie to
    semantics, [choose] picks the production dynamically. *)

(** What a set of callbacks keeps from one run to the next: the input
    buffer (each token's terminal id, name and tree node) and the parse
    stack. *)
type 'a scratch

type 'a callbacks = private {
  on_shift : Tree.t -> 'a;
      (** [on_shift node] is the value of a shifted token; [node] is the
          tree node the token spells ({!Termname.walk}) *)
  on_reduce : Grammar.production -> 'a array -> 'a;
  choose : Grammar.production array -> 'a array list -> int;
      (** [choose candidates argss] returns the index of the production
          to reduce by; [argss] are the would-be argument arrays, in
          candidate order.  Only called for genuine ties. *)
  scratch : 'a scratch;
}

(** Callbacks with a scratch of their own, reused by every run that does
    not overlap another run on the same callbacks.  A run that finds it
    taken — a callback re-entering the matcher on the same callbacks,
    or another domain sharing them — works in a private scratch, with
    the same outcome. *)
val callbacks :
  on_shift:(Tree.t -> 'a) ->
  on_reduce:(Grammar.production -> 'a array -> 'a) ->
  choose:(Grammar.production array -> 'a array list -> int) ->
  unit ->
  'a callbacks

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

(** [run_tree ~grammar packed callbacks tree] matches one tree over the
    tables [packed] built from [grammar] and returns the semantic value
    of the start symbol.  Raises {!Reject} on a syntactic block — which,
    per the paper, indicates a bug in the machine description, not in
    the program being compiled.  [special_constants] (default true) is
    {!Termname.walk}'s.

    No token list is built: one prefix walk ({!Termname.walk}) writes
    each token's interned terminal id, name and node into the
    callbacks' scratch, and one shift/reduce loop runs over it.  The
    loop's functions are top-level and keep their state in the scratch,
    every table probe is a direct call into {!Gg_tablegen.Packed}, and
    the lookahead is carried across consecutive reductions.

    Allocation contract: with the callbacks' scratch free and already
    grown to the tree's size (any earlier run on as long an input), and
    {!Gg_profile.Metrics.enabled} and [trace] off, a run allocates on
    the minor heap exactly
    - one argument array per reduction, the one handed to [on_reduce];
    - per semantic tie, the candidate array and one-element list handed
      to [choose];
    - the returned outcome;
    plus whatever the callbacks allocate.  A run that finds the scratch
    taken allocates a private one.  When a run ends, normally or by an
    exception, its input slots are cleared, so the scratch keeps no
    tree alive.

    When the tables keep cold states and {!Gg_profile.Metrics.enabled}
    is set, each completed run adds its probes to the named counters
    [matcher.probe_hits_hot] and [matcher.probe_hits_cold]. *)
val run_tree :
  ?trace:bool ->
  ?special_constants:bool ->
  grammar:Grammar.t ->
  Gg_tablegen.Packed.t ->
  'a callbacks ->
  Tree.t ->
  'a outcome

(** [run ~grammar packed callbacks tokens] is {!run_tree} over an
    explicit token stream: it fills the same buffer and runs the same
    loop.  A token whose name is not a terminal of [grammar] is
    rejected when it becomes the lookahead, with an empty expected
    set. *)
val run :
  ?trace:bool ->
  grammar:Grammar.t ->
  Gg_tablegen.Packed.t ->
  'a callbacks ->
  Termname.token list ->
  'a outcome

val pp_step : Grammar.t -> step Fmt.t
val pp_trace : Grammar.t -> step list Fmt.t
val pp_error : error Fmt.t
