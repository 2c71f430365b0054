(** Machine description grammars.

    A grammar is a set of attributed productions over interned symbols
    plus a distinguished start non-terminal (the paper's sentential
    symbol).  Right-hand sides are the prefix linearisations of
    computation trees, or single symbols for factoring productions
    (paper section 4). *)

type production = {
  id : int;
  lhs : int;  (** non-terminal index *)
  rhs : Symtab.sym array;  (** never empty *)
  action : Action.t;
  note : string;
      (** documentation: typically the assembly template of the
          instruction the production describes *)
}

type binding

type t = private {
  symtab : Symtab.t;
  start : int;
  prods : production array;
  by_lhs : int array array;  (** production ids per lhs non-terminal *)
  derived : binding list Atomic.t;  (** see {!derived} *)
}

(** A production before interning: lhs, rhs, action, note. *)
type spec = string * string list * Action.t * string

(** Build a grammar.  Errors on: empty right-hand side, a terminal used
    as lhs, an undefined non-terminal (appears in a rhs but never as a
    lhs), or duplicate identical productions. *)
val make : start:string -> spec list -> (t, string) result

(** Like {!make} but raises [Invalid_argument]. *)
val make_exn : start:string -> spec list -> t

(** {2 Values derived from a grammar} *)

(** A value computed from a grammar, such as a target's semantic
    actions resolved per production. *)
type 'a derived

(** [derive f] names the value [f g] of each grammar [g]. *)
val derive : (t -> 'a) -> 'a derived

(** [derived g d] is [f g] for [d = derive f], computed on the first
    request and kept with [g]: every later request, from any domain,
    returns the same value. *)
val derived : t -> 'a derived -> 'a

val n_productions : t -> int
val production : t -> int -> production

(** Chain productions (single non-terminal rhs, paper section 3.2). *)
val is_chain : production -> bool

(** Well-formedness report beyond {!make}'s hard errors: non-terminals
    unreachable from the start symbol and non-terminals that derive no
    terminal string. *)
type report = { unreachable : string list; unproductive : string list }

val check : t -> report

type stats = {
  productions : int;
  terminals : int;
  nonterminals : int;
  chain_productions : int;
  max_rhs : int;
}

val stats : t -> stats

(** A stable hex digest of the complete grammar content: symbol tables,
    start symbol, and every production with its action and note.  Two
    grammars with the same symbol counts but different productions get
    different digests — this keys the on-disk table cache and stale-file
    rejection in {!Gg_tablegen.Packed}. *)
val digest : t -> string

val pp_production : t -> production Fmt.t
val pp_stats : stats Fmt.t
val pp : t Fmt.t
