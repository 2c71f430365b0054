(** Interned grammar symbols.

    Machine description grammars are large (the paper's replicated VAX
    grammar has 219 terminals and 148 non-terminals), and the table
    constructor indexes arrays by symbol, so symbols are interned to
    dense integers: terminals and non-terminals each get their own
    index space.

    Following the paper's convention, terminal names begin with an upper
    case letter and non-terminal names with a lower case letter; the
    classification of a name is fixed by its spelling. *)

type t

type sym =
  | T of int  (** terminal index *)
  | N of int  (** non-terminal index *)

val create : unit -> t

(** Intern a name, classifying by its first character.  Idempotent. *)
val intern : t -> string -> sym

(** Look up without interning. *)
val find : t -> string -> sym option

(** [term_id t s] is the terminal index of [s], or [-1] when [s] is
    unknown or a non-terminal.  Equivalent to {!find} but allocation
    free after the first lookup of a name — the matcher interns every
    token of every tree through this.  A pointer-equality cache over
    the table recognises the shared token-name constants without
    hashing; it is safe to share between domains. *)
val term_id : t -> string -> int

val name : t -> sym -> string
val term_name : t -> int -> string
val nonterm_name : t -> int -> string
val n_terms : t -> int
val n_nonterms : t -> int

(** [is_terminal_name s] — does [s] spell a terminal (leading upper
    case)? *)
val is_terminal_name : string -> bool

val sym_equal : sym -> sym -> bool
val pp_sym : t -> sym Fmt.t
