open Import

(** Textual machine-description format (".mdg").

    The paper's machine descriptions are text files processed by a
    macro preprocessor before table construction (section 6.4).  This
    module is that surface syntax: generic productions with named
    replication classes, expanded by {!Schema}.  Each target's grammar
    is its [.mdg] file ([lib/vax/vax.mdg], [lib/risc/risc.mdg]).

    Format, line oriented; [#] starts a comment:

    {v
    %start stmt
    %class ints = b w l       # a named set of type suffixes
    %class all = b w l f d

    # lhs <- rhs ...  [action]  %over C | %pairs C1 C2  %if [!]FLAG  ; note
    imm.$t  <- Const.$t                     [mode imm] %over ints ; immediate
    reg.$t  <- Plus.$t rval.$t rval.$t      [emit add.$t] %over ints
    reg.$t  <- Rminus.$t rval.$t rval.$t    [emit sub.$t] %over ints %if reverse_ops
    reg.$t  <- Cvt.$f$t rval.$f             [emit cvt.$f$t] %pairs all all
    rval.l  <- reg.l                        [chain]
    v}

    Actions: [[chain]], [[mode NAME]], [[emit NAME]].
    [%over C] replicates the production once per suffix in class [C]
    (binding [$t] and the scale variable [$c]); [%pairs A B] replicates
    over all ordered pairs of distinct suffixes (binding [$f] and
    [$t]).  [%if FLAG] keeps the production only when [FLAG] is on,
    [%if !FLAG] only when it is off.  Productions keep their order in
    the file, which fixes the grammar's production numbering.

    Every error in a description is an {!Mdg_error} carrying the line
    at fault (0 when no line is: a missing [%start]). *)

type production = {
  line : int;
  guard : (string * bool) option;  (** [%if NAME] / [%if !NAME] *)
  schema : Schema.t;
}

type t = {
  start : string;
  start_line : int;
  classes : (string * Dtype.t list) list;
  productions : production list;
}

exception Mdg_error of int * string  (** line, message *)

val parse : string -> t

(** The generic schemas of the grammar [to_grammar] builds: the
    productions whose guard holds under [flags], with every class cut
    down to [types]; a production left with no type is dropped.  A
    guard naming a flag missing from [flags] is an error. *)
val schemas :
  flags:(string * bool) list -> types:Dtype.t list -> t -> Schema.t list

(** Expand {!schemas} and build the grammar.  An undefined
    non-terminal, a duplicate production or a start symbol with no
    production is an error. *)
val to_grammar :
  flags:(string * bool) list -> types:Dtype.t list -> t -> Grammar.t
