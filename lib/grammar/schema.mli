open Import

(** Generic production schemas and type replication.

    The paper writes the VAX description as {e generic} productions and
    uses a macro preprocessor to replicate each one per machine data
    type, growing 458 generic productions to 1073 (section 6.4).  This
    module is that preprocessor's expansion step; {!Mdg} reads the
    schemas from a description's text.

    Substitution variables inside symbol names, action payloads and
    notes:
    - ["$t"] — the one-letter suffix of the replication type;
    - ["$c"] — the special-constant token that scales an index by the
      type's size: [One], [Two], [Four] or [Eight] (section 6.3);
    - for pairwise (conversion) schemas, ["$f"] and ["$t"] are the
      source and destination type suffixes. *)

type over =
  | Literal  (** no replication: the schema is a single production *)
  | Types of Dtype.t list  (** one production per type *)
  | Pairs of (Dtype.t * Dtype.t) list
      (** one production per (from, to) pair — the conversion
          sub-grammar cross product the paper built by hand *)

type t = {
  lhs : string;
  rhs : string list;
  action : Action.t;
  note : string;
  over : over;
}

(** Expand one schema to concrete production specs. *)
val expand : t -> Grammar.spec list

(** Expand a schema list in order (the grammar source order). *)
val expand_all : t list -> Grammar.spec list

(** The scale token base name for a type's size, e.g. [Long] ->
    ["Four"]. *)
val scale_token : Dtype.t -> string

(** Expose the raw substitution for tests: [subst ~vars s] replaces each
    ["$k"] for [(k, v)] in [vars] by [v]. *)
val subst : vars:(char * string) list -> string -> string
