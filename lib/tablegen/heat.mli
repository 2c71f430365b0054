(** A firing-heat profile: production id → observed reduction count.

    This is the measurement Samuelsson's example-based table
    optimisation starts from — which productions a workload actually
    fires, and how hard.  [mdgtool heat --json] writes it;
    {!Packed.pack} lays the comb out around it; its {!digest} keys
    profiled table cache entries, so the canonical form must be stable:
    counts are merged, non-positive entries dropped, and the digest is
    order- and formatting-independent. *)

type t = private {
  total : int;  (** the sum of all counts *)
  counts : (int * int) list;
      (** (production id, firing count), count descending then id
          ascending — the heat order *)
}

val empty : t

(** Canonicalise: duplicate ids summed, entries with non-positive
    counts or negative ids dropped, total recomputed.  Out-of-range
    production ids are preserved (the consumer ignores them), so the
    digest does not depend on any particular grammar. *)
val of_counts : (int * int) list -> t

val count : t -> int -> int

(** MD5 over the canonical content; equal profiles digest equally
    whatever their source formatting or ordering. *)
val digest : t -> string

(** Parse the [mdgtool heat --json] document
    [{"total": N, "productions": [{"id": I, "count": C}, ...]}].
    Raises [Failure] on malformed input. *)
val parse : string -> t

val load : string -> t

(** Render in the same document shape [parse] reads; byte-deterministic
    for a given profile. *)
val to_json_string : t -> string

val save : t -> string -> unit
val pp : t Fmt.t
