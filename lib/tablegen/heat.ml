open Import

type t = {
  total : int;
  counts : (int * int) list;  (* count desc, then id asc *)
}

let order (ia, ca) (ib, cb) =
  match Int.compare cb ca with 0 -> Int.compare ia ib | c -> c

(* Canonicalise whatever the caller hands us: duplicate ids are summed,
   non-positive counts dropped (an adversarial profile must not be able
   to make two equal workloads digest differently), the total recomputed
   from what survives.  Out-of-range production ids are kept — the
   consumer ({!Packed.pack}) ignores ids its grammar lacks, and
   dropping them here would make the digest grammar-dependent. *)
let of_counts raw =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (id, c) ->
      if c > 0 && id >= 0 then
        let k = try Hashtbl.find tbl id with Not_found -> 0 in
        Hashtbl.replace tbl id (k + c))
    raw;
  let counts = Hashtbl.fold (fun id c acc -> (id, c) :: acc) tbl [] in
  let counts = List.sort order counts in
  { total = List.fold_left (fun a (_, c) -> a + c) 0 counts; counts }

let empty = { total = 0; counts = [] }
let count t id = try List.assoc id t.counts with Not_found -> 0

(* The digest is over the canonical content, in id order, so any two
   files carrying the same firing counts key the same cache entry
   regardless of formatting or ordering. *)
let digest t =
  let b = Buffer.create 256 in
  Buffer.add_string b "heat-v1";
  List.iter
    (fun (id, c) -> Buffer.add_string b (Fmt.str "|%d:%d" id c))
    (List.sort compare t.counts);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the `mdgtool heat --json` document:
   {"total": N, "productions": [{"id": I, "count": C}, ...]} *)
let of_json j =
  match Option.bind (Json.member "productions" j) Json.to_list with
  | None -> Fmt.failwith "heat profile: no \"productions\" array"
  | Some prods ->
    of_counts
      (List.map
         (fun p ->
           let field name =
             match Option.bind (Json.member name p) Json.to_int with
             | Some v -> v
             | None ->
               Fmt.failwith "heat profile: production without %S" name
           in
           (field "id", field "count"))
         prods)

let parse text =
  match Json.parse text with
  | j -> of_json j
  | exception Json.Parse_error m -> Fmt.failwith "heat profile: %s" m

let load path =
  match Json.parse_file path with
  | j -> of_json j
  | exception Json.Parse_error m -> Fmt.failwith "%s: %s" path m

let to_json_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Fmt.str "{\n \"total\": %d,\n \"productions\": [\n" t.total);
  List.iteri
    (fun i (id, c) ->
      Buffer.add_string b
        (Fmt.str "  {\"id\": %d, \"count\": %d}%s\n" id c
           (if i = List.length t.counts - 1 then "" else ",")))
    t.counts;
  Buffer.add_string b " ]\n}\n";
  Buffer.contents b

let save t path =
  let oc = open_out_bin path in
  output_string oc (to_json_string t);
  close_out oc

let pp ppf t =
  Fmt.pf ppf "%d reductions over %d productions (digest %s)" t.total
    (List.length t.counts) (digest t)
