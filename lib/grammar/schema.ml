open Import

type over =
  | Literal
  | Types of Dtype.t list
  | Pairs of (Dtype.t * Dtype.t) list

type t = {
  lhs : string;
  rhs : string list;
  action : Action.t;
  note : string;
  over : over;
}

let scale_token ty =
  match Dtype.size ty with
  | 1 -> "One"
  | 2 -> "Two"
  | 4 -> "Four"
  | 8 -> "Eight"
  | _ -> assert false

let subst ~vars s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '$' && i + 1 < n then begin
        (match List.assoc_opt s.[i + 1] vars with
        | Some v -> Buffer.add_string buf v
        | None ->
          Fmt.invalid_arg "Schema.subst: unknown variable $%c in %S" s.[i + 1] s);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let expand_with vars sch : Grammar.spec =
  let f = subst ~vars in
  (f sch.lhs, List.map f sch.rhs, Action.map_payload f sch.action, f sch.note)

let expand sch =
  match sch.over with
  | Literal -> [ expand_with [] sch ]
  | Types tys ->
    List.map
      (fun ty ->
        expand_with [ ('t', Dtype.suffix ty); ('c', scale_token ty) ] sch)
      tys
  | Pairs ps ->
    List.map
      (fun (from, to_) ->
        expand_with [ ('f', Dtype.suffix from); ('t', Dtype.suffix to_) ] sch)
      ps

let expand_all schemas = List.concat_map expand schemas
