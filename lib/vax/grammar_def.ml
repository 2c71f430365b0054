open Import

type options = {
  int_types : Dtype.t list;
  float_types : Dtype.t list;
  reverse_ops : bool;
  overfactored : bool;
  with_bridges : bool;
  condition_code_fix : bool;
}

let default =
  {
    int_types = [ Dtype.Byte; Dtype.Word; Dtype.Long ];
    float_types = [ Dtype.Flt; Dtype.Dbl ];
    reverse_ops = true;
    overfactored = false;
    with_bridges = true;
    condition_code_fix = true;
  }

(* The instruction-table cluster key for a binary operator. *)
let cluster_of_binop op =
  match Op.unreverse op with
  | Op.Plus -> "add"
  | Op.Minus -> "sub"
  | Op.Mul -> "mul"
  | Op.Div -> "div"
  | Op.Mod -> "mod"
  | Op.And -> "and"
  | Op.Or -> "or"
  | Op.Xor -> "xor"
  | Op.Lsh -> "lsh"
  | Op.Rsh -> "rsh"
  | Op.Udiv -> "udiv"
  | Op.Umod -> "umod"
  | Op.Rminus | Op.Rdiv | Op.Rmod | Op.Rlsh | Op.Rrsh -> assert false

(* The grammar is the text of vax.mdg; its %if guards name the
   options' flags and its classes are cut down to the options' types.
   The text is parsed anew for each grammar built: parsing costs a
   fraction of the build, and no parsed copy stays live. *)

let flags o =
  [
    ("reverse_ops", o.reverse_ops);
    ("overfactored", o.overfactored);
    ("with_bridges", o.with_bridges);
    ("condition_code_fix", o.condition_code_fix);
  ]

let types o = o.int_types @ o.float_types

let schemas o =
  Mdg.schemas ~flags:(flags o) ~types:(types o) (Mdg.parse Vax_mdg.text)

let grammar o =
  Mdg.to_grammar ~flags:(flags o) ~types:(types o) (Mdg.parse Vax_mdg.text)

let default_grammar = lazy (grammar default)

let treelang o =
  let tl =
    Treelang.description ~int_types:o.int_types ~float_types:o.float_types
      ~reverse_ops:o.reverse_ops ()
  in
  if not o.overfactored then tl
  else begin
    (* the operator-class non-terminal of the over-factored variant acts
       as an arity-2 operator in item positions *)
    let is_class name =
      String.length name > 6 && String.sub name 0 6 = "binop."
    in
    {
      tl with
      Treelang.arity =
        (fun name -> if is_class name then 2 else tl.Treelang.arity name);
      starts =
        (fun ~parent ~child ->
          match parent with
          | Some name when is_class name -> (
            match Dtype.of_suffix (String.sub name 6 (String.length name - 6)) with
            | Some ty -> tl.Treelang.value_starts ty
            | None -> [])
          | _ -> tl.Treelang.starts ~parent ~child);
    }
  end
