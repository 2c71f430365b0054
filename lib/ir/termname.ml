(* The name set is small and fixed, so every name is built exactly once
   at module initialisation and each emission returns the same shared
   string.  Linearisation then allocates nothing per node for the name,
   and the matcher's interning cache can recognise a name by pointer
   (see {!Gg_matcher.Matcher}). *)

let dtype_index = function
  | Dtype.Byte -> 0
  | Dtype.Word -> 1
  | Dtype.Long -> 2
  | Dtype.Quad -> 3
  | Dtype.Flt -> 4
  | Dtype.Dbl -> 5

let dtypes = Array.of_list Dtype.all

let family base =
  Array.map (fun ty -> base ^ "." ^ Dtype.suffix ty) dtypes

let typed_tbl base =
  let a = family base in
  fun ty -> Array.unsafe_get a (dtype_index ty)

(* the operator families, indexed by the operator's position in
   [Op.all_binops] / [Op.all_unops]: one array read per token *)
let binop_index : Op.binop -> int = function
  | Plus -> 0 | Minus -> 1 | Mul -> 2 | Div -> 3 | Mod -> 4 | And -> 5
  | Or -> 6 | Xor -> 7 | Lsh -> 8 | Rsh -> 9 | Udiv -> 10 | Umod -> 11
  | Rminus -> 12 | Rdiv -> 13 | Rmod -> 14 | Rlsh -> 15 | Rrsh -> 16

let unop_index : Op.unop -> int = function Neg -> 0 | Com -> 1

let op_families index name ops =
  let a = Array.make (List.length ops) [||] in
  List.iter (fun op -> a.(index op) <- family (name op)) ops;
  a

let binop =
  let families = op_families binop_index Op.binop_name Op.all_binops in
  fun op ty ->
    Array.unsafe_get (Array.unsafe_get families (binop_index op))
      (dtype_index ty)

let unop =
  let families = op_families unop_index Op.unop_name Op.all_unops in
  fun op ty ->
    Array.unsafe_get (Array.unsafe_get families (unop_index op))
      (dtype_index ty)

let assign = typed_tbl "Assign"
let rassign = typed_tbl "Rassign"
let indir = typed_tbl "Indir"
let name_ = typed_tbl "Name"
let temp = typed_tbl "Temp"
let dreg = typed_tbl "Dreg"
let autoinc = typed_tbl "Autoinc"
let autodec = typed_tbl "Autodec"
let const = typed_tbl "Const"
let fconst = typed_tbl "Fconst"
let addr = typed_tbl "Addr"

let cvt =
  let tbl =
    Array.map
      (fun from ->
        Array.map
          (fun to_ -> "Cvt." ^ Dtype.suffix from ^ Dtype.suffix to_)
          dtypes)
      dtypes
  in
  fun ~from ~to_ ->
    Array.unsafe_get (Array.unsafe_get tbl (dtype_index from))
      (dtype_index to_)

let cbranch = "Cbranch"
let cmp = typed_tbl "Cmp"
let label = "Label"
let arg = typed_tbl "Arg"

let special_const =
  (* prebuilt [Some] families so the lineariser's hit path is
     allocation free *)
  let opt_family base = Array.map Option.some (family base) in
  let zero = opt_family "Zero"
  and one = opt_family "One"
  and two = opt_family "Two"
  and four = opt_family "Four"
  and eight = opt_family "Eight" in
  fun ty n ->
    if Dtype.is_float ty then None
    else
      let pick a = Array.unsafe_get a (dtype_index ty) in
      match Int64.to_int n with
      | 0 -> pick zero
      | 1 -> pick one
      | 2 -> pick two
      | 4 -> pick four
      | 8 -> pick eight
      | _ -> None

(* One prefix walk, matching on the constructors directly: no
   children list is built, and [emit] is called once per token with the
   caller's own state [acc], so a caller that passes a top-level [emit]
   allocates nothing per tree. *)
let rec walk ~special_constants emit acc (t : Tree.t) =
  match t with
  | Const (ty, n) -> (
    match if special_constants then special_const ty n else None with
    | Some s -> emit acc s t
    | None -> emit acc (const ty) t)
  | Fconst (ty, _) -> emit acc (fconst ty) t
  | Name (ty, _) -> emit acc (name_ ty) t
  | Temp (ty, _) -> emit acc (temp ty) t
  | Dreg (ty, _) -> emit acc (dreg ty) t
  | Autoinc (ty, _) -> emit acc (autoinc ty) t
  | Autodec (ty, _) -> emit acc (autodec ty) t
  | Indir (ty, e) ->
    emit acc (indir ty) t;
    walk ~special_constants emit acc e
  | Addr e ->
    emit acc (addr (Tree.dtype e)) t;
    walk ~special_constants emit acc e
  | Unop (op, ty, e) ->
    emit acc (unop op ty) t;
    walk ~special_constants emit acc e
  | Conv (to_, from, e) ->
    emit acc (cvt ~from ~to_) t;
    walk ~special_constants emit acc e
  | Arg (ty, e) ->
    emit acc (arg ty) t;
    walk ~special_constants emit acc e
  | Binop (op, ty, a, b) ->
    emit acc (binop op ty) t;
    walk ~special_constants emit acc a;
    walk ~special_constants emit acc b
  | Assign (ty, a, b) ->
    emit acc (assign ty) t;
    walk ~special_constants emit acc a;
    walk ~special_constants emit acc b
  | Rassign (ty, a, b) ->
    emit acc (rassign ty) t;
    walk ~special_constants emit acc a;
    walk ~special_constants emit acc b
  | Cbranch (_, _, ty, a, b, _) ->
    emit acc cbranch t;
    emit acc (cmp ty) t;
    walk ~special_constants emit acc a;
    walk ~special_constants emit acc b;
    emit acc label t
  | Call _ ->
    invalid_arg "Termname.walk: Call trees are lowered before matching"
  | Land _ | Lor _ | Lnot _ | Select _ | Relval _ ->
    invalid_arg
      "Termname.walk: short-circuit/selection operators are rewritten by \
       Phase 1a before matching"

type token = { term : string; node : Tree.t }

let linearize ?(special_constants = true) tree =
  let buf = ref [] in
  walk ~special_constants
    (fun buf term node -> buf := { term; node } :: !buf)
    buf tree;
  List.rev !buf

let pp_token ppf { term; node = _ } = Fmt.string ppf term
