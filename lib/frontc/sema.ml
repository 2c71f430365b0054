open Import
open Ast

exception Semantic_error of string

let error fmt = Fmt.kstr (fun s -> raise (Semantic_error s)) fmt

let rec sizeof = function
  | Tchar -> 1
  | Tshort -> 2
  | Tint | Tuint | Tptr _ -> 4
  | Tfloat -> 4
  | Tdouble -> 8
  | Tarray (t, n) -> sizeof t * n

let dtype_of_cty = function
  | Tchar -> Dtype.Byte
  | Tshort -> Dtype.Word
  | Tint | Tuint | Tptr _ -> Dtype.Long
  | Tfloat -> Dtype.Flt
  | Tdouble -> Dtype.Dbl
  | Tarray _ -> Dtype.Long (* decays; the element type is used at access *)

(* the type of a C value once loaded into an expression *)
let promoted = function
  | Tchar | Tshort | Tint -> Tint
  | Tuint -> Tuint
  | Tfloat | Tdouble -> Tdouble
  | Tptr t -> Tptr t
  | Tarray (t, _) -> Tptr t

let is_integer_cty = function
  | Tint | Tuint | Tchar | Tshort -> true
  | Tfloat | Tdouble | Tptr _ | Tarray _ -> false

let is_float_cty = function Tfloat | Tdouble -> true | _ -> false

(* -- environment ------------------------------------------------------------- *)

type var =
  | Vglobal of cty
  | Vlocal of cty * int  (** fp offset (positive; stored at -offset) *)
  | Vparam of cty * int  (** ap offset *)
  | Vregister of cty * int  (** register variable in a dedicated register *)

type env = {
  vars : (string, var) Hashtbl.t;
  funcs : (string, cty * cty list) Hashtbl.t;
  mutable next_temp : int;
}

(* -- helpers ------------------------------------------------------------------- *)

let long_const n = Tree.Const (Dtype.Long, n)

let fp_address off =
  (* canonical shape: Plus Const Dreg, as in the paper's Appendix *)
  Tree.Binop
    (Op.Plus, Dtype.Long, long_const (Int64.of_int (-off)),
     Tree.Dreg (Dtype.Long, Regconv.fp))

let ap_address off =
  Tree.Binop
    (Op.Plus, Dtype.Long, long_const (Int64.of_int off),
     Tree.Dreg (Dtype.Long, Regconv.ap))

(* convert a tree of IR type [from] to IR type [to_] *)
let convert ~to_ tree =
  let from = Tree.dtype tree in
  if Dtype.equal from to_ then tree
  else
    match tree with
    | Tree.Const (_, n) when Dtype.is_integer to_ ->
      (* retype integer literals directly *)
      Tree.const to_ n
    | Tree.Const (_, n) -> Tree.Fconst (to_, Int64.to_float n)
    | Tree.Fconst (_, f) when Dtype.is_float to_ -> Tree.Fconst (to_, f)
    | _ -> Tree.Conv (to_, from, tree)

(* the common type of a binary operation, classic C rules *)
let unify a b =
  match (a, b) with
  | Tdouble, _ | _, Tdouble | Tfloat, _ | _, Tfloat -> Tdouble
  | Tptr t, _ -> Tptr t
  | _, Tptr t -> Tptr t
  | Tuint, _ | _, Tuint -> Tuint
  | _ -> Tint

(* -- expression lowering ------------------------------------------------------ *)

(* a checked expression: its C type and the IR tree of its value *)
type value = { cty : cty; tree : Tree.t }

let fresh_temp env ty =
  let i = env.next_temp in
  env.next_temp <- i + 1;
  Tree.Temp (ty, i)

let relop_of = function
  | Beq -> Op.Eq
  | Bne -> Op.Ne
  | Blt -> Op.Lt
  | Ble -> Op.Le
  | Bgt -> Op.Gt
  | Bge -> Op.Ge
  | _ -> assert false

let is_relational = function
  | Beq | Bne | Blt | Ble | Bgt | Bge -> true
  | _ -> false

let arith_op ~unsigned = function
  | Badd -> Op.Plus
  | Bsub -> Op.Minus
  | Bmul -> Op.Mul
  | Bdiv -> if unsigned then Op.Udiv else Op.Div
  | Bmod -> if unsigned then Op.Umod else Op.Mod
  | Band -> Op.And
  | Bor -> Op.Or
  | Bxor -> Op.Xor
  | Bshl -> Op.Lsh
  | Bshr -> Op.Rsh
  | _ -> assert false

let rec lower_lvalue env (e : expr) : value =
  match e with
  | Evar name -> (
    match Hashtbl.find_opt env.vars name with
    | None -> error "undefined variable %s" name
    | Some (Vglobal ((Tarray _ | _) as cty)) -> (
      match cty with
      | Tarray _ -> error "array %s is not assignable" name
      | _ -> { cty; tree = Tree.Name (dtype_of_cty cty, name) })
    | Some (Vlocal (cty, off)) -> (
      match cty with
      | Tarray _ -> error "array %s is not assignable" name
      | _ -> { cty; tree = Tree.Indir (dtype_of_cty cty, fp_address off) })
    | Some (Vparam (cty, off)) ->
      { cty; tree = Tree.Indir (dtype_of_cty cty, ap_address off) }
    | Some (Vregister (cty, r)) ->
      { cty; tree = Tree.Dreg (dtype_of_cty cty, r) })
  (* autoincrement recognition (paper section 6.1): only a dedicated
     register that is the destination of a postfix increment or prefix
     decrement qualifies *)
  | Ederef (Epostincr (true, Evar p))
    when is_register_pointer env p <> None -> (
    match is_register_pointer env p with
    | Some (elt, r) -> { cty = elt; tree = Tree.Autoinc (dtype_of_cty elt, r) }
    | None -> assert false)
  | Ederef (Epreincr (false, Evar p))
    when is_register_pointer env p <> None -> (
    match is_register_pointer env p with
    | Some (elt, r) -> { cty = elt; tree = Tree.Autodec (dtype_of_cty elt, r) }
    | None -> assert false)
  | Ederef p ->
    let pv = lower_rvalue env p in
    (match pv.cty with
    | Tptr elt when not (is_array elt) ->
      { cty = elt; tree = Tree.Indir (dtype_of_cty elt, pv.tree) }
    | Tptr _ -> error "dereference of pointer to array"
    | _ -> error "dereference of a non-pointer")
  | Eindex (a, i) ->
    let addr, elt = element_address env a i in
    { cty = elt; tree = Tree.Indir (dtype_of_cty elt, addr) }
  | _ -> error "expression is not an lvalue"

and is_array = function Tarray _ -> true | _ -> false

and is_register_pointer env name =
  match Hashtbl.find_opt env.vars name with
  | Some (Vregister (Tptr elt, r)) when not (is_array elt) -> Some (elt, r)
  | _ -> None

(* address of a[i] plus the element type *)
and element_address env a i : Tree.t * cty =
  let av = lower_rvalue env a in
  let iv = lower_rvalue env i in
  let elt =
    match av.cty with
    | Tptr elt -> elt
    | _ -> error "indexing a non-pointer"
  in
  if not (is_integer_cty iv.cty) then error "array index is not an integer";
  let size = sizeof elt in
  let scaled =
    if size = 1 then iv.tree
    else
      Tree.Binop
        (Op.Mul, Dtype.Long, long_const (Int64.of_int size), iv.tree)
  in
  (Tree.Binop (Op.Plus, Dtype.Long, av.tree, scaled), elt)

(* the address of an lvalue expression (for & and for op=) *)
and lower_address env (e : expr) : value =
  match e with
  | Evar name -> (
    match Hashtbl.find_opt env.vars name with
    | None -> error "undefined variable %s" name
    | Some (Vglobal (Tarray (elt, _))) ->
      { cty = Tptr elt; tree = Tree.Addr (Tree.Name (dtype_of_cty elt, name)) }
    | Some (Vglobal cty) ->
      { cty = Tptr cty; tree = Tree.Addr (Tree.Name (dtype_of_cty cty, name)) }
    | Some (Vlocal (Tarray (elt, _), off)) ->
      { cty = Tptr elt; tree = fp_address off }
    | Some (Vlocal (cty, off)) -> { cty = Tptr cty; tree = fp_address off }
    | Some (Vparam (cty, off)) -> { cty = Tptr cty; tree = ap_address off }
    | Some (Vregister _) -> error "address of a register variable")
  | Ederef p ->
    let pv = lower_rvalue env p in
    (match pv.cty with
    | Tptr elt -> { cty = Tptr elt; tree = pv.tree }
    | _ -> error "dereference of a non-pointer")
  | Eindex (a, i) ->
    let addr, elt = element_address env a i in
    { cty = Tptr elt; tree = addr }
  | _ -> error "cannot take the address of this expression"

and lower_rvalue env (e : expr) : value =
  match e with
  | Eint n -> { cty = Tint; tree = long_const (Tree.wrap Dtype.Long n) }
  | Efloat f -> { cty = Tdouble; tree = Tree.Fconst (Dtype.Dbl, f) }
  | Evar name -> (
    match Hashtbl.find_opt env.vars name with
    | None -> error "undefined variable %s" name
    | Some (Vglobal (Tarray _)) | Some (Vlocal (Tarray _, _)) ->
      lower_address env e
    | Some (Vregister _) | Some _ ->
      let lv = lower_lvalue env e in
      let p = promoted lv.cty in
      { cty = p; tree = convert ~to_:(dtype_of_cty p) lv.tree })
  | Ederef _ | Eindex (_, _) ->
    let lv = lower_lvalue env e in
    let p = promoted lv.cty in
    { cty = p; tree = convert ~to_:(dtype_of_cty p) lv.tree }
  | Eaddr e -> lower_address env e
  | Eun (Uneg, e) ->
    let v = lower_rvalue env e in
    if is_float_cty v.cty then
      { cty = Tdouble; tree = Tree.Unop (Op.Neg, Dtype.Dbl, v.tree) }
    else if is_integer_cty v.cty then
      { cty = promoted v.cty; tree = Tree.Unop (Op.Neg, Dtype.Long, v.tree) }
    else error "negation of a pointer"
  | Eun (Ucom, e) ->
    let v = lower_rvalue env e in
    if not (is_integer_cty v.cty) then error "~ of a non-integer";
    { cty = promoted v.cty; tree = Tree.Unop (Op.Com, Dtype.Long, v.tree) }
  | Eun (Unot, e) ->
    let v = lower_rvalue env e in
    { cty = Tint; tree = Tree.Lnot v.tree }
  | Ebin (Bland, a, b) ->
    let av = lower_rvalue env a in
    let bv = lower_rvalue env b in
    { cty = Tint; tree = Tree.Land (av.tree, bv.tree) }
  | Ebin (Blor, a, b) ->
    let av = lower_rvalue env a in
    let bv = lower_rvalue env b in
    { cty = Tint; tree = Tree.Lor (av.tree, bv.tree) }
  | Ebin (op, a, b) when is_relational op ->
    let av = lower_rvalue env a in
    let bv = lower_rvalue env b in
    let common = unify av.cty bv.cty in
    let ty = dtype_of_cty common in
    let sg = if common = Tuint then Dtype.Unsigned else Dtype.Signed in
    {
      cty = Tint;
      tree =
        Tree.Relval
          (relop_of op, sg, ty, convert ~to_:ty av.tree, convert ~to_:ty bv.tree);
    }
  | Ebin (op, a, b) ->
    let av = lower_rvalue env a in
    let bv = lower_rvalue env b in
    lower_arith env op av bv
  | Eassign (lhs, rhs) ->
    let lv = lower_lvalue env lhs in
    let rv = lower_rvalue env rhs in
    check_assignable lv.cty rv.cty;
    let ty = dtype_of_cty lv.cty in
    {
      cty = lv.cty;
      tree = Tree.Assign (ty, lv.tree, convert ~to_:ty rv.tree);
    }
  | Eopassign (op, lhs, rhs) ->
    (* a op= b rewrites to a = a op b (paper section 6.5); impure
       destinations compute their address once through a temporary *)
    lower_rvalue env (expand_opassign env op lhs rhs)
  | Epreincr (up, lhs) ->
    lower_rvalue env
      (Eopassign ((if up then Badd else Bsub), lhs, Eint 1L))
  | Epostincr (up, lhs) ->
    (* x++ == (x = x + 1) - 1: the embedded assignment is extracted by
       Phase 1a with the stored value in a temporary *)
    let one = Eint 1L in
    if up then
      lower_rvalue env (Ebin (Bsub, Eopassign (Badd, lhs, one), one))
    else lower_rvalue env (Ebin (Badd, Eopassign (Bsub, lhs, one), one))
  | Econd (c, a, b) ->
    let cv = lower_rvalue env c in
    let av = lower_rvalue env a in
    let bv = lower_rvalue env b in
    let common = unify av.cty bv.cty in
    let ty = dtype_of_cty common in
    {
      cty = common;
      tree =
        Tree.Select
          (ty, cv.tree, convert ~to_:ty av.tree, convert ~to_:ty bv.tree);
    }
  | Ecall (name, args) ->
    let ret, formals =
      match Hashtbl.find_opt env.funcs name with
      | Some sig_ -> sig_
      | None when name = "print" -> (Tint, [ Tint ])
      | None -> error "call to undefined function %s" name
    in
    if name <> "print" && List.length args <> List.length formals then
      error "wrong number of arguments to %s" name;
    let lowered =
      List.map
        (fun arg ->
          let v = lower_rvalue env arg in
          (* arguments pass as longs or doubles *)
          if is_float_cty v.cty then convert ~to_:Dtype.Dbl v.tree
          else convert ~to_:Dtype.Long v.tree)
        args
    in
    { cty = promoted ret; tree = Tree.Call (dtype_of_cty (promoted ret), name, lowered) }
  | Ecast (to_cty, e) ->
    let v = lower_rvalue env e in
    let target = promoted to_cty in
    { cty = target; tree = convert ~to_:(dtype_of_cty target) v.tree }

and check_assignable lcty rcty =
  match (lcty, rcty) with
  | (Tchar | Tshort | Tint | Tuint | Tfloat | Tdouble),
    (Tchar | Tshort | Tint | Tuint | Tfloat | Tdouble) ->
    ()
  | Tptr _, (Tptr _ | Tint | Tuint) -> ()
  | (Tint | Tuint), Tptr _ -> ()
  | _ -> error "incompatible assignment"

and lower_arith env op (av : value) (bv : value) : value =
  match (av.cty, bv.cty, op) with
  | Tptr elt, _, (Badd | Bsub) when is_integer_cty bv.cty ->
    let size = sizeof elt in
    let scaled =
      if size = 1 then bv.tree
      else
        Tree.Binop (Op.Mul, Dtype.Long, long_const (Int64.of_int size), bv.tree)
    in
    let op = if op = Badd then Op.Plus else Op.Minus in
    { cty = Tptr elt; tree = Tree.Binop (op, Dtype.Long, av.tree, scaled) }
  | _, Tptr _, Badd when is_integer_cty av.cty ->
    lower_arith env op bv av
  | Tptr _, Tptr _, _ -> error "pointer arithmetic between two pointers"
  | _, _, _ ->
    let common = unify av.cty bv.cty in
    let ty = dtype_of_cty common in
    if is_float_cty common then begin
      (match op with
      | Badd | Bsub | Bmul | Bdiv -> ()
      | _ -> error "operator undefined on floats");
      {
        cty = Tdouble;
        tree =
          Tree.Binop
            (arith_op ~unsigned:false op, ty, convert ~to_:ty av.tree,
             convert ~to_:ty bv.tree);
      }
    end
    else begin
      let unsigned = common = Tuint in
      match (op, unsigned, bv.tree) with
      | Bshr, true, Tree.Const (_, k) when k >= 0L && k < 32L ->
        (* unsigned right shift by a constant: arithmetic shift then
           mask off the copied sign bits *)
        let shifted =
          Tree.Binop (Op.Rsh, Dtype.Long, convert ~to_:Dtype.Long av.tree,
                      long_const k)
        in
        let mask =
          Int64.shift_right_logical 0xffffffffL (Int64.to_int k)
        in
        {
          cty = Tuint;
          tree = Tree.Binop (Op.And, Dtype.Long, shifted, long_const (Tree.wrap Dtype.Long mask));
        }
      | _ ->
        {
          cty = common;
          tree =
            Tree.Binop
              (arith_op ~unsigned op, ty, convert ~to_:ty av.tree,
               convert ~to_:ty bv.tree);
        }
    end

(* rewrite a op= b into a = a op b, computing impure destination
   addresses only once *)
and expand_opassign env op lhs rhs : expr =
  let rec pure = function
    | Evar _ | Eint _ | Efloat _ -> true
    | Eindex (a, i) -> pure a && pure i
    | Ederef p -> pure p
    | Eaddr e -> pure e
    | Ebin (_, a, b) -> pure a && pure b
    | Eun (_, e) -> pure e
    | Ecast (_, e) -> pure e
    | _ -> false
  in
  ignore env;
  if pure lhs then Eassign (lhs, Ebin (op, lhs, rhs))
  else
    error
      "op-assign destination with side effects is not supported (assign the \
       address to a pointer first)"

(* -- statements ---------------------------------------------------------------- *)

type loop_labels = { l_break : Label.t; l_continue : Label.t }

type fctx = {
  env : env;
  labels : Label.gen;
  ret_cty : cty;
  mutable loops : loop_labels list;
}

let zero ty =
  if Dtype.is_float ty then Tree.Fconst (ty, 0.0) else Tree.Const (ty, 0L)

let lower_cond fc e ~target ~jump_if =
  (* branch to [target] when e is true (jump_if) or false *)
  let v = lower_rvalue fc.env e in
  let ty = Tree.dtype v.tree in
  let rel = if jump_if then Op.Ne else Op.Eq in
  [ Tree.Stree (Tree.Cbranch (rel, Dtype.Signed, ty, v.tree, zero ty, target)) ]

let rec lower_stmt fc (s : Ast.stmt) : Tree.stmt list =
  match s with
  | Sexpr (Epostincr (up, lhs)) | Sexpr (Epreincr (up, lhs)) ->
    (* in statement position the old value is dead: a plain op= avoids
       the temporary machinery and exposes the inc/dec idioms *)
    lower_stmt fc (Sexpr (Eopassign ((if up then Badd else Bsub), lhs, Eint 1L)))
  | Sexpr e -> (
    let v = lower_rvalue fc.env e in
    match v.tree with
    | Tree.Assign _ | Tree.Rassign _ | Tree.Call _ -> [ Tree.Stree v.tree ]
    | tree when tree_has_effects tree -> [ Tree.Stree (assign_to_scratch fc tree) ]
    | _ -> [] (* a pure expression statement computes nothing observable *))
  | Sblock body -> lower_stmts fc body
  | Sif (cond, then_, else_) ->
    let l_else = Label.fresh fc.labels in
    let test = lower_cond fc cond ~target:l_else ~jump_if:false in
    let then_code = lower_stmts fc then_ in
    if else_ = [] then test @ then_code @ [ Tree.Slabel l_else ]
    else begin
      let l_end = Label.fresh fc.labels in
      test @ then_code
      @ [ Tree.Sjump l_end; Tree.Slabel l_else ]
      @ lower_stmts fc else_
      @ [ Tree.Slabel l_end ]
    end
  | Swhile (cond, body) ->
    let l_top = Label.fresh fc.labels in
    let l_end = Label.fresh fc.labels in
    fc.loops <- { l_break = l_end; l_continue = l_top } :: fc.loops;
    let code =
      [ Tree.Slabel l_top ]
      @ lower_cond fc cond ~target:l_end ~jump_if:false
      @ lower_stmts fc body
      @ [ Tree.Sjump l_top; Tree.Slabel l_end ]
    in
    fc.loops <- List.tl fc.loops;
    code
  | Sdo (body, cond) ->
    let l_top = Label.fresh fc.labels in
    let l_cont = Label.fresh fc.labels in
    let l_end = Label.fresh fc.labels in
    fc.loops <- { l_break = l_end; l_continue = l_cont } :: fc.loops;
    let code =
      [ Tree.Slabel l_top ]
      @ lower_stmts fc body
      @ [ Tree.Slabel l_cont ]
      @ lower_cond fc cond ~target:l_top ~jump_if:true
      @ [ Tree.Slabel l_end ]
    in
    fc.loops <- List.tl fc.loops;
    code
  | Sfor (init, cond, step, body) ->
    let l_top = Label.fresh fc.labels in
    let l_cont = Label.fresh fc.labels in
    let l_end = Label.fresh fc.labels in
    let init_code =
      match init with None -> [] | Some e -> lower_stmt fc (Sexpr e)
    in
    let test =
      match cond with
      | None -> []
      | Some e -> lower_cond fc e ~target:l_end ~jump_if:false
    in
    let step_code =
      match step with None -> [] | Some e -> lower_stmt fc (Sexpr e)
    in
    fc.loops <- { l_break = l_end; l_continue = l_cont } :: fc.loops;
    let code =
      init_code
      @ [ Tree.Slabel l_top ]
      @ test
      @ lower_stmts fc body
      @ [ Tree.Slabel l_cont ]
      @ step_code
      @ [ Tree.Sjump l_top; Tree.Slabel l_end ]
    in
    fc.loops <- List.tl fc.loops;
    code
  | Sreturn None -> [ Tree.Sret ]
  | Sreturn (Some e) ->
    let v = lower_rvalue fc.env e in
    let rty = dtype_of_cty (promoted fc.ret_cty) in
    [
      Tree.Stree
        (Tree.Assign (rty, Tree.Dreg (rty, Regconv.r0), convert ~to_:rty v.tree));
      Tree.Sret;
    ]
  | Sbreak -> (
    match fc.loops with
    | { l_break; _ } :: _ -> [ Tree.Sjump l_break ]
    | [] -> error "break outside a loop")
  | Scontinue -> (
    match fc.loops with
    | { l_continue; _ } :: _ -> [ Tree.Sjump l_continue ]
    | [] -> error "continue outside a loop")
  | Sline n -> [ Tree.Sline n ]

and lower_stmts fc body = List.concat_map (lower_stmt fc) body

and tree_has_effects tree =
  Tree.fold
    (fun acc t ->
      acc
      ||
      match t with
      | Tree.Assign _ | Tree.Rassign _ | Tree.Call _ | Tree.Autoinc _
      | Tree.Autodec _ ->
        true
      | Tree.Binop ((Op.Div | Op.Mod | Op.Udiv | Op.Umod), _, _, _) ->
        true (* may trap *)
      | _ -> false)
    false tree

and assign_to_scratch fc tree =
  let ty = Tree.dtype tree in
  let tmp = fresh_temp fc.env ty in
  Tree.Assign (ty, tmp, tree)

(* -- program -------------------------------------------------------------------- *)

let align n a = (n + a - 1) / a * a

(* An array object needs at least one element, and its byte size must
   fit the 32-bit frame offsets and [.comm] sizes the targets emit. *)
let check_object name = function
  | Tarray (elt, n) ->
    if n < 1 then error "array %s has dimension %d, must be at least 1" name n;
    if n > 0x7fffffff / sizeof elt then
      error "array %s is too large: %d elements of %d bytes" name n
        (sizeof elt)
  | _ -> ()

let lower_func env (f : Ast.func) : Tree.func =
  let saved_vars = Hashtbl.copy env.vars in
  (* float parameters arrive as doubles (K&R) *)
  let params =
    List.map
      (fun (name, cty) ->
        match cty with
        | Tfloat -> (name, Tdouble)
        | Tarray (elt, _) -> (name, Tptr elt)
        | other -> (name, other))
      f.params
  in
  let ap_off = ref 4 in
  List.iter
    (fun (name, cty) ->
      Hashtbl.replace env.vars name (Vparam (cty, !ap_off));
      ap_off := !ap_off + (if sizeof cty > 4 then 8 else 4))
    params;
  let fp_off = ref 0 in
  (* register variables: a small pool of dedicated registers, assigned
     first come first served to 4-byte scalars declared [register]
     (PCC's conventions, paper section 5.3.3); the rest fall back to
     ordinary frame slots *)
  let reg_pool = ref [ 11; 10 ] in
  List.iter
    (fun (name, cty, storage) ->
      check_object name cty;
      let as_local () =
        let size = sizeof cty in
        let a = if size >= 8 then 8 else if size >= 4 then 4 else size in
        fp_off := align !fp_off a + size;
        Hashtbl.replace env.vars name (Vlocal (cty, !fp_off))
      in
      match (storage, cty, !reg_pool) with
      | Ast.Register, (Tint | Tuint | Tptr _), r :: rest ->
        reg_pool := rest;
        Hashtbl.replace env.vars name (Vregister (cty, r))
      | _ -> as_local ())
    f.locals;
  let fc =
    { env; labels = Label.gen (); ret_cty = f.ret; loops = [] }
  in
  let body = lower_stmts fc f.body in
  Hashtbl.reset env.vars;
  Hashtbl.iter (fun k v -> Hashtbl.replace env.vars k v) saved_vars;
  {
    Tree.fname = f.fname;
    formals =
      List.map (fun (n, cty) -> (n, dtype_of_cty (promoted cty))) params;
    ret_type = dtype_of_cty (promoted f.ret);
    locals_size = align !fp_off 4;
    body;
  }

let lower_program (decls : Ast.program) : Tree.program =
  let env =
    { vars = Hashtbl.create 64; funcs = Hashtbl.create 16; next_temp = 0 }
  in
  (* two passes so functions can call forward *)
  List.iter
    (fun d ->
      match d with
      | Dglobal (name, cty) ->
        if Hashtbl.mem env.vars name then error "duplicate global %s" name;
        check_object name cty;
        Hashtbl.replace env.vars name (Vglobal cty)
      | Dfunc f ->
        if Hashtbl.mem env.funcs f.fname then
          error "duplicate function %s" f.fname;
        Hashtbl.replace env.funcs f.fname
          (f.ret, List.map snd f.params))
    decls;
  let globals =
    List.filter_map
      (fun d ->
        match d with
        | Dglobal (name, cty) ->
          let elt =
            match cty with Tarray (e, _) -> e | other -> other
          in
          Some (name, dtype_of_cty elt, sizeof cty)
        | Dfunc _ -> None)
      decls
  in
  let funcs =
    List.filter_map
      (fun d ->
        match d with Dfunc f -> Some (lower_func env f) | Dglobal _ -> None)
      decls
  in
  { Tree.globals; funcs }

let compile src = lower_program (Parser.parse_program src)
