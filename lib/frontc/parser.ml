open Ast

exception Parse_error of int * string

let error lx fmt =
  Fmt.kstr (fun s -> raise (Parse_error (Lexer.line lx, s))) fmt

let is_punct lx p =
  match Lexer.peek lx with Lexer.PUNCT q -> String.equal p q | _ -> false

let expect_punct lx p =
  let line = Lexer.line lx in
  match Lexer.next lx with
  | Lexer.PUNCT q when String.equal p q -> ()
  | got ->
    raise
      (Parse_error
         ( line,
           Fmt.str "expected %a but found %a" Lexer.pp_token (Lexer.PUNCT p)
             Lexer.pp_token got ))

let accept_punct lx p =
  if is_punct lx p then begin
    ignore (Lexer.next lx);
    true
  end
  else false

let ident lx =
  let line = Lexer.line lx in
  match Lexer.next lx with
  | Lexer.IDENT s -> s
  | got ->
    raise
      (Parse_error
         (line, Fmt.str "expected an identifier, found %a" Lexer.pp_token got))

(* -- types ----------------------------------------------------------------- *)

let is_type_kw = function
  | "char" | "short" | "int" | "long" | "unsigned" | "float" | "double"
  | "register" | "void" ->
    true
  | _ -> false

let starts_type lx =
  match Lexer.peek lx with Lexer.KW k -> is_type_kw k | _ -> false

(* [long] is a synonym for [int]; [void] is only meaningful as a return
   type.  Returns the storage class alongside the type. *)
let parse_base_type_storage lx =
  let rec words acc =
    match Lexer.peek lx with
    | Lexer.KW k when is_type_kw k ->
      ignore (Lexer.next lx);
      words (k :: acc)
    | _ -> List.rev acc
  in
  let ws = words [] in
  let storage = if List.mem "register" ws then Register else Auto in
  let ty =
    match List.filter (fun w -> w <> "register") ws with
  | [ "char" ] -> Tchar
  | [ "short" ] | [ "short"; "int" ] -> Tshort
  | [ "int" ] | [ "long" ] | [ "long"; "int" ] -> Tint
  | [ "unsigned" ] | [ "unsigned"; "int" ] | [ "unsigned"; "long" ] -> Tuint
  | [ "float" ] -> Tfloat
  | [ "double" ] -> Tdouble
    | [ "void" ] -> Tint (* void functions: return value unused *)
    | ws -> error lx "unsupported type: %s" (String.concat " " ws)
  in
  (ty, storage)

let parse_base_type lx = fst (parse_base_type_storage lx)

let parse_declarator lx base =
  let rec stars ty = if accept_punct lx "*" then stars (Tptr ty) else ty in
  let ty = stars base in
  let name = ident lx in
  let ty =
    if accept_punct lx "[" then begin
      match Lexer.next lx with
      | Lexer.INT n ->
        expect_punct lx "]";
        Tarray (ty, Int64.to_int n)
      | got -> error lx "expected an array size, found %a" Lexer.pp_token got
    end
    else ty
  in
  (name, ty)

(* -- expressions ------------------------------------------------------------ *)

(* Binary operators by precedence, loosest first; every level is
   left-associative. *)
let binary = function
  | "||" -> Some (Blor, 1)
  | "&&" -> Some (Bland, 2)
  | "|" -> Some (Bor, 3)
  | "^" -> Some (Bxor, 4)
  | "&" -> Some (Band, 5)
  | "==" -> Some (Beq, 6)
  | "!=" -> Some (Bne, 6)
  | "<" -> Some (Blt, 7)
  | "<=" -> Some (Ble, 7)
  | ">" -> Some (Bgt, 7)
  | ">=" -> Some (Bge, 7)
  | "<<" -> Some (Bshl, 8)
  | ">>" -> Some (Bshr, 8)
  | "+" -> Some (Badd, 9)
  | "-" -> Some (Bsub, 9)
  | "*" -> Some (Bmul, 10)
  | "/" -> Some (Bdiv, 10)
  | "%" -> Some (Bmod, 10)
  | _ -> None

let compound_assign = function
  | "+=" -> Some Badd
  | "-=" -> Some Bsub
  | "*=" -> Some Bmul
  | "/=" -> Some Bdiv
  | "%=" -> Some Bmod
  | "&=" -> Some Band
  | "|=" -> Some Bor
  | "^=" -> Some Bxor
  | "<<=" -> Some Bshl
  | ">>=" -> Some Bshr
  | _ -> None

let rec parse_expr_top lx = parse_assignment lx

and parse_assignment lx =
  let lhs = parse_cond lx in
  match Lexer.peek lx with
  | Lexer.PUNCT "=" ->
    ignore (Lexer.next lx);
    Eassign (lhs, parse_assignment lx)
  | Lexer.PUNCT p -> (
    match compound_assign p with
    | Some op ->
      ignore (Lexer.next lx);
      Eopassign (op, lhs, parse_assignment lx)
    | None -> lhs)
  | _ -> lhs

and parse_cond lx =
  let c = parse_binary lx 1 in
  if accept_punct lx "?" then begin
    let a = parse_expr_top lx in
    expect_punct lx ":";
    let b = parse_cond lx in
    Econd (c, a, b)
  end
  else c

(* precedence climbing: operands bind operators of precedence >= [min] *)
and parse_binary lx min =
  let rec go lhs =
    match Lexer.peek lx with
    | Lexer.PUNCT p -> (
      match binary p with
      | Some (op, prec) when prec >= min ->
        ignore (Lexer.next lx);
        go (Ebin (op, lhs, parse_binary lx (prec + 1)))
      | _ -> lhs)
    | _ -> lhs
  in
  go (parse_unary lx)

and parse_unary lx =
  match Lexer.peek lx with
  | Lexer.PUNCT "-" ->
    ignore (Lexer.next lx);
    Eun (Uneg, parse_unary lx)
  | Lexer.PUNCT "~" ->
    ignore (Lexer.next lx);
    Eun (Ucom, parse_unary lx)
  | Lexer.PUNCT "!" ->
    ignore (Lexer.next lx);
    Eun (Unot, parse_unary lx)
  | Lexer.PUNCT "&" ->
    ignore (Lexer.next lx);
    Eaddr (parse_unary lx)
  | Lexer.PUNCT "*" ->
    ignore (Lexer.next lx);
    Ederef (parse_unary lx)
  | Lexer.PUNCT "++" ->
    ignore (Lexer.next lx);
    Epreincr (true, parse_unary lx)
  | Lexer.PUNCT "--" ->
    ignore (Lexer.next lx);
    Epreincr (false, parse_unary lx)
  | _ -> parse_postfix lx

and parse_postfix lx =
  let rec go acc =
    match Lexer.peek lx with
    | Lexer.PUNCT "[" ->
      ignore (Lexer.next lx);
      let i = parse_expr_top lx in
      expect_punct lx "]";
      go (Eindex (acc, i))
    | Lexer.PUNCT "++" ->
      ignore (Lexer.next lx);
      go (Epostincr (true, acc))
    | Lexer.PUNCT "--" ->
      ignore (Lexer.next lx);
      go (Epostincr (false, acc))
    | _ -> acc
  in
  go (parse_primary lx)

and parse_primary lx =
  let line = Lexer.line lx in
  match Lexer.next lx with
  | Lexer.INT n -> Eint n
  | Lexer.FLOAT f -> Efloat f
  | Lexer.IDENT name ->
    if accept_punct lx "(" then begin
      let args =
        if is_punct lx ")" then []
        else
          let rec go acc =
            let e = parse_assignment lx in
            if accept_punct lx "," then go (e :: acc) else List.rev (e :: acc)
          in
          go []
      in
      expect_punct lx ")";
      Ecall (name, args)
    end
    else Evar name
  | Lexer.PUNCT "(" ->
    if starts_type lx then begin
      (* cast *)
      let base = parse_base_type lx in
      let rec stars ty = if accept_punct lx "*" then stars (Tptr ty) else ty in
      let ty = stars base in
      expect_punct lx ")";
      Ecast (ty, parse_unary lx)
    end
    else begin
      let e = parse_expr_top lx in
      expect_punct lx ")";
      e
    end
  | got ->
    raise
      (Parse_error
         (line, Fmt.str "unexpected token %a in expression" Lexer.pp_token got))

(* -- statements -------------------------------------------------------------- *)

(* Every parsed statement is preceded by an [Sline] marker so the code
   generators can attribute emitted instructions to source lines
   ([ggcc --explain]).  Empty statements produce no marker. *)
let rec parse_stmt lx locals : stmt list =
  let line = Lexer.line lx in
  match parse_stmt_unmarked lx locals with
  | [] -> []
  | stmts -> Sline line :: stmts

and parse_stmt_unmarked lx locals : stmt list =
  match Lexer.peek lx with
  | Lexer.PUNCT "{" -> [ Sblock (parse_block lx locals) ]
  | Lexer.PUNCT ";" ->
    ignore (Lexer.next lx);
    []
  | Lexer.KW "if" ->
    ignore (Lexer.next lx);
    expect_punct lx "(";
    let cond = parse_expr_top lx in
    expect_punct lx ")";
    let then_ = parse_stmt lx locals in
    let else_ =
      match Lexer.peek lx with
      | Lexer.KW "else" ->
        ignore (Lexer.next lx);
        parse_stmt lx locals
      | _ -> []
    in
    [ Sif (cond, then_, else_) ]
  | Lexer.KW "while" ->
    ignore (Lexer.next lx);
    expect_punct lx "(";
    let cond = parse_expr_top lx in
    expect_punct lx ")";
    [ Swhile (cond, parse_stmt lx locals) ]
  | Lexer.KW "do" ->
    ignore (Lexer.next lx);
    let body = parse_stmt lx locals in
    (match Lexer.next lx with
    | Lexer.KW "while" -> ()
    | got -> error lx "expected while after do, found %a" Lexer.pp_token got);
    expect_punct lx "(";
    let cond = parse_expr_top lx in
    expect_punct lx ")";
    expect_punct lx ";";
    [ Sdo (body, cond) ]
  | Lexer.KW "for" ->
    ignore (Lexer.next lx);
    expect_punct lx "(";
    let init =
      if is_punct lx ";" then None else Some (parse_expr_top lx)
    in
    expect_punct lx ";";
    let cond =
      if is_punct lx ";" then None else Some (parse_expr_top lx)
    in
    expect_punct lx ";";
    let step =
      if is_punct lx ")" then None else Some (parse_expr_top lx)
    in
    expect_punct lx ")";
    [ Sfor (init, cond, step, parse_stmt lx locals) ]
  | Lexer.KW "return" ->
    ignore (Lexer.next lx);
    let e =
      if is_punct lx ";" then None else Some (parse_expr_top lx)
    in
    expect_punct lx ";";
    [ Sreturn e ]
  | Lexer.KW "break" ->
    ignore (Lexer.next lx);
    expect_punct lx ";";
    [ Sbreak ]
  | Lexer.KW "continue" ->
    ignore (Lexer.next lx);
    expect_punct lx ";";
    [ Scontinue ]
  | _ ->
    let e = parse_expr_top lx in
    expect_punct lx ";";
    [ Sexpr e ]

and parse_block lx locals : stmt list =
  expect_punct lx "{";
  let stmts = ref [] in
  (* declarations first, then statements; further declarations are also
     tolerated between statements and hoisted to function scope *)
  let rec go () =
    match Lexer.peek lx with
    | Lexer.PUNCT "}" -> ignore (Lexer.next lx)
    | _ when starts_type lx ->
      let line = Lexer.line lx in
      let base, storage = parse_base_type_storage lx in
      let rec decls () =
        let name, ty = parse_declarator lx base in
        locals := (name, ty, storage) :: !locals;
        (* an optional initialiser desugars to an assignment *)
        if accept_punct lx "=" then begin
          let v = parse_assignment lx in
          stmts := Sexpr (Eassign (Evar name, v)) :: Sline line :: !stmts
        end;
        if accept_punct lx "," then decls ()
      in
      decls ();
      expect_punct lx ";";
      go ()
    | _ ->
      List.iter (fun s -> stmts := s :: !stmts) (parse_stmt lx locals);
      go ()
  in
  go ();
  List.rev !stmts

(* -- top level ---------------------------------------------------------------- *)

let parse_program src =
  let lx = Lexer.create src in
  let decls = ref [] in
  let rec go () =
    match Lexer.peek lx with
    | Lexer.EOF -> ()
    | _ ->
      let base = parse_base_type lx in
      let name, ty = parse_declarator lx base in
      if is_punct lx "(" then begin
        ignore (Lexer.next lx);
        let params =
          if is_punct lx ")" then []
          else
            let rec go acc =
              let pbase = parse_base_type lx in
              let pname, pty = parse_declarator lx pbase in
              if accept_punct lx "," then go ((pname, pty) :: acc)
              else List.rev ((pname, pty) :: acc)
            in
            go []
        in
        expect_punct lx ")";
        let locals = ref [] in
        let body = parse_block lx locals in
        decls :=
          Dfunc
            { fname = name; ret = ty; params; locals = List.rev !locals; body }
          :: !decls;
        go ()
      end
      else begin
        decls := Dglobal (name, ty) :: !decls;
        let rec more () =
          if accept_punct lx "," then begin
            let name2, ty2 = parse_declarator lx base in
            decls := Dglobal (name2, ty2) :: !decls;
            more ()
          end
        in
        more ();
        expect_punct lx ";";
        go ()
      end
  in
  go ();
  List.rev !decls

let parse_expr src =
  let lx = Lexer.create src in
  let e = parse_expr_top lx in
  (match Lexer.peek lx with
  | Lexer.EOF -> ()
  | got -> error lx "trailing input: %a" Lexer.pp_token got);
  e
