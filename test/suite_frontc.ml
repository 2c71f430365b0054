(* Tests for the mini-C front end: lexer, parser, semantic checks, and
   the shapes of the lowered IR (they must match what the machine
   grammar's patterns expect). *)

open Gg_ir
open Gg_frontc
module T = Tree

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let value = Alcotest.testable Interp.pp_value Interp.value_equal

(* -- lexer ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let lx = Lexer.create "int x = 0x1f + 2.5; // comment\nif(x){}" in
  let rec drain acc =
    match Lexer.next lx with
    | Lexer.EOF -> List.rev acc
    | t -> drain (t :: acc)
  in
  match drain [] with
  | Lexer.KW "int" :: Lexer.IDENT "x" :: Lexer.PUNCT "=" :: Lexer.INT 31L
    :: Lexer.PUNCT "+" :: Lexer.FLOAT 2.5 :: Lexer.PUNCT ";" :: Lexer.KW "if"
    :: _ ->
    ()
  | ts -> Alcotest.failf "unexpected tokens: %a" Fmt.(list ~sep:sp Lexer.pp_token) ts

let test_lexer_longest_match () =
  let lx = Lexer.create "a <<= b << c <= d" in
  let rec puncts acc =
    match Lexer.next lx with
    | Lexer.EOF -> List.rev acc
    | Lexer.PUNCT p -> puncts (p :: acc)
    | _ -> puncts acc
  in
  Alcotest.(check (list string)) "operators" [ "<<="; "<<"; "<=" ] (puncts [])

let test_lexer_error () =
  match Lexer.create "int @" with
  | exception Lexer.Lex_error (1, _) -> ()
  | lx -> (
    match Lexer.next lx with
    | exception Lexer.Lex_error (1, _) -> ()
    | _ -> (
      match Lexer.next lx with
      | exception Lexer.Lex_error (1, _) -> ()
      | _ -> Alcotest.fail "@ accepted"))

let drain_tokens src =
  let lx = Lexer.create src in
  let rec go acc =
    match Lexer.next lx with Lexer.EOF -> List.rev acc | t -> go (t :: acc)
  in
  go []

let tokens = Alcotest.testable Fmt.(list ~sep:sp Lexer.pp_token) ( = )

let c_keywords =
  [
    "char"; "short"; "int"; "long"; "unsigned"; "float"; "double"; "void";
    "if"; "else"; "while"; "do"; "for"; "return"; "break"; "continue";
    "register";
  ]

let c_puncts =
  [
    "<<="; ">>="; "=="; "!="; "<="; ">="; "&&"; "||"; "++"; "--"; "+="; "-=";
    "*="; "/="; "%="; "&="; "|="; "^="; "<<"; ">>"; "+"; "-"; "*"; "/"; "%";
    "&"; "|"; "^"; "~"; "!"; "<"; ">"; "="; "("; ")"; "{"; "}"; "["; "]";
    ";"; ","; "?"; ":";
  ]

(* Reference maximal munch over punctuators only: at each position take
   the longest punctuator that is a prefix, after the comment openers
   the lexer gives priority to.  [None] is a lexical error (an
   unterminated block comment). *)
let munch s =
  let n = String.length s in
  let prefix_at i p =
    i + String.length p <= n && String.sub s i (String.length p) = p
  in
  let rec go i acc =
    if i >= n then Some (List.rev acc)
    else if prefix_at i "/*" then None
    else if prefix_at i "//" then Some (List.rev acc)
    else
      let p =
        List.fold_left
          (fun best p ->
            if prefix_at i p && String.length p > String.length best then p
            else best)
          "" c_puncts
      in
      go (i + String.length p) (Lexer.PUNCT p :: acc)
  in
  go 0 []

let test_lexer_every_token () =
  List.iter
    (fun k ->
      Alcotest.check tokens k [ Lexer.KW k ] (drain_tokens k);
      (* a keyword is only a keyword as a whole word *)
      Alcotest.check tokens (k ^ "_1") [ Lexer.IDENT (k ^ "_1") ]
        (drain_tokens (k ^ "_1")))
    c_keywords;
  List.iter
    (fun p -> Alcotest.check tokens p [ Lexer.PUNCT p ] (drain_tokens p))
    c_puncts;
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          let s = p ^ q in
          let got =
            match drain_tokens s with
            | toks -> Some toks
            | exception Lexer.Lex_error (1, _) -> None
          in
          Alcotest.(check (option tokens)) s (munch s) got)
        c_puncts)
    c_puncts;
  let id x = Lexer.IDENT x and op p = Lexer.PUNCT p in
  List.iter
    (fun (src, expected) ->
      Alcotest.check tokens src expected (drain_tokens src))
    [
      ("a+++b", [ id "a"; op "++"; op "+"; id "b" ]);
      ("x<<=y", [ id "x"; op "<<="; id "y" ]);
      ("a-->b", [ id "a"; op "--"; op ">"; id "b" ]);
      ("a&&&b", [ id "a"; op "&&"; op "&"; id "b" ]);
      ("a<<<b", [ id "a"; op "<<"; op "<"; id "b" ]);
      ("x>>>=y", [ id "x"; op ">>"; op ">="; id "y" ]);
      ("a!==b", [ id "a"; op "!="; op "="; id "b" ]);
      ("a/ /b", [ id "a"; op "/"; op "/"; id "b" ]);
      ("a//b\n-c", [ id "a"; op "-"; id "c" ]);
    ]

let test_lexer_integer_range () =
  List.iter
    (fun (src, n) ->
      Alcotest.check tokens src [ Lexer.INT n ] (drain_tokens src))
    [
      ("9223372036854775807", Int64.max_int);
      ("0x7fffffffffffffff", Int64.max_int);
      ("0x8000000000000000", Int64.min_int);
      ("0xffffffffffffffff", -1L);
      ("0X00000000000000000000ff", 255L);
      ("000000000000000000000042", 42L);
    ];
  List.iter
    (fun lit ->
      let src = "int main() {\n  return " ^ lit ^ ";\n}" in
      match Parser.parse_program src with
      | exception Lexer.Lex_error (line, m) ->
        check_int (lit ^ " line") 2 line;
        Alcotest.(check string) lit "integer literal out of range" m
      | _ -> Alcotest.failf "%s accepted" lit)
    [
      "99999999999999999999"; "9223372036854775808"; "0x10000000000000000";
      "0xffffffffffffffff0";
    ]

(* -- parser ----------------------------------------------------------------- *)

let test_parser_precedence () =
  match Parser.parse_expr "1 + 2 * 3" with
  | Ast.Ebin (Ast.Badd, Ast.Eint 1L, Ast.Ebin (Ast.Bmul, Ast.Eint 2L, Ast.Eint 3L)) ->
    ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parser_assoc_right_assign () =
  match Parser.parse_expr "a = b = 1" with
  | Ast.Eassign (Ast.Evar "a", Ast.Eassign (Ast.Evar "b", Ast.Eint 1L)) -> ()
  | _ -> Alcotest.fail "assignment associativity wrong"

let test_parser_ternary_and_logic () =
  match Parser.parse_expr "a && b ? !c : d || e" with
  | Ast.Econd (Ast.Ebin (Ast.Bland, _, _), Ast.Eun (Ast.Unot, _),
               Ast.Ebin (Ast.Blor, _, _)) ->
    ()
  | _ -> Alcotest.fail "ternary shape wrong"

let test_parser_postfix_chain () =
  match Parser.parse_expr "a[i]++" with
  | Ast.Epostincr (true, Ast.Eindex (Ast.Evar "a", Ast.Evar "i")) -> ()
  | _ -> Alcotest.fail "postfix chain wrong"

let test_parser_cast () =
  match Parser.parse_expr "(double) x" with
  | Ast.Ecast (Ast.Tdouble, Ast.Evar "x") -> ()
  | _ -> Alcotest.fail "cast not parsed"

let test_parser_program_shapes () =
  let p =
    Parser.parse_program
      "int g; char buf[10];\nint f(int a, double d) { int x; x = a; return x; }"
  in
  match p with
  | [ Ast.Dglobal ("g", Ast.Tint);
      Ast.Dglobal ("buf", Ast.Tarray (Ast.Tchar, 10));
      Ast.Dfunc f ] ->
    check_int "params" 2 (List.length f.Ast.params);
    check_int "locals" 1 (List.length f.Ast.locals);
    (* the parser interleaves Sline provenance markers with the
       statements proper: both statements sit on source line 2 *)
    let marks, stmts =
      List.partition (function Ast.Sline _ -> true | _ -> false) f.Ast.body
    in
    check_int "stmts" 2 (List.length stmts);
    List.iter
      (function Ast.Sline n -> check_int "line mark" 2 n | _ -> ())
      marks
  | _ -> Alcotest.fail "program shape wrong"

let test_parser_error_reports_line () =
  match Parser.parse_program "int f() {\n  return 1 +;\n}" with
  | exception Parser.Parse_error (2, _) -> ()
  | exception Parser.Parse_error (n, _) -> Alcotest.failf "wrong line %d" n
  | _ -> Alcotest.fail "junk accepted"

(* C's binary operators by precedence row, tightest first, every row
   left-associative, written out independently of the parser's table. *)
let c_binary_rows =
  Ast.
    [
      [ ("*", Bmul); ("/", Bdiv); ("%", Bmod) ];
      [ ("+", Badd); ("-", Bsub) ];
      [ ("<<", Bshl); (">>", Bshr) ];
      [ ("<", Blt); ("<=", Ble); (">", Bgt); (">=", Bge) ];
      [ ("==", Beq); ("!=", Bne) ];
      [ ("&", Band) ];
      [ ("^", Bxor) ];
      [ ("|", Bor) ];
      [ ("&&", Bland) ];
      [ ("||", Blor) ];
    ]

let expr = Alcotest.testable (fun ppf _ -> Fmt.string ppf "<expr>") ( = )

let test_parser_binary_pairs () =
  let ops =
    List.concat
      (List.mapi (fun row ops -> List.map (fun (p, b) -> (p, b, row)) ops)
         c_binary_rows)
  in
  check_int "operators" 18 (List.length ops);
  let a = Ast.Evar "a" and b = Ast.Evar "b" and c = Ast.Evar "c" in
  List.iter
    (fun (p1, b1, row1) ->
      List.iter
        (fun (p2, b2, row2) ->
          let src = Fmt.str "a %s b %s c" p1 p2 in
          let expected =
            if row1 <= row2 then Ast.Ebin (b2, Ast.Ebin (b1, a, b), c)
            else Ast.Ebin (b1, a, Ast.Ebin (b2, b, c))
          in
          Alcotest.check expr src expected (Parser.parse_expr src))
        ops)
    ops

(* Parse outcomes of the random corpus and of truncated and byte-mutated
   copies of it: the AST, or the error's kind, line and message.  The
   digest was recorded with the earlier list-scanning lexer and the
   one-function-per-level expression parser; a front end that parses
   any of these inputs differently changes it. *)
let test_parser_golden_outcomes () =
  let outcome src =
    match Parser.parse_program src with
    | ast -> "ok " ^ Marshal.to_string ast [ Marshal.No_sharing ]
    | exception Lexer.Lex_error (l, m) -> Fmt.str "lex %d %s" l m
    | exception Parser.Parse_error (l, m) -> Fmt.str "parse %d %s" l m
    | exception e -> "exn " ^ Printexc.to_string e
  in
  let bytes = "+-*/%&|^<>=!~?:;,(){}[]0123456789xX.aZ_ \n\t@#$'\"\\" in
  let inputs seed =
    let src = Corpus.random_source ~seed ~functions:2 ~stmts_per_function:6 in
    let n = String.length src in
    let truncate k = String.sub src 0 (n * k / 6) in
    let mutate k =
      let b = Bytes.of_string src in
      Bytes.set b
        ((seed * 7919 + (k * 104729)) mod n)
        bytes.[(seed * 31 + (k * 17)) mod String.length bytes];
      Bytes.to_string b
    in
    (src :: List.init 5 (fun k -> truncate (k + 1))) @ List.init 5 mutate
  in
  let digests = Buffer.create 4096 in
  let kinds = Hashtbl.create 4 in
  for seed = 0 to 500 do
    List.iter
      (fun src ->
        let o = outcome src in
        let kind = String.sub o 0 (String.index o ' ') in
        Hashtbl.replace kinds kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt kinds kind));
        Buffer.add_string digests (Digest.string o))
      (inputs seed)
  done;
  let count k = Option.value ~default:0 (Hashtbl.find_opt kinds k) in
  check_int "parsed" 1026 (count "ok");
  check_int "lexical errors" 365 (count "lex");
  check_int "syntax errors" 4120 (count "parse");
  Alcotest.(check string)
    "outcome digest" "cb58a3b4cbf07fbb0ca4a9f42f3db35a"
    (Digest.to_hex (Digest.string (Buffer.contents digests)))

(* -- sema / lowering ---------------------------------------------------------- *)

let lower src = Sema.compile src

let main_body src =
  let p = lower src in
  (List.find (fun (f : T.func) -> f.T.fname = "main") p.T.funcs).T.body

let test_sema_local_addressing () =
  (* locals must lower to Indir (Plus Const Dreg-fp), the Appendix shape *)
  let body = main_body "int main() { int x; x = 5; return x; }" in
  check_bool "fp-relative store" true
    (List.exists
       (function
         | T.Stree
             (T.Assign
                (_, T.Indir (_, T.Binop (Op.Plus, _, T.Const _, T.Dreg (_, 13))),
                 _)) ->
           true
         | _ -> false)
       body)

let test_sema_param_addressing () =
  let p = lower "int f(int a) { return a; }" in
  let f = List.hd p.T.funcs in
  check_bool "ap-relative load" true
    (List.exists
       (function
         | T.Stree
             (T.Assign
                (_, T.Dreg _,
                 T.Indir (_, T.Binop (Op.Plus, _, T.Const (_, 4L), T.Dreg (_, 12))))) ->
           true
         | _ -> false)
       f.T.body)

let test_sema_array_shape () =
  (* global array indexing must produce the symindex pattern shape:
     Plus (Addr Name) (Mul Const idx) *)
  let body = main_body "int arr[8]; int main() { int i; i = 2; return arr[i]; }" in
  check_bool "symbolic index shape" true
    (List.exists
       (function
         | T.Stree
             (T.Assign
                (_, T.Dreg _,
                 T.Indir
                   (_, T.Binop (Op.Plus, _, T.Addr (T.Name _),
                                T.Binop (Op.Mul, _, T.Const (_, 4L), _))))) ->
           true
         | _ -> false)
       body)

let test_sema_char_promotion () =
  (* char arithmetic promotes to long with conversions *)
  let body = main_body "char c; int main() { return c + 1; }" in
  check_bool "conversion inserted" true
    (List.exists
       (function
         | T.Stree t ->
           T.fold
             (fun acc n ->
               acc
               || match n with T.Conv (Dtype.Long, Dtype.Byte, _) -> true | _ -> false)
             false t
         | _ -> false)
       body)

let test_sema_unsigned_ops () =
  let body = main_body "unsigned u; int main() { u = u / 3; return 0; }" in
  check_bool "unsigned division operator" true
    (List.exists
       (function
         | T.Stree t ->
           T.fold
             (fun acc n ->
               acc || match n with T.Binop (Op.Udiv, _, _, _) -> true | _ -> false)
             false t
         | _ -> false)
       body)

let test_sema_array_bounds () =
  let expect_error name src =
    match lower src with
    | exception Sema.Semantic_error m ->
      check_bool (src ^ " names " ^ name) true
        (String.starts_with ~prefix:("array " ^ name ^ " ") m)
    | _ -> Alcotest.failf "accepted: %s" src
  in
  expect_error "a" "int main() { int a[0]; a[0] = 1; return 0; }";
  expect_error "g" "int g[0]; int main() { g[0] = 1; return 0; }";
  expect_error "a" "int main() { int a[99999999999]; return 0; }";
  expect_error "g" "int g[99999999999]; int main() { return 0; }";
  expect_error "w" "int main() { int w[0xffffffffffffffff]; return 0; }";
  expect_error "b" "int b[536870912]; int main() { return 0; }";
  (* the largest object that fits is still accepted *)
  ignore (lower "char c[2147483647]; int main() { return 0; }")

let test_sema_errors () =
  let expect_error src =
    match lower src with
    | exception Sema.Semantic_error _ -> ()
    | _ -> Alcotest.failf "accepted: %s" src
  in
  expect_error "int main() { return x; }";
  expect_error "int main() { return f(1); }";
  expect_error "int a; int main() { return *a; }";
  expect_error "int main() { 1 = 2; return 0; }";
  expect_error "int arr[4]; int main() { arr = 0; return 0; }";
  expect_error "int main() { break; return 0; }"

(* -- end-to-end under the interpreter ------------------------------------------ *)

let run_main ?(args = []) src = Interp.run (lower src) ~entry:"main" args

let test_exec_controlflow () =
  let out =
    run_main
      {|
int main() {
  int i; int s; s = 0;
  for (i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; }
  do { s++; } while (s < 26);
  while (s > 20) { s -= 2; if (s == 22) break; }
  return s;
}
|}
  in
  (* sum of odds < 10 = 25; do-loop to 26; while: 24, 22 break *)
  Alcotest.check value "control flow" (Interp.VInt 22L) out.Interp.return_value

let test_exec_short_circuit_effects () =
  let out =
    run_main
      {|
int calls;
int bump() { calls++; return 1; }
int main() {
  calls = 0;
  if (0 && bump()) calls += 100;
  if (1 || bump()) calls += 10;
  if (1 && bump()) calls += 1;
  return calls;
}
|}
  in
  (* bump called once: 10 + 1 + 1 = 12 *)
  Alcotest.check value "short circuit" (Interp.VInt 12L) out.Interp.return_value

let test_exec_pointers () =
  let out =
    run_main
      {|
int a[4];
int main() {
  int *p; int s; int i;
  for (i = 0; i < 4; i++) a[i] = i + 1;
  p = &a[1];
  s = *p + p[1] + *(p + 2);
  return s;
}
|}
  in
  Alcotest.check value "pointer arithmetic" (Interp.VInt 9L) out.Interp.return_value

let test_exec_float_mix () =
  let out =
    run_main
      {|
double d; float f;
int main() {
  int i;
  f = 0.5;
  d = 0.0;
  for (i = 0; i < 4; i++) d = d + f * i;
  return (int) (d * 2.0);
}
|}
  in
  (* d = 0.5*(0+1+2+3) = 3.0; return 6 *)
  Alcotest.check value "float mix" (Interp.VInt 6L) out.Interp.return_value

let test_exec_postincr_value () =
  let out =
    run_main
      {|
int main() {
  int i; int a; int b;
  i = 5;
  a = i++;
  b = ++i;
  return a * 100 + b * 10 + i;
}
|}
  in
  (* a=5, b=7, i=7 *)
  Alcotest.check value "incr values" (Interp.VInt 577L) out.Interp.return_value

let test_exec_compound_assign () =
  let out =
    run_main
      {|
int main() {
  int x;
  x = 10;
  x += 5; x -= 3; x *= 2; x /= 4; x %= 4; x <<= 3; x |= 1; x ^= 2; x &= 30;
  return x;
}
|}
  in
  (* 10+5=15-3=12*2=24/4=6%4=2<<3=16|1=17^2=19&30=18 *)
  Alcotest.check value "compound ops" (Interp.VInt 18L) out.Interp.return_value

let test_exec_args () =
  let out =
    run_main ~args:[ Interp.VInt 6L; Interp.VInt 7L ]
      "int main(int a, int b) { return a * b; }"
  in
  Alcotest.check value "6*7" (Interp.VInt 42L) out.Interp.return_value

let test_register_variable_lowering () =
  let p = lower "int main() { register int r; r = 5; return r + 1; }" in
  let f = List.hd p.T.funcs in
  check_bool "Dreg leaf appears" true
    (List.exists
       (function
         | T.Stree t ->
           T.fold
             (fun acc n ->
               acc || match n with T.Dreg (_, 11) -> true | _ -> false)
             false t
         | _ -> false)
       f.T.body);
  (* register is only a hint: doubles fall back to the frame *)
  let p2 = lower "int main() { register double d; d = 1.0; return (int) d; }" in
  let f2 = List.hd p2.T.funcs in
  check_bool "double register var falls back to memory" true
    (f2.T.locals_size >= 8)

let test_register_autoincrement_lowering () =
  let body =
    main_body
      "int a[4]; int main() { register int *p; int s; p = &a[0]; s = *p++; \
       return s; }"
  in
  check_bool "Autoinc node generated" true
    (List.exists
       (function
         | T.Stree t ->
           T.fold
             (fun acc n -> acc || match n with T.Autoinc _ -> true | _ -> false)
             false t
         | _ -> false)
       body)

let test_address_of_register_rejected () =
  match lower "int main() { register int r; return (int) &r; }" with
  | exception Sema.Semantic_error _ -> ()
  | _ -> Alcotest.fail "address of register variable accepted"

let test_corpus_generation_deterministic () =
  let p1 = Corpus.program ~seed:3 ~functions:2 ~stmts_per_function:8 in
  let p2 = Corpus.program ~seed:3 ~functions:2 ~stmts_per_function:8 in
  check_bool "same program for same seed" true (p1 = p2);
  let p3 = Corpus.program ~seed:4 ~functions:2 ~stmts_per_function:8 in
  check_bool "different seed differs" true (p1 <> p3)

let test_corpus_programs_terminate () =
  for seed = 200 to 210 do
    let prog =
      Sema.lower_program (Corpus.program ~seed ~functions:2 ~stmts_per_function:8)
    in
    match Interp.run ~max_steps:2_000_000 prog ~entry:"main" [] with
    | _ -> ()
    | exception Interp.Runtime_error m ->
      Alcotest.failf "seed %d: %s" seed m
  done

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer longest match" `Quick test_lexer_longest_match;
    Alcotest.test_case "lexer error" `Quick test_lexer_error;
    Alcotest.test_case "lexer every token and pair" `Quick
      test_lexer_every_token;
    Alcotest.test_case "lexer integer range" `Quick test_lexer_integer_range;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "assignment right-assoc" `Quick
      test_parser_assoc_right_assign;
    Alcotest.test_case "ternary and logic" `Quick test_parser_ternary_and_logic;
    Alcotest.test_case "postfix chain" `Quick test_parser_postfix_chain;
    Alcotest.test_case "cast" `Quick test_parser_cast;
    Alcotest.test_case "program shapes" `Quick test_parser_program_shapes;
    Alcotest.test_case "parse error line" `Quick test_parser_error_reports_line;
    Alcotest.test_case "binary operator pairs" `Quick test_parser_binary_pairs;
    Alcotest.test_case "golden parse outcomes" `Quick
      test_parser_golden_outcomes;
    Alcotest.test_case "local addressing shape" `Quick
      test_sema_local_addressing;
    Alcotest.test_case "param addressing shape" `Quick
      test_sema_param_addressing;
    Alcotest.test_case "array indexing shape" `Quick test_sema_array_shape;
    Alcotest.test_case "char promotion" `Quick test_sema_char_promotion;
    Alcotest.test_case "unsigned operators" `Quick test_sema_unsigned_ops;
    Alcotest.test_case "semantic errors" `Quick test_sema_errors;
    Alcotest.test_case "array dimension bounds" `Quick test_sema_array_bounds;
    Alcotest.test_case "control flow" `Quick test_exec_controlflow;
    Alcotest.test_case "short-circuit side effects" `Quick
      test_exec_short_circuit_effects;
    Alcotest.test_case "pointers" `Quick test_exec_pointers;
    Alcotest.test_case "float arithmetic" `Quick test_exec_float_mix;
    Alcotest.test_case "post/pre increment values" `Quick
      test_exec_postincr_value;
    Alcotest.test_case "compound assignment" `Quick test_exec_compound_assign;
    Alcotest.test_case "main with arguments" `Quick test_exec_args;
    Alcotest.test_case "register variable lowering" `Quick
      test_register_variable_lowering;
    Alcotest.test_case "register autoincrement lowering" `Quick
      test_register_autoincrement_lowering;
    Alcotest.test_case "address of register rejected" `Quick
      test_address_of_register_rejected;
    Alcotest.test_case "corpus deterministic" `Quick
      test_corpus_generation_deterministic;
    Alcotest.test_case "corpus terminates" `Quick
      test_corpus_programs_terminate;
  ]
