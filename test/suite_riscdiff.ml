(* The cross-backend differential harness for the RISC target: every
   program is executed by the reference interpreter on the IR and by
   the RISC simulator on the table-driven RISC backend's output, and
   all observables (return value, final scalar globals, print output)
   must agree.

   This is the paper's retargeting claim made executable: the same
   table constructor and matcher, driven by a different machine
   description, must produce code with identical observable
   behaviour. *)

open Gg_ir
module Driver = Gg_codegen.Driver
module Targets = Gg_targets.Targets
module Oracle = Gg_fuzz.Oracle

let simulate = Targets.run_text ~target:Gg_codegen.Backend.Risc

let risc_tables =
  lazy
    (Driver.build_tables ~backend:Gg_risc.Target.backend
       Gg_risc.Grammar_def.default)

let check_observations name ~reference out =
  match Oracle.compare_observations ~reference out with
  | Ok () -> ()
  | Error detail -> Alcotest.failf "%s/risc: %s" name detail

let check_program ?(options = Driver.default_options) name prog =
  let reference =
    try Interp.run ~max_steps:10_000_000 prog ~entry:"main" []
    with Interp.Runtime_error m -> Alcotest.failf "%s: interpreter: %s" name m
  in
  let assembly =
    (Driver.compile_program ~options ~tables:(Lazy.force risc_tables) prog)
      .Driver.assembly
  in
  let out =
    try
      simulate ~max_steps:40_000_000 assembly
        ~global_types:prog.Tree.globals ~entry:"main" []
    with
    | Targets.Sim_error m -> Alcotest.failf "%s/risc: simulator: %s" name m
    | Targets.Parse_error (l, m) ->
      Alcotest.failf "%s/risc: asm parse error line %d: %s" name l m
  in
  check_observations name ~reference out

let test_fixed_programs () =
  List.iter
    (fun (name, src) -> check_program name (Gg_frontc.Sema.compile src))
    Gg_frontc.Corpus.fixed_programs

let random_prog seed =
  Gg_frontc.Sema.lower_program
    (Gg_frontc.Corpus.program ~seed ~functions:3 ~stmts_per_function:10)

let test_random_corpus () =
  for seed = 1 to 40 do
    check_program (Fmt.str "random-%d" seed) (random_prog seed)
  done

let test_random_corpus_no_idioms () =
  let options = { Driver.default_options with Driver.idioms = false } in
  for seed = 41 to 55 do
    check_program ~options (Fmt.str "noidiom-%d" seed) (random_prog seed)
  done

let test_typed_tree_corpus () =
  (* byte/word/float arithmetic and the full conversion cross product —
     exactly the corpus that exercises every typed emit rule *)
  for seed = 1 to 60 do
    check_program (Fmt.str "typed-%d" seed) (Gg_ir.Treegen.program ~seed ~stmts:25)
  done

let test_larger_programs () =
  for seed = 70 to 73 do
    check_program
      (Fmt.str "large-%d" seed)
      (Gg_frontc.Sema.lower_program
         (Gg_frontc.Corpus.program ~seed ~functions:6 ~stmts_per_function:25))
  done

(* -- arithmetic edge cases (mirrors suite_diff, under the RISC) ----------- *)

let edge_globals =
  [
    ("gb", Dtype.Byte, 1);
    ("gw", Dtype.Word, 2);
    ("gl", Dtype.Long, 4);
    ("gd", Dtype.Dbl, 8);
  ]

let edge_program stmts =
  {
    Tree.globals = edge_globals;
    funcs =
      [
        {
          Tree.fname = "main";
          formals = [];
          ret_type = Dtype.Long;
          locals_size = 0;
          body =
            stmts
            @ [
                Tree.Stree
                  (Tree.Assign
                     ( Dtype.Long,
                       Tree.Dreg (Dtype.Long, Regconv.r0),
                       Tree.const Dtype.Long 0L ));
                Tree.Sret;
              ];
        };
      ];
  }

let g ty name = Tree.Name (ty, name)
let k ty n = Tree.const ty n
let assign ty name e = Tree.Stree (Tree.Assign (ty, g ty name, e))
let binop op ty a b = Tree.Binop (op, ty, a, b)

let test_edge_div_overflow () =
  List.iter
    (fun (name, ty, gname, minv) ->
      check_program name
        (edge_program
           [
             assign ty gname (k ty minv);
             assign ty gname (binop Op.Div ty (g ty gname) (k ty (-1L)));
           ]))
    [
      ("divmin-byte", Dtype.Byte, "gb", -128L);
      ("divmin-word", Dtype.Word, "gw", -32768L);
      ("divmin-long", Dtype.Long, "gl", -2147483648L);
    ]

let test_edge_remainder_sign () =
  List.iter
    (fun (name, a, b) ->
      check_program name
        (edge_program
           [
             assign Dtype.Long "gl" (k Dtype.Long a);
             assign Dtype.Long "gl"
               (binop Op.Mod Dtype.Long (g Dtype.Long "gl") (k Dtype.Long b));
           ]))
    [
      ("rem-neg-pos", -7L, 3L);
      ("rem-pos-neg", 7L, -3L);
      ("rem-neg-neg", -7L, -3L);
      ("rem-min-minus1", -2147483648L, -1L);
    ]

let test_edge_shift_counts () =
  List.iter
    (fun (name, op, x, c) ->
      check_program name
        (edge_program
           [
             assign Dtype.Long "gl" (k Dtype.Long x);
             assign Dtype.Long "gl"
               (binop op Dtype.Long (g Dtype.Long "gl") (k Dtype.Long c));
           ]))
    [
      ("lsh-31", Op.Lsh, 1L, 31L);
      ("lsh-32", Op.Lsh, 1L, 32L);
      ("lsh-63", Op.Lsh, 5L, 63L);
      ("rsh-31", Op.Rsh, -2147483648L, 31L);
      ("rsh-32", Op.Rsh, -1L, 32L);
      ("rsh-63", Op.Rsh, -2147483648L, 63L);
    ]

let test_edge_unsigned_div () =
  (* Udiv/Umod are the one place the two targets diverge structurally:
     the VAX calls __udivl/__umodl support routines, the RISC has real
     divul/remul instructions — both must match the interpreter *)
  List.iter
    (fun (name, op, a, b) ->
      check_program name
        (edge_program
           [
             assign Dtype.Long "gl" (k Dtype.Long a);
             assign Dtype.Long "gl"
               (binop op Dtype.Long (g Dtype.Long "gl") (k Dtype.Long b));
           ]))
    [
      ("udiv-big", Op.Udiv, -1L, 7L);
      ("udiv-msb", Op.Udiv, -2147483648L, 2L);
      ("umod-big", Op.Umod, -1L, 10L);
      ("umod-msb", Op.Umod, -2L, 3L);
    ]

let test_edge_float_to_int () =
  let conv_case name f dst_ty dst =
    check_program name
      (edge_program
         [
           assign Dtype.Dbl "gd" (Tree.Fconst (Dtype.Dbl, f));
           assign dst_ty dst (Tree.Conv (dst_ty, Dtype.Dbl, g Dtype.Dbl "gd"));
         ])
  in
  conv_case "cvt-frac" 2.75 Dtype.Long "gl";
  conv_case "cvt-neg-frac" (-2.75) Dtype.Long "gl";
  conv_case "cvt-word-wrap" 123456.0 Dtype.Word "gw"

let suite =
  [
    Alcotest.test_case "fixed programs under the RISC" `Quick
      test_fixed_programs;
    Alcotest.test_case "edge: min_int / -1 at every width" `Quick
      test_edge_div_overflow;
    Alcotest.test_case "edge: remainder sign" `Quick test_edge_remainder_sign;
    Alcotest.test_case "edge: shift counts at/beyond width" `Quick
      test_edge_shift_counts;
    Alcotest.test_case "edge: unsigned divide and remainder" `Quick
      test_edge_unsigned_div;
    Alcotest.test_case "edge: float->int truncation" `Quick
      test_edge_float_to_int;
    Alcotest.test_case "random corpus under the RISC" `Slow test_random_corpus;
    Alcotest.test_case "random corpus without idioms" `Slow
      test_random_corpus_no_idioms;
    Alcotest.test_case "typed tree corpus (byte/word/float paths)" `Slow
      test_typed_tree_corpus;
    Alcotest.test_case "larger programs" `Slow test_larger_programs;
  ]
