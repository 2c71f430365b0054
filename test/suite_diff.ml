(* The differential harness: every program is executed three ways —
   reference interpreter on the IR, the table-driven backend's output
   under the VAX simulator, and the PCC-style backend's output under
   the simulator — and all observables (return value, final scalar
   globals, print output) must agree.

   This is the reproduction of the paper's correctness claim ("our code
   generator produces code that passes validation suites", section 8),
   with the simulator standing in for the hardware. *)

open Gg_ir
module Driver = Gg_codegen.Driver
module Pcc = Gg_pcc.Pcc
module Targets = Gg_targets.Targets
module Oracle = Gg_fuzz.Oracle

let simulate = Targets.run_text ~target:Gg_codegen.Backend.Vax

(* one comparison for all observables; on mismatch the message names
   the differing observable (a global by name, the return value, or
   the print output) instead of an opaque boolean *)
let check_observations name bname ~reference out =
  match Oracle.compare_observations ~reference out with
  | Ok () -> ()
  | Error detail -> Alcotest.failf "%s/%s: %s" name bname detail

let check_program ?(options = Driver.default_options) name prog =
  let reference =
    try Interp.run ~max_steps:10_000_000 prog ~entry:"main" []
    with Interp.Runtime_error m -> Alcotest.failf "%s: interpreter: %s" name m
  in
  let run_backend bname assembly =
    let out =
      try
        simulate ~max_steps:40_000_000 assembly
          ~global_types:prog.Tree.globals ~entry:"main" []
      with
      | Targets.Sim_error m -> Alcotest.failf "%s/%s: simulator: %s" name bname m
      | Targets.Parse_error (l, m) ->
        Alcotest.failf "%s/%s: asm parse error line %d: %s" name bname l m
    in
    check_observations name bname ~reference out
  in
  run_backend "gg" (Driver.compile_program ~options prog).Driver.assembly;
  run_backend "pcc" (Pcc.compile_program prog).Pcc.assembly

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
  (* "the idiom recogniser is optional in the sense that if it were
     omitted, correct code would still be generated" (section 5.3.2) *)
  let options = { Driver.default_options with Driver.idioms = false } in
  for seed = 41 to 55 do
    check_program ~options (Fmt.str "noidiom-%d" seed) (random_prog seed)
  done

let test_random_corpus_no_reverse_ops () =
  (* the reverse-operator machinery off: grammar without R* patterns and
     ordering phase forbidden to swap non-commutative operands *)
  let gopts = { Gg_vax.Grammar_def.default with Gg_vax.Grammar_def.reverse_ops = false } in
  let options =
    {
      Driver.default_options with
      Driver.grammar = gopts;
      transform =
        { Gg_transform.Transform.default_options with
          Gg_transform.Transform.reverse_ops = false };
    }
  in
  let tables = Driver.build_tables gopts in
  for seed = 56 to 65 do
    let prog = random_prog seed in
    let name = Fmt.str "norev-%d" seed in
    let reference = Interp.run ~max_steps:10_000_000 prog ~entry:"main" [] in
    let out =
      simulate ~max_steps:40_000_000
        (Driver.compile_program ~options ~tables prog).Driver.assembly
        ~global_types:prog.Tree.globals ~entry:"main" []
    in
    check_observations name "gg" ~reference out
  done

let test_random_corpus_with_peephole () =
  (* the section 6.1 alternative organisation: peephole on both
     backends, still observationally equal to the interpreter *)
  let options = { Driver.default_options with Driver.peephole = true } in
  for seed = 80 to 95 do
    let prog = random_prog seed in
    let name = Fmt.str "peephole-%d" seed in
    let reference = Interp.run ~max_steps:10_000_000 prog ~entry:"main" [] in
    let check bname asm =
      check_observations name bname ~reference
        (simulate ~max_steps:40_000_000 asm
           ~global_types:prog.Tree.globals ~entry:"main" [])
    in
    check "gg+peephole" (Driver.compile_program ~options prog).Driver.assembly;
    check "pcc+peephole" (Pcc.compile_program ~peephole:true prog).Pcc.assembly
  done

let test_typed_tree_corpus () =
  (* direct IR programs with byte/word/float arithmetic and the full
     conversion cross product — paths C's promotion rules never take *)
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

(* -- arithmetic edge cases ------------------------------------------------ *)

(* hand-built IR programs aimed at the corners where two's-complement,
   shift and float->int semantics are easiest to get wrong; the
   three-way oracle pins interpreter and simulator to the same answer *)

let edge_globals =
  [
    ("gb", Dtype.Byte, 1);
    ("gw", Dtype.Word, 2);
    ("gl", Dtype.Long, 4);
    ("gl2", Dtype.Long, 4);
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

let interp_globals prog =
  (Interp.run ~max_steps:1_000_000 prog ~entry:"main" []).Interp.globals

let check_global prog name expect =
  match List.assoc_opt name (interp_globals prog) with
  | Some (Interp.VInt v) -> Alcotest.(check int64) name expect v
  | Some (Interp.VFloat _) -> Alcotest.failf "%s: float where int expected" name
  | None -> Alcotest.failf "global %s missing" name

let test_edge_div_overflow () =
  (* most-negative / -1 overflows two's complement at every width; both
     executions must wrap identically rather than trap or disagree *)
  List.iter
    (fun (name, ty, gname, minv) ->
      (* the dividend flows through a global so neither backend can
         constant-fold the division away *)
      let prog =
        edge_program
          [
            assign ty gname (k ty minv);
            assign ty gname (binop Op.Div ty (g ty gname) (k ty (-1L)));
          ]
      in
      check_global prog gname minv;
      check_program name prog)
    [
      ("divmin-byte", Dtype.Byte, "gb", -128L);
      ("divmin-word", Dtype.Word, "gw", -32768L);
      ("divmin-long", Dtype.Long, "gl", -2147483648L);
    ]

let test_edge_remainder_sign () =
  (* truncated division: the remainder takes the sign of the dividend *)
  List.iter
    (fun (name, a, b, expect) ->
      let prog =
        edge_program
          [
            assign Dtype.Long "gl" (k Dtype.Long a);
            assign Dtype.Long "gl"
              (binop Op.Mod Dtype.Long (g Dtype.Long "gl") (k Dtype.Long b));
          ]
      in
      check_global prog "gl" expect;
      check_program name prog)
    [
      ("rem-neg-pos", -7L, 3L, -1L);
      ("rem-pos-neg", 7L, -3L, 1L);
      ("rem-neg-neg", -7L, -3L, -1L);
      ("rem-min-minus1", -2147483648L, -1L, 0L);
    ]

let test_edge_shift_counts () =
  (* counts at and beyond the operand width (but within the simulator's
     64-bit datapath); includes arithmetic right shifts of negatives *)
  let cases =
    [
      ("lsh-31", Op.Lsh, 1L, 31L);
      ("lsh-32", Op.Lsh, 1L, 32L);
      ("lsh-33", Op.Lsh, -1L, 33L);
      ("lsh-63", Op.Lsh, 5L, 63L);
      ("rsh-31", Op.Rsh, -2147483648L, 31L);
      ("rsh-32", Op.Rsh, -1L, 32L);
      ("rsh-63", Op.Rsh, -2147483648L, 63L);
    ]
  in
  List.iter
    (fun (name, op, x, c) ->
      let prog =
        edge_program
          [
            assign Dtype.Long "gl" (k Dtype.Long x);
            assign Dtype.Long "gl"
              (binop op Dtype.Long (g Dtype.Long "gl") (k Dtype.Long c));
          ]
      in
      check_program name prog)
    cases;
  (* byte-width operand shifted by counts >= 8: the value wraps to the
     byte on every store but the shift itself happens at full width *)
  List.iter
    (fun (name, x, c) ->
      let prog =
        edge_program
          [
            assign Dtype.Byte "gb" (k Dtype.Byte x);
            assign Dtype.Byte "gb"
              (binop Op.Lsh Dtype.Byte (g Dtype.Byte "gb") (k Dtype.Byte c));
          ]
      in
      check_program name prog)
    [ ("byte-lsh-8", 3L, 8L); ("byte-lsh-9", -1L, 9L) ]

let test_edge_float_to_int () =
  (* VAX cvt truncates toward zero; out-of-range and NaN inputs must
     still give the same (wrapped) bit pattern in both executions *)
  let conv_case name f dst_ty dst =
    let prog =
      edge_program
        [
          assign Dtype.Dbl "gd" (Tree.Fconst (Dtype.Dbl, f));
          assign dst_ty dst (Tree.Conv (dst_ty, Dtype.Dbl, g Dtype.Dbl "gd"));
        ]
    in
    check_program name prog
  in
  conv_case "cvt-frac" 2.75 Dtype.Long "gl";
  conv_case "cvt-neg-frac" (-2.75) Dtype.Long "gl";
  conv_case "cvt-out-of-range" 1e18 Dtype.Long "gl";
  conv_case "cvt-neg-out-of-range" (-1e18) Dtype.Long "gl";
  conv_case "cvt-word-wrap" 123456.0 Dtype.Word "gw";
  (* NaN produced at run time (0/0) so no backend can fold it *)
  let nan_prog =
    edge_program
      [
        assign Dtype.Dbl "gd"
          (binop Op.Div Dtype.Dbl
             (Tree.Fconst (Dtype.Dbl, 0.0))
             (Tree.Fconst (Dtype.Dbl, 0.0)));
        assign Dtype.Long "gl" (Tree.Conv (Dtype.Long, Dtype.Dbl, g Dtype.Dbl "gd"));
      ]
  in
  check_program "cvt-nan" nan_prog

let suite =
  [
    Alcotest.test_case "fixed programs, both backends" `Quick
      test_fixed_programs;
    Alcotest.test_case "edge: min_int / -1 at every width" `Quick
      test_edge_div_overflow;
    Alcotest.test_case "edge: remainder sign" `Quick test_edge_remainder_sign;
    Alcotest.test_case "edge: shift counts at/beyond width" `Quick
      test_edge_shift_counts;
    Alcotest.test_case "edge: float->int truncation, overflow, NaN" `Quick
      test_edge_float_to_int;
    Alcotest.test_case "random corpus, both backends" `Slow test_random_corpus;
    Alcotest.test_case "random corpus without idioms" `Slow
      test_random_corpus_no_idioms;
    Alcotest.test_case "random corpus without reverse ops" `Slow
      test_random_corpus_no_reverse_ops;
    Alcotest.test_case "typed tree corpus (byte/word/float paths)" `Slow
      test_typed_tree_corpus;
    Alcotest.test_case "random corpus with peephole" `Slow
      test_random_corpus_with_peephole;
    Alcotest.test_case "larger programs" `Slow test_larger_programs;
  ]
