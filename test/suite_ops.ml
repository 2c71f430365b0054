(* The per-op differential matrix: every operator constructor in
   Gg_ir.Op — all_binops, all_unops, all_relops — times every type it
   is defined on, one minimal program each, checked through the
   cross-backend oracle (reference interpreter vs every registered
   target's packed tables under that target's simulator).

   The table is enumerated from Op's own lists rather than hand-written
   cases, so adding an operator without a machine-description rule for
   some backend fails here by name instead of surfacing as a fuzz
   divergence.  This is the dsc shape: one generic op table, generated
   tests per op, per-backend implementations under test. *)

open Gg_ir
module Oracle = Gg_fuzz.Oracle
module Targets = Gg_targets.Targets

(* one engine per target: the default tables, shared process-wide *)
let engines = lazy (List.map Oracle.engine_for Targets.all)

let check name prog =
  match Oracle.check ~pcc:false ~engines:(Lazy.force engines) prog with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "%s: %a" name Oracle.pp_failure f
  | exception Oracle.Invalid m ->
    Alcotest.failf "%s: invalid generated program: %s" name m

(* -- the one-op program ---------------------------------------------------- *)

let int_types = [ Dtype.Byte; Dtype.Word; Dtype.Long ]
let float_types = [ Dtype.Flt; Dtype.Dbl ]
let all_types = int_types @ float_types

(* three globals per type: the two operands and the result *)
let global ty role = role ^ Dtype.suffix ty

let globals =
  List.concat_map
    (fun ty ->
      List.map (fun role -> (global ty role, ty, Dtype.size ty)) [ "a"; "b"; "r" ])
    all_types

let g ty role = Tree.Name (ty, global ty role)

let program stmts =
  {
    Tree.globals;
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

let set ty role v = Tree.Stree (Tree.Assign (ty, g ty role, v))
let iconst ty n = Tree.const ty n
let fconst ty f = Tree.Fconst (ty, f)

(* operand pairs: total for every operator (no zero divisors; shift
   counts exercise the negative/over-width conventions, which the IR
   defines for every count) *)
let int_pairs = [ (-7L, 3L); (13L, 5L); (-1L, 2L) ]
let float_pairs = [ (2.5, -0.75); (-3.25, 0.5) ]

(* -- binops ----------------------------------------------------------------- *)

let float_binops = [ Op.Plus; Op.Minus; Op.Rminus; Op.Mul; Op.Div; Op.Rdiv ]

(* shifts and unsigned div/mod follow the PCC promotion convention:
   both machine descriptions define them at Long only *)
let long_only = [ Op.Lsh; Op.Rsh; Op.Udiv; Op.Umod; Op.Rlsh; Op.Rrsh ]

(* a shift count outside [0, width) is undefined in the source language
   (as in C), and the backends genuinely diverge there — VAX ashl
   shifts the other way on a negative count — so the shift pairs keep
   the count in range in either operand position (the reversed forms
   take it from the left) *)
let shifts = [ Op.Lsh; Op.Rsh; Op.Rlsh; Op.Rrsh ]
let shift_pairs = [ (7L, 3L); (13L, 5L); (1L, 31L) ]

let check_binop op =
  List.iter
    (fun ty ->
      List.iter
        (fun (a, b) ->
          check
            (Fmt.str "%s.%s(%Ld,%Ld)" (Op.binop_name op) (Dtype.suffix ty) a b)
            (program
               [
                 set ty "a" (iconst ty a);
                 set ty "b" (iconst ty b);
                 set ty "r" (Tree.Binop (op, ty, g ty "a", g ty "b"));
               ]))
        (if List.mem op shifts then shift_pairs else int_pairs))
    (if List.mem op long_only then [ Dtype.Long ] else int_types);
  if List.mem op float_binops then
    List.iter
      (fun ty ->
        List.iter
          (fun (a, b) ->
            check
              (Fmt.str "%s.%s(%g,%g)" (Op.binop_name op) (Dtype.suffix ty) a b)
              (program
                 [
                   set ty "a" (fconst ty a);
                   set ty "b" (fconst ty b);
                   set ty "r" (Tree.Binop (op, ty, g ty "a", g ty "b"));
                 ]))
          float_pairs)
      float_types

(* -- unops ------------------------------------------------------------------ *)

let check_unop op =
  let types =
    match op with Op.Neg -> all_types | Op.Com -> int_types
  in
  List.iter
    (fun ty ->
      let operand, value =
        if Dtype.is_float ty then (fconst ty (-2.5), "-2.5")
        else (iconst ty (-7L), "-7")
      in
      check
        (Fmt.str "%s.%s(%s)" (Op.unop_name op) (Dtype.suffix ty) value)
        (program
           [
             set ty "a" operand;
             set ty "r" (Tree.Unop (op, ty, g ty "a"));
           ]))
    types

(* -- relops ----------------------------------------------------------------- *)

(* a Relval in value position; phase 1a lowers it to the Cbranch both
   backends' branch rules implement, so this exercises the full
   compare-and-branch path of each machine description.  (-1, 1) is the
   pair where signed and unsigned comparison disagree. *)
let check_relop rel =
  List.iter
    (fun sg ->
      List.iter
        (fun ty ->
          List.iter
            (fun (a, b) ->
              check
                (Fmt.str "%s.%s.%s(%Ld,%Ld)" (Op.relop_name rel)
                   (match sg with
                   | Dtype.Signed -> "s"
                   | Dtype.Unsigned -> "u")
                   (Dtype.suffix ty) a b)
                (program
                   [
                     set ty "a" (iconst ty a);
                     set ty "b" (iconst ty b);
                     set Dtype.Long "r"
                       (Tree.Relval (rel, sg, ty, g ty "a", g ty "b"));
                   ]))
            [ (-1L, 1L); (1L, -1L); (3L, 3L) ])
        int_types)
    [ Dtype.Signed; Dtype.Unsigned ];
  List.iter
    (fun ty ->
      List.iter
        (fun (a, b) ->
          check
            (Fmt.str "%s.%s(%g,%g)" (Op.relop_name rel) (Dtype.suffix ty) a b)
            (program
               [
                 set ty "a" (fconst ty a);
                 set ty "b" (fconst ty b);
                 set Dtype.Long "r"
                   (Tree.Relval (rel, Dtype.Signed, ty, g ty "a", g ty "b"));
               ]))
        [ (2.5, -0.75); (1.5, 1.5) ])
    float_types

(* -- the suite, generated from Op's own lists ------------------------------- *)

let suite =
  List.map
    (fun op ->
      Alcotest.test_case
        (Fmt.str "binop %s on every type" (Op.binop_name op))
        `Quick
        (fun () -> check_binop op))
    Op.all_binops
  @ List.map
      (fun op ->
        Alcotest.test_case
          (Fmt.str "unop %s on every type" (Op.unop_name op))
          `Quick
          (fun () -> check_unop op))
      Op.all_unops
  @ List.map
      (fun rel ->
        Alcotest.test_case
          (Fmt.str "relop %s signed/unsigned on every type" (Op.relop_name rel))
          `Quick
          (fun () -> check_relop rel))
      Op.all_relops
