(* Golden tests for the table-driven code generator: instruction
   selection, idiom recognition (Fig. 3 walkthrough), addressing modes,
   bridges, branches, register management, and the Appendix trace. *)

open Gg_ir
module Driver = Gg_codegen.Driver
module Matcher = Gg_matcher.Matcher
module Insn = Gg_ir.Insn
module Mode = Gg_ir.Mode
module T = Tree

let nm s = T.Name (Dtype.Long, s)
let c n = T.Const (Dtype.Long, n)

let asm_of tree =
  List.filter_map
    (fun i -> match i with Insn.Comment _ -> None | _ -> Some (String.trim (Insn.assembly i)))
    (Driver.compile_tree tree)

let check_asm name expected tree =
  Alcotest.(check (list string)) name expected (asm_of tree)

(* the paper's Appendix expression: a := 27 + b (byte local b) *)
let appendix_tree =
  T.Assign
    ( Dtype.Long,
      nm "a",
      T.Binop
        ( Op.Plus, Dtype.Long,
          T.Const (Dtype.Byte, 27L),
          T.Conv
            ( Dtype.Long, Dtype.Byte,
              T.Indir
                ( Dtype.Byte,
                  T.Binop (Op.Plus, Dtype.Long, c (-4L),
                           T.Dreg (Dtype.Long, Regconv.fp)) ) ) ) )

let test_appendix_assembly () =
  check_asm "cvtbl then addl3"
    [ "cvtbl\t-4(fp),r6"; "addl3\t$27,r6,a" ]
    appendix_tree

let test_appendix_trace_shape () =
  let _, trace = Driver.compile_tree_traced appendix_tree in
  let shifts =
    List.filter_map
      (function Matcher.Sshift s -> Some s | _ -> None)
      trace
  in
  Alcotest.(check (list string)) "shift sequence"
    [ "Assign.l"; "Name.l"; "Plus.l"; "Const.b"; "Cvt.bl"; "Indir.b";
      "Plus.l"; "Const.l"; "Dreg.l" ]
    shifts;
  (match List.rev trace with
  | Matcher.Saccept :: _ -> ()
  | _ -> Alcotest.fail "no accept");
  let reduces =
    List.length (List.filter (function Matcher.Sreduce _ -> true | _ -> false) trace)
  in
  Alcotest.(check bool) "several reductions" true (reduces >= 8)

(* -- Fig. 3 idiom walkthrough ------------------------------------------------ *)

let test_add_three_address () =
  check_asm "addl3" [ "addl3\t$17,b,a" ]
    (T.Assign (Dtype.Long, nm "a", T.Binop (Op.Plus, Dtype.Long, c 17L, nm "b")))

let test_binding_idiom () =
  check_asm "addl2" [ "addl2\t$17,a" ]
    (T.Assign (Dtype.Long, nm "a", T.Binop (Op.Plus, Dtype.Long, nm "a", c 17L)))

let test_range_idiom_inc () =
  check_asm "incl" [ "incl\ta" ]
    (T.Assign (Dtype.Long, nm "a", T.Binop (Op.Plus, Dtype.Long, nm "a", c 1L)))

let test_range_idiom_dec () =
  check_asm "decl" [ "decl\ta" ]
    (T.Assign (Dtype.Long, nm "a", T.Binop (Op.Minus, Dtype.Long, nm "a", c 1L)))

let test_clr_idiom () =
  check_asm "clrl" [ "clrl\ta" ] (T.Assign (Dtype.Long, nm "a", c 0L))

let test_idioms_disabled () =
  let options = { Driver.default_options with Driver.idioms = false } in
  let insns =
    Driver.compile_tree ~options
      (T.Assign (Dtype.Long, nm "a", T.Binop (Op.Plus, Dtype.Long, nm "a", c 1L)))
  in
  (* without the idiom recogniser the full three-address form appears *)
  Alcotest.(check (list string)) "addl3 survives"
    [ "addl3\t$1,a,a" ]
    (List.map (fun i -> String.trim (Insn.assembly i)) insns)

let test_sub_operand_order () =
  (* subl3 subtrahend, minuend, dif *)
  check_asm "subl3" [ "subl3\tb,a,x" ]
    (T.Assign (Dtype.Long, nm "x", T.Binop (Op.Minus, Dtype.Long, nm "a", nm "b")))

let test_reverse_subtract () =
  (* Rminus a b computes b - a: operands arrive in evaluation order *)
  check_asm "reverse subl3" [ "subl3\ta,b,x" ]
    (T.Assign (Dtype.Long, nm "x", T.Binop (Op.Rminus, Dtype.Long, nm "a", nm "b")))

(* -- pseudo instructions ------------------------------------------------------- *)

let test_modulus_expansion () =
  check_asm "div/mul/sub" [ "divl3\tc,b,r6"; "mull2\tc,r6"; "subl3\tr6,b,a" ]
    (T.Assign (Dtype.Long, nm "a", T.Binop (Op.Mod, Dtype.Long, nm "b", nm "c")))

let test_and_with_mask () =
  check_asm "bic with complemented mask" [ "bicl3\t$-16,b,a" ]
    (T.Assign (Dtype.Long, nm "a", T.Binop (Op.And, Dtype.Long, nm "b", c 15L)))

let test_unsigned_division_library () =
  check_asm "library call"
    [ "pushl\tc"; "pushl\tb"; "calls\t$2,__udivl"; "movl\tr0,a" ]
    (T.Assign (Dtype.Long, nm "a", T.Binop (Op.Udiv, Dtype.Long, nm "b", nm "c")))

let test_right_shift_expansion () =
  check_asm "constant shift" [ "ashl\t$-3,b,a" ]
    (T.Assign (Dtype.Long, nm "a", T.Binop (Op.Rsh, Dtype.Long, nm "b", c 3L)))

(* -- addressing modes ----------------------------------------------------------- *)

let test_symbol_indexed () =
  check_asm "arr[rx]" [ "movl\ti,r6"; "movl\tarr[r6],x" ]
    (T.Assign (Dtype.Long, nm "x",
       T.Indir (Dtype.Long,
         T.Binop (Op.Plus, Dtype.Long, T.Addr (nm "arr"),
                  T.Binop (Op.Mul, Dtype.Long, c 4L, nm "i")))))

let test_disp_indexed_from_register () =
  check_asm "8(fp)[rx]" [ "movl\ti,r6"; "movl\t8(fp)[r6],x" ]
    (T.Assign (Dtype.Long, nm "x",
       T.Indir (Dtype.Long,
         T.Binop (Op.Plus, Dtype.Long, c 8L,
           T.Binop (Op.Plus, Dtype.Long, T.Dreg (Dtype.Long, Regconv.fp),
                    T.Binop (Op.Mul, Dtype.Long, c 4L, nm "i"))))))

let test_bridge_for_non_scale_multiplier () =
  (* 3 is not a hardware scale: the bridge production computes it *)
  check_asm "bridge" [ "mull3\t$3,i,r6"; "addl2\tp,r6"; "movl\t(r6),x" ]
    (T.Assign (Dtype.Long, nm "x",
       T.Indir (Dtype.Long,
         T.Binop (Op.Plus, Dtype.Long, nm "p",
                  T.Binop (Op.Mul, Dtype.Long, c 3L, nm "i")))))

let test_autoincrement_operands () =
  check_asm "both sides autoincrement" [ "addl3\t(r6)+,(r6)+,x" ]
    (T.Assign (Dtype.Long, nm "x",
       T.Binop (Op.Plus, Dtype.Long, T.Autoinc (Dtype.Long, 6),
                T.Autoinc (Dtype.Long, 6))))

(* -- branches (section 6.1) ------------------------------------------------------ *)

let test_compare_branch () =
  check_asm "cmp + jlss" [ "cmpl\ta,b"; "jlss\tL7" ]
    (T.Cbranch (Op.Lt, Dtype.Signed, Dtype.Long, nm "a", nm "b", 7))

let test_test_branch () =
  check_asm "tst + jneq" [ "tstl\ta"; "jneq\tL7" ]
    (T.Cbranch (Op.Ne, Dtype.Signed, Dtype.Long, nm "a", c 0L, 7))

let test_condition_codes_reused () =
  (* the computation sets the codes; no tst is emitted *)
  check_asm "add + jneq" [ "addl3\ta,b,r6"; "jneq\tL7" ]
    (T.Cbranch (Op.Ne, Dtype.Signed, Dtype.Long,
                T.Binop (Op.Plus, Dtype.Long, nm "a", nm "b"), c 0L, 7))

let test_dreg_needs_tst () =
  (* the reg <- Dreg chain emits no code, so the codes are stale: the
     dedicated-register bridge production forces a tst (section 6.2.1) *)
  check_asm "tst + jneq" [ "tstl\tr6"; "jneq\tL7" ]
    (T.Cbranch (Op.Ne, Dtype.Signed, Dtype.Long, T.Dreg (Dtype.Long, 6), c 0L, 7))

let test_unsigned_branch () =
  check_asm "jlssu" [ "cmpl\ta,b"; "jlssu\tL3" ]
    (T.Cbranch (Op.Lt, Dtype.Unsigned, Dtype.Long, nm "a", nm "b", 3))

let test_float_compare () =
  check_asm "cmpd" [ "cmpd\tx,$0f2.5"; "jgtr\tL1" ]
    (T.Cbranch (Op.Gt, Dtype.Signed, Dtype.Dbl, T.Name (Dtype.Dbl, "x"),
                T.Fconst (Dtype.Dbl, 2.5), 1))

(* -- conversions and moves --------------------------------------------------------- *)

let test_memory_to_memory_conversion () =
  check_asm "cvtwl direct" [ "cvtwl\tw,x" ]
    (T.Assign (Dtype.Long, nm "x",
               T.Conv (Dtype.Long, Dtype.Word, T.Name (Dtype.Word, "w"))))

let test_float_arith () =
  check_asm "subd2 via binding" [ "subd2\t$0f1.5,f" ]
    (T.Assign (Dtype.Dbl, T.Name (Dtype.Dbl, "f"),
       T.Binop (Op.Minus, Dtype.Dbl, T.Name (Dtype.Dbl, "f"),
                T.Fconst (Dtype.Dbl, 1.5))))

(* -- register management ------------------------------------------------------------ *)

let test_register_reuse () =
  (* sources are reclaimed for destinations: a deep chain should cycle
     through few registers *)
  let rec chain n = if n = 0 then nm "g" else
    T.Binop (Op.Plus, Dtype.Long, T.Binop (Op.Mul, Dtype.Long, nm "a", nm "b"), chain (n-1))
  in
  let insns = Driver.compile_tree (T.Assign (Dtype.Long, nm "x", chain 6)) in
  let regs_used =
    List.concat_map
      (fun i -> match i with
        | Insn.Insn (_, ops) -> List.concat_map Mode.registers ops
        | _ -> [])
      insns
    |> List.filter (fun r -> List.mem r Regconv.allocatable)
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check bool) "at most 3 registers" true (List.length regs_used <= 3)

let test_spill_and_reload () =
  (* a balanced divide tree needs more than six registers: spills must
     appear and the result must still be correct under the simulator *)
  let rec balanced n =
    if n = 0 then T.Binop (Op.Div, Dtype.Long, nm "a", nm "b")
    else T.Binop (Op.Minus, Dtype.Long, balanced (n - 1), balanced (n - 1))
  in
  let tree = T.Assign (Dtype.Long, nm "x", balanced 4) in
  let insns = Driver.compile_tree tree in
  Alcotest.(check bool) "compiles" true (List.length insns > 10)

let test_statement_sequence_register_clean () =
  (* compiling a multi-statement function must not leak registers
     between statements (Driver asserts this internally) *)
  let body =
    List.init 10 (fun i ->
        T.Stree
          (T.Assign (Dtype.Long, nm "x",
             T.Binop (Op.Mul, Dtype.Long, nm "a", c (Int64.of_int i)))))
  in
  let f = { T.fname = "f"; formals = []; ret_type = Dtype.Long;
            locals_size = 0; body } in
  let cf = Driver.compile_func (Lazy.force Driver.default_tables) f in
  Alcotest.(check bool) "compiled" true (List.length cf.Driver.cf_insns >= 10)

(* The Appendix trace, golden: the full printed action sequence. *)
let test_appendix_trace_golden () =
  let _, trace = Driver.compile_tree_traced appendix_tree in
  let g =
    Driver.grammar (Lazy.force Driver.default_tables)
  in
  let printed =
    Fmt.str "%a" (Matcher.pp_trace g) trace
    |> String.split_on_char '\n' |> List.map String.trim
  in
  Alcotest.(check (list string)) "golden trace"
    [
      "shift  Assign.l";
      "shift  Name.l";
      "reduce mem.l <- Name.l  [mode:name]  ; a";
      "reduce lval.l <- mem.l  [chain]";
      "shift  Plus.l";
      "shift  Const.b";
      "reduce imm.l <- Const.b  [mode:imm]  ; widened immediate";
      "reduce rval.l <- imm.l  [chain]";
      "shift  Cvt.bl";
      "shift  Indir.b";
      "shift  Plus.l";
      "shift  Const.l";
      "shift  Dreg.l";
      "reduce reg.l <- Dreg.l  [mode:dreg]  ; rn (no code)";
      "reduce ea.b <- Plus.l Const.l reg.l  [mode:disp]  ; d(rn)";
      "reduce mem.b <- Indir.b ea.b  [mode:indir]  ; *ea";
      "reduce rval.b <- mem.b  [chain]";
      "reduce reg.l <- Cvt.bl rval.b  [emit:cvt.bl]  ; cvt s,r";
      "reduce rval.l <- reg.l  [chain]";
      "reduce stmt <- Assign.l lval.l Plus.l rval.l rval.l  [emit:add.l]  ; \
       three-address, memory destination";
      "accept";
    ]
    printed

(* Section 6.2.1's over-factoring bug, reproduced as a live
   miscompilation: without the dedicated-register branch production the
   matcher uses the general [Branch Cmp reg Zero] pattern for a register
   variable, whose chain reduction emits no code — so the branch
   observes the condition codes of whatever instruction came before. *)
let test_621_condition_code_bug () =
  let src =
    {|
int a; int b; int x;
int main() {
  register int r;
  r = 0;
  a = 6; b = 7;
  x = a * b;
  if (r != 0) print(1); else print(0);
  return 0;
}
|}
  in
  let prog = Gg_frontc.Sema.compile src in
  let reference = Gg_ir.Interp.run prog ~entry:"main" [] in
  let outputs gopts =
    let options = { Driver.default_options with Driver.grammar = gopts } in
    let tables = Driver.build_tables gopts in
    let c = Driver.compile_program ~options ~tables prog in
    (Gg_targets.Targets.run_text ~target:Gg_codegen.Backend.Vax
       c.Driver.assembly ~global_types:prog.Gg_ir.Tree.globals ~entry:"main" [])
      .Gg_ir.Simout.output
  in
  Alcotest.(check (list string)) "fixed grammar is correct"
    reference.Gg_ir.Interp.output
    (outputs Gg_vax.Grammar_def.default);
  Alcotest.(check (list string)) "without the fix, the 1982 bug reappears"
    [ "1" ]
    (outputs
       { Gg_vax.Grammar_def.default with
         Gg_vax.Grammar_def.condition_code_fix = false })

(* -- semantic actions resolved per production ------------------------------ *)

module Semantics = Gg_codegen.Semantics
module Grammar = Gg_grammar.Grammar
module Action = Gg_grammar.Action
module Symtab = Gg_grammar.Symtab
module Insn_table = Gg_vax.Insn_table
module Vax_def = Gg_vax.Grammar_def
module Risc_sem = Gg_risc.Semantics

(* The string path the resolution replaced, kept as the oracle: split a
   key at its last '.', read a type from the suffix, look the cluster up
   by key. *)
let split_key key =
  match String.rindex_opt key '.' with
  | None -> (key, None)
  | Some i ->
    ( String.sub key 0 i,
      Some (String.sub key (i + 1) (String.length key - i - 1)) )

let lhs_type g (p : Grammar.production) =
  Option.bind
    (snd (split_key (Symtab.nonterm_name g.Grammar.symtab p.Grammar.lhs)))
    Dtype.of_suffix

(* a conversion key's suffix names source and result: the result *)
let suffix_type base suffix =
  match (base, suffix) with
  | "cvt", Some s when String.length s = 2 ->
    Dtype.of_suffix (String.make 1 s.[1])
  | "cvt", _ -> None
  | _, s -> Option.bind s Dtype.of_suffix

let mode_names =
  Semantics.
    [
      ("imm", Imm); ("fimm", Fimm); ("name", Name); ("temp", Temp);
      ("dreg", Dreg); ("autoinc", Autoinc); ("autodec", Autodec);
      ("indir", Indir); ("deferred", Deferred); ("absolute", Absolute);
      ("disp", Disp); ("symdisp", Symdisp); ("index", Index);
      ("dispindex", Dispindex); ("symindex", Symindex);
    ]

(* every resolved entry against the string path; [emit] checks the
   target's own payload *)
let check_resolution name g (actions : 'e Semantics.resolved array) emit =
  Alcotest.(check int) (name ^ ": one entry per production")
    (Grammar.n_productions g) (Array.length actions);
  Array.iteri
    (fun id (r : 'e Semantics.resolved) ->
      let p = Grammar.production g id in
      let what = Fmt.str "%s p%d %a" name id (Grammar.pp_production g) p in
      Alcotest.(check bool) (what ^ ": production") true (r.Semantics.prod == p);
      Alcotest.(check (option string)) (what ^ ": lhs type")
        (Option.map Dtype.suffix (lhs_type g p))
        (Option.map Dtype.suffix r.Semantics.lhs);
      match (p.Grammar.action, r.Semantics.action) with
      | (Action.Chain | Action.Start), Semantics.Pass -> ()
      | Action.Mode m, Semantics.Mode mode ->
        Alcotest.(check string) (what ^ ": base") m r.Semantics.base;
        Alcotest.(check bool) (what ^ ": mode") true
          (List.assoc_opt m mode_names = Some mode)
      | Action.Emit key, Semantics.Emit e ->
        let base, suffix = split_key key in
        Alcotest.(check string) (what ^ ": base") base r.Semantics.base;
        Alcotest.(check (option string)) (what ^ ": suffix type")
          (Option.map Dtype.suffix (suffix_type base suffix))
          (Option.map Dtype.suffix r.Semantics.sfx);
        emit what key base suffix e
      | _, _ -> Alcotest.failf "%s: action resolved to another kind" what)
    actions

let vax_emit what key base suffix (e : Semantics.vax_emit) =
  let same_cluster what want got =
    Alcotest.(check bool) (what ^ ": cluster rows") true (want = got)
  in
  same_cluster what (Insn_table.find key) e.Semantics.cluster;
  match e.Semantics.kind with
  | Semantics.Class impls ->
    Alcotest.(check string) (what ^ ": class base") "class" base;
    let sfx = Option.get suffix in
    List.iter
      (fun (op, impl) ->
        let op_key = Vax_def.cluster_of_binop op ^ "." ^ sfx in
        match (Insn_table.find op_key, impl) with
        | Some c, Semantics.Cluster c' -> same_cluster (what ^ " " ^ op_key) c c'
        | Some [ row ], Semantics.Pseudo _ ->
          Alcotest.(check char) (what ^ ": pseudo row") '_'
            row.Insn_table.print.[0]
        | _ -> Alcotest.failf "%s: %s resolved apart from the table" what op_key)
      impls;
    (* Plus, Mul, Or and Xor are the class's members *)
    List.iter
      (fun op ->
        Alcotest.(check bool) (what ^ ": class member") true
          (List.mem_assq op impls))
      [ Op.Plus; Op.Mul; Op.Or; Op.Xor ]
  | _ -> (
    match (e.Semantics.cluster, e.Semantics.impl) with
    | None, None -> ()
    | Some (row :: _), Some (Semantics.Pseudo _) ->
      Alcotest.(check char) (what ^ ": pseudo row") '_' row.Insn_table.print.[0]
    | Some c, Some (Semantics.Cluster c') -> same_cluster what c c'
    | _ -> Alcotest.failf "%s: binary-operator form apart from the cluster" what)

let risc_emit what _key base suffix (e : Risc_sem.emit) =
  let spelled b = b ^ Option.value suffix ~default:"" in
  let want =
    match base with
    | "neg" | "not" -> spelled base
    | "cvt" -> spelled "cvt"
    | "cmpbr" -> spelled "cmp"
    | "push" -> spelled "st"
    | "la" -> "la"
    | "li" | "ld" | "ldinc" | "lddec" | "st" | "st_r" | "stinc" | "stdec" -> ""
    | _ -> spelled base
  in
  Alcotest.(check string) (what ^ ": mnemonic") want e.Risc_sem.mn

let test_resolution_agrees_with_keys () =
  let vax o = Vax_def.grammar o in
  List.iter
    (fun (name, g) -> check_resolution name g (Semantics.actions g) vax_emit)
    [
      ("vax", Lazy.force Vax_def.default_grammar);
      ("vax no-bridges", vax { Vax_def.default with Vax_def.with_bridges = false });
      ("vax no-reverse", vax { Vax_def.default with Vax_def.reverse_ops = false });
      ("vax overfactored", vax { Vax_def.default with Vax_def.overfactored = true });
      ( "vax no-cc-fix",
        vax { Vax_def.default with Vax_def.condition_code_fix = false } );
    ];
  List.iter
    (fun (name, g) -> check_resolution name g (Risc_sem.actions g) risc_emit)
    [
      ("risc", Lazy.force Gg_risc.Grammar_def.default_grammar);
      ( "risc no-reverse",
        Gg_risc.Grammar_def.grammar
          { Vax_def.default with Vax_def.reverse_ops = false } );
    ];
  (* one resolution per grammar, even when domains race to build it *)
  let g = vax Vax_def.default in
  let others =
    List.init 2 (fun _ -> Domain.spawn (fun () -> Semantics.actions g))
    |> List.map Domain.join
  in
  List.iter
    (fun a ->
      Alcotest.(check bool) "the same resolution in every domain" true
        (a == Semantics.actions g))
    others

(* A key with no cluster or a bad type suffix resolves without complaint
   and fails when a reduction uses it, with the message the string path
   gave. *)
let test_unknown_key_fails_at_reduction () =
  let renamed ~from ~into =
    let specs =
      Gg_grammar.Schema.expand_all (Vax_def.schemas Vax_def.default)
      |> List.map (fun (lhs, rhs, action, note) ->
             let action =
               if Action.equal action (Action.Emit from) then Action.Emit into
               else action
             in
             (lhs, rhs, action, note))
    in
    let g = Grammar.make_exn ~start:"stmt" specs in
    ignore (Semantics.actions g : _ array);
    {
      Driver.grammar = g;
      packed = Gg_tablegen.Cache.build g;
      backend = Gg_codegen.Backend.vax;
    }
  in
  let prog =
    Gg_frontc.Sema.compile
      "int a; int b; int c; int main() { a = b + c; print(a); return 0; }"
  in
  List.iter
    (fun (into, want) ->
      let tables = renamed ~from:"add.l" ~into in
      match Driver.compile_program ~tables prog with
      | _ -> Alcotest.failf "%s compiled" into
      | exception (Invalid_argument m | Failure m) ->
        Alcotest.(check string) into want m)
    [
      ("zap.l", "Insn_table.find_exn: unknown cluster zap.l");
      ("add.x", "emit key add.x: bad type suffix");
    ]

let suite =
  [
    Alcotest.test_case
      "resolved actions agree with the key strings, every grammar variant"
      `Quick test_resolution_agrees_with_keys;
    Alcotest.test_case "an unknown key fails at reduction time" `Quick
      test_unknown_key_fails_at_reduction;
    Alcotest.test_case "appendix assembly" `Quick test_appendix_assembly;
    Alcotest.test_case "appendix trace" `Quick test_appendix_trace_shape;
    Alcotest.test_case "three-address add" `Quick test_add_three_address;
    Alcotest.test_case "binding idiom addl2" `Quick test_binding_idiom;
    Alcotest.test_case "range idiom incl" `Quick test_range_idiom_inc;
    Alcotest.test_case "range idiom decl" `Quick test_range_idiom_dec;
    Alcotest.test_case "clr idiom" `Quick test_clr_idiom;
    Alcotest.test_case "idioms disabled ablation" `Quick test_idioms_disabled;
    Alcotest.test_case "sub operand order" `Quick test_sub_operand_order;
    Alcotest.test_case "reverse subtract" `Quick test_reverse_subtract;
    Alcotest.test_case "modulus expansion" `Quick test_modulus_expansion;
    Alcotest.test_case "and with mask" `Quick test_and_with_mask;
    Alcotest.test_case "unsigned division library call" `Quick
      test_unsigned_division_library;
    Alcotest.test_case "right shift expansion" `Quick
      test_right_shift_expansion;
    Alcotest.test_case "symbol indexed mode" `Quick test_symbol_indexed;
    Alcotest.test_case "displacement indexed mode" `Quick
      test_disp_indexed_from_register;
    Alcotest.test_case "bridge for non-scale multiplier" `Quick
      test_bridge_for_non_scale_multiplier;
    Alcotest.test_case "autoincrement operands" `Quick
      test_autoincrement_operands;
    Alcotest.test_case "compare branch" `Quick test_compare_branch;
    Alcotest.test_case "test branch" `Quick test_test_branch;
    Alcotest.test_case "condition codes reused" `Quick
      test_condition_codes_reused;
    Alcotest.test_case "dedicated register needs tst" `Quick
      test_dreg_needs_tst;
    Alcotest.test_case "unsigned branch" `Quick test_unsigned_branch;
    Alcotest.test_case "float compare" `Quick test_float_compare;
    Alcotest.test_case "memory-to-memory conversion" `Quick
      test_memory_to_memory_conversion;
    Alcotest.test_case "float arithmetic binding" `Quick test_float_arith;
    Alcotest.test_case "register reuse" `Quick test_register_reuse;
    Alcotest.test_case "spill handling" `Quick test_spill_and_reload;
    Alcotest.test_case "no register leaks across statements" `Quick
      test_statement_sequence_register_clean;
    Alcotest.test_case "section 6.2.1 condition-code bug" `Quick
      test_621_condition_code_bug;
    Alcotest.test_case "appendix trace golden" `Quick
      test_appendix_trace_golden;
  ]

