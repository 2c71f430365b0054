(* Tests for the simulator: operand parsing (including a roundtrip
   property against the addressing-mode formatter), instruction
   execution, flags and branches, the calls/ret convention, the RISC
   load/store guard, and the faults a malformed program raises.  Every
   machine-neutral case runs on both instruction sets, each in its own
   assembly syntax. *)

open Gg_ir
open Gg_sim
module Mode = Gg_ir.Mode

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let value = Alcotest.testable Interp.pp_value Interp.value_equal
let isas = [ ("vax", Vax.isa); ("risc", Risc.isa) ]
let parse_operand (isa : Machine.isa) = Asmparse.parse_operand isa.Machine.syntax

let run_asm ?(globals = []) ?(args = []) isa src =
  Machine.run_text isa ~global_types:globals src ~entry:"main" args

(* a machine-neutral case: the same program in each syntax, one check *)
let both ?globals ~vax ~risc check () =
  check "vax" (run_asm ?globals Vax.isa vax);
  check "risc" (run_asm ?globals Risc.isa risc)

let returns expected name (out : Machine.outcome) =
  Alcotest.check value name expected out.Machine.return_value

(* -- operand parsing --------------------------------------------------------- *)

let test_parse_operands () =
  let roundtrip isa s =
    Alcotest.(check string) s s (Mode.assembly (parse_operand isa s))
  in
  let common =
    [ "r6"; "fp"; "sp"; "$42"; "$-7"; "a"; "-4(fp)"; "a+8(r6)"; "(r7)"; "512" ]
  in
  List.iter (roundtrip Vax.isa) (common @ [ "(r6)+"; "-(sp)"; "8(r6)[r7]"; "arr[r9]" ]);
  List.iter (roundtrip Risc.isa) common

let mode = Alcotest.testable Mode.pp Mode.equal

let test_parse_specific () =
  List.iter
    (fun (_, isa) ->
      Alcotest.check mode "deferred" (Mode.mem_deferred 7) (parse_operand isa "(r7)");
      Alcotest.check mode "float" (Mode.Fimm 1.5) (parse_operand isa "$0f1.5"))
    isas;
  Alcotest.check mode "indexed"
    (Mode.with_index (Mode.mem_disp 8L 6) 7)
    (parse_operand Vax.isa "8(r6)[r7]")

let vax_only (m : Mode.t) =
  match m with
  | Mode.Mem { index = Some _; _ } | Mode.Mem { auto = Some _; _ } -> true
  | _ -> false

let prop_operand_roundtrip =
  (* every mode the compiler can emit must survive print -> parse; the
     RISC accepts exactly the modes that are not VAX-only *)
  let gen =
    let open QCheck.Gen in
    oneof
      [
        map (fun r -> Mode.reg (6 + (abs r mod 6))) int;
        map (fun n -> Mode.imm (Int64.of_int n)) (int_range (-5000) 5000);
        return (Mode.mem_sym "gv");
        map (fun (d, r) -> Mode.mem_disp (Int64.of_int d) (6 + (abs r mod 6)))
          (pair (int_range (-500) 500) int);
        map (fun (d, r) -> Mode.mem_disp ~sym:"gv" (Int64.of_int d) (6 + (abs r mod 6)))
          (pair (int_range 0 64) int);
        map (fun r -> Mode.mem_deferred (6 + (abs r mod 6))) int;
        map (fun r -> Mode.autoinc (6 + (abs r mod 6))) int;
        map (fun r -> Mode.autodec (6 + (abs r mod 6))) int;
        map (fun (d, r, x) ->
            Mode.with_index (Mode.mem_disp (Int64.of_int d) (6 + (abs r mod 3)))
              (9 + (abs x mod 3)))
          (triple (int_range (-100) 100) int int);
      ]
  in
  QCheck.Test.make ~name:"operand print/parse roundtrip" ~count:500
    (QCheck.make gen) (fun m ->
      let text = Mode.assembly m in
      Mode.equal m (parse_operand Vax.isa text)
      &&
      match parse_operand Risc.isa text with
      | m' -> (not (vax_only m)) && Mode.equal m m'
      | exception Failure _ -> vax_only m)

let test_parse_program_items () =
  List.iter
    (fun (name, isa, mov, br) ->
      let p =
        Asmparse.parse isa.Machine.syntax
          (Fmt.str "\t.comm\tg,4\n\t.globl\tmain\nmain:\nL3:\n\t%s\t$1,r6\n\t%s\tL3\n\tret\n"
             mov br)
      in
      match p.Asmparse.items with
      | [ Asmparse.Comm ("g", 4); Asmparse.Globl "main"; Asmparse.Deflabel "main";
          Asmparse.Locallabel 3; Asmparse.Instruction _;
          Asmparse.Instruction (Gg_ir.Insn.Branch (b, 3));
          Asmparse.Instruction Gg_ir.Insn.Ret ] when b = br ->
        ()
      | items ->
        Alcotest.failf "%s: unexpected item shape (%d items)" name (List.length items))
    [ ("vax", Vax.isa, "movl", "jbr"); ("risc", Risc.isa, "lil", "b") ]

let test_parse_error_line () =
  List.iter
    (fun (name, (isa : Machine.isa)) ->
      match Asmparse.parse isa.Machine.syntax "\tmovl\t$1,r6\n\tbogus!!\t$1\n" with
      | exception Asmparse.Parse_error (2, _) -> ()
      | exception Asmparse.Parse_error (n, m) ->
        Alcotest.failf "%s: wrong line %d: %s" name n m
      | _ -> Alcotest.failf "%s: junk accepted" name)
    isas

(* -- execution ----------------------------------------------------------------- *)

let test_simple_arith =
  both (returns (Interp.VInt 42L))
    ~vax:"main:\n\tmovl\t$20,r6\n\taddl2\t$22,r6\n\tmovl\tr6,r0\n\tret\n"
    ~risc:"main:\n\tlil\t$20,r6\n\taddl\tr6,$22,r6\n\tmvl\tr6,r0\n\tret\n"

let test_memory_and_globals =
  both ~globals:[ ("g", Dtype.Long, 4) ]
    (fun name out ->
      returns (Interp.VInt 42L) name out;
      Alcotest.(check (list (pair string value))) name [ ("g", Interp.VInt 7L) ]
        out.Machine.globals)
    ~vax:"\t.comm\tg,4\nmain:\n\tmovl\t$7,g\n\tmull3\t$6,g,r0\n\tret\n"
    ~risc:
      "\t.comm\tg,4\nmain:\n\tlil\t$7,r6\n\tstl\tr6,g\n\tldl\tg,r7\n\tmull\tr7,$6,r0\n\tret\n"

let test_byte_sign_extension =
  both ~globals:[ ("b", Dtype.Byte, 1) ] (returns (Interp.VInt (-1L)))
    ~vax:"\t.comm\tb,1\nmain:\n\tmovb\t$-1,b\n\tcvtbl\tb,r0\n\tret\n"
    ~risc:
      "\t.comm\tb,1\nmain:\n\tlil\t$-1,r6\n\tstb\tr6,b\n\tldb\tb,r7\n\tcvtbl\tr7,r0\n\tret\n"

let test_branches_signed_unsigned =
  (* -1 < 1 signed, but 0xffffffff > 1 unsigned *)
  both (returns (Interp.VInt 3L))
    ~vax:
      "main:\n\tclrl\tr0\n\tcmpl\t$-1,$1\n\tjlss\tL1\n\tjbr\tL2\nL1:\n\tbisl2\t$1,r0\nL2:\n\tcmpl\t$-1,$1\n\tjgtru\tL3\n\tjbr\tL4\nL3:\n\tbisl2\t$2,r0\nL4:\n\tret\n"
    ~risc:
      "main:\n\tlil\t$0,r0\n\tlil\t$-1,r6\n\tcmpl\tr6,$1\n\tblt\tL1\n\tb\tL2\nL1:\n\torl\tr0,$1,r0\nL2:\n\tcmpl\tr6,$1\n\tbgtu\tL3\n\tb\tL4\nL3:\n\torl\tr0,$2,r0\nL4:\n\tret\n"

let test_autoincrement_execution () =
  let src =
    "\t.comm\ta,8\nmain:\n\tmovl\t$7,a\n\tmovl\t$9,a+4\n\tmoval\ta,r6\n\taddl3\t(r6)+,(r6)+,r0\n\tret\n"
  in
  let out = run_asm ~globals:[ ("a", Dtype.Long, 8) ] Vax.isa src in
  Alcotest.check value "7+9" (Interp.VInt 16L) out.Machine.return_value

(* A modify operand is evaluated once: [addl2 $3,(r6)+] or [incl -(r6)]
   steps r6 by one operand width and rewrites only the word it read.
   Three words [100; 13; 111] at [a]; r6 starts on the middle one for
   (r6)+ and just past it for -(r6); the program returns r6 - a. *)
let test_modify_operand_evaluated_once () =
  (* [stem, two-operand?, effect on the word] *)
  let ops =
    [ ("add", true, fun v -> Int64.add v 3L);
      ("sub", true, fun v -> Int64.sub v 3L);
      ("mul", true, fun v -> Int64.mul v 3L);
      ("div", true, fun v -> Int64.div v 3L);
      ("bis", true, fun v -> Int64.logor v 3L);
      ("xor", true, fun v -> Int64.logxor v 3L);
      ("bic", true, fun v -> Int64.logand v (Int64.lognot 3L));
      ("inc", false, Int64.succ);
      ("dec", false, Int64.pred) ]
  in
  let case ty c (stem, two, f) (operand, start, final) =
    let w = Dtype.size ty in
    let insn =
      if two then Fmt.str "%s%c2\t$3,%s" stem c operand
      else Fmt.str "%s%c\t%s" stem c operand
    in
    let src =
      String.concat "\n\t"
        [ Fmt.str "\t.comm\ta,%d" (3 * w);
          Fmt.str ".comm\te0,%d" w;
          Fmt.str ".comm\te1,%d" w;
          Fmt.str ".comm\te2,%d\nmain:" w;
          Fmt.str "mov%c\t$100,a" c;
          Fmt.str "mov%c\t$13,a+%d" c w;
          Fmt.str "mov%c\t$111,a+%d" c (2 * w);
          Fmt.str "moval\ta+%d,r6" (start * w);
          insn;
          Fmt.str "mov%c\ta,e0" c;
          Fmt.str "mov%c\ta+%d,e1" c w;
          Fmt.str "mov%c\ta+%d,e2" c (2 * w);
          "moval\ta,r7";
          "subl3\tr7,r6,r0";
          "ret\n" ]
    in
    let out =
      run_asm
        ~globals:[ ("a", ty, 3 * w); ("e0", ty, w); ("e1", ty, w); ("e2", ty, w) ]
        Vax.isa src
    in
    let check what expected actual =
      Alcotest.check value (Fmt.str "%s: %s" insn what) (Interp.VInt expected)
        actual
    in
    let global g = List.assoc g out.Machine.globals in
    check "r6 moved one width" (Int64.of_int (final * w)) out.Machine.return_value;
    check "word before" 100L (global "e0");
    check "the word read" (Tree.wrap ty (f 13L)) (global "e1");
    check "word after" 111L (global "e2")
  in
  List.iter
    (fun (ty, c) ->
      List.iter
        (fun op ->
          (* (r6)+ from the middle word ends past it; -(r6) from past
             the middle word ends on it *)
          List.iter (case ty c op) [ ("(r6)+", 1, 2); ("-(r6)", 2, 1) ])
        ops)
    [ (Dtype.Byte, 'b'); (Dtype.Word, 'w'); (Dtype.Long, 'l') ]

let test_indexed_scaling () =
  (* [rx] scales by operand size: longs by 4 *)
  let src =
    "\t.comm\ta,8\nmain:\n\tmovl\t$5,a\n\tmovl\t$11,a+4\n\tmovl\t$1,r7\n\tmovl\ta[r7],r0\n\tret\n"
  in
  let out = run_asm ~globals:[ ("a", Dtype.Long, 8) ] Vax.isa src in
  Alcotest.check value "a[1]" (Interp.VInt 11L) out.Machine.return_value

let test_calls_and_ret =
  both (returns (Interp.VInt 42L))
    ~vax:
      "\t.globl\tdouble\ndouble:\n\taddl3\t4(ap),4(ap),r0\n\tret\n\
       \t.globl\tmain\nmain:\n\tpushl\t$21\n\tcalls\t$1,double\n\tret\n"
    ~risc:
      "\t.globl\tdouble\ndouble:\n\tldl\t4(ap),r6\n\taddl\tr6,r6,r0\n\tret\n\
       \t.globl\tmain\nmain:\n\tlil\t$21,r6\n\tsubl\tsp,$4,sp\n\tstl\tr6,(sp)\n\tcall\t$1,double\n\tret\n"

let test_calls_preserves_registers =
  both (returns (Interp.VInt 11L))
    ~vax:
      "\t.globl\tclobber\nclobber:\n\tmovl\t$99,r6\n\tmovl\t$99,r11\n\tret\n\
       \t.globl\tmain\nmain:\n\tmovl\t$5,r6\n\tmovl\t$6,r11\n\tcalls\t$0,clobber\n\taddl3\tr6,r11,r0\n\tret\n"
    ~risc:
      "\t.globl\tclobber\nclobber:\n\tlil\t$99,r6\n\tlil\t$99,r11\n\tret\n\
       \t.globl\tmain\nmain:\n\tlil\t$5,r6\n\tlil\t$6,r11\n\tcall\t$0,clobber\n\taddl\tr6,r11,r0\n\tret\n"

let test_udivl_builtin () =
  let src =
    "main:\n\tpushl\t$3\n\tpushl\t$-2\n\tcalls\t$2,__udivl\n\tret\n"
  in
  let out = run_asm Vax.isa src in
  (* 0xfffffffe / 3 = 0x55555554 *)
  Alcotest.check value "unsigned divide" (Interp.VInt 0x55555554L)
    out.Machine.return_value

let test_double_register_pairs =
  (* a double into a register pair and back *)
  both ~globals:[ ("d", Dtype.Dbl, 8) ]
    (fun name out ->
      Alcotest.(check (list (pair string value))) name
        [ ("d", Interp.VFloat 2.75) ]
        out.Machine.globals)
    ~vax:
      "\t.comm\td,8\nmain:\n\tmovd\t$0f2.5,r6\n\taddd2\t$0f0.25,r6\n\tmovd\tr6,d\n\tclrl\tr0\n\tret\n"
    ~risc:
      "\t.comm\td,8\nmain:\n\tlid\t$0f2.5,r6\n\tlid\t$0f0.25,r8\n\taddd\tr6,r8,r6\n\tstd\tr6,d\n\tlil\t$0,r0\n\tret\n"

let test_print_builtin =
  both
    (fun name out ->
      Alcotest.(check (list string)) name [ "-3" ] out.Machine.output)
    ~vax:"main:\n\tpushl\t$-3\n\tcalls\t$1,print\n\tclrl\tr0\n\tret\n"
    ~risc:
      "main:\n\tlil\t$-3,r6\n\tsubl\tsp,$4,sp\n\tstl\tr6,(sp)\n\tcall\t$1,print\n\tlil\t$0,r0\n\tret\n"

let sim_error name isa src =
  match run_asm isa src with
  | exception Machine.Sim_error _ -> ()
  | _ -> Alcotest.failf "%s: not caught" name

let test_step_budget () =
  sim_error "vax infinite loop" Vax.isa "main:\nL1:\n\tjbr\tL1\n";
  sim_error "risc infinite loop" Risc.isa "main:\nL1:\n\tb\tL1\n"

let test_division_by_zero () =
  sim_error "vax division by zero" Vax.isa
    "main:\n\tclrl\tr6\n\tdivl3\tr6,$5,r0\n\tret\n";
  sim_error "risc division by zero" Risc.isa
    "main:\n\tlil\t$0,r6\n\tlil\t$5,r7\n\tdivl\tr7,r6,r0\n\tret\n"

let test_cycles_accumulate =
  both
    (fun name out ->
      check_bool name true (out.Machine.cycles > 10);
      check_int name 4 out.Machine.insns_executed)
    ~vax:"main:\n\tmovl\t$2,r6\n\tmull2\t$3,r6\n\tmovl\tr6,r0\n\tret\n"
    ~risc:"main:\n\tlil\t$2,r6\n\tmull\tr6,$3,r6\n\tmvl\tr6,r0\n\tret\n"

(* -- the RISC load/store guard -------------------------------------------------- *)

let test_risc_rejects_vax_modes () =
  List.iter
    (fun (operand, what) ->
      match run_asm Risc.isa (Fmt.str "main:\n\tldl\t%s,r6\n\tret\n" operand) with
      | exception Asmparse.Parse_error (line, m) ->
        check_int operand 2 line;
        check_bool
          (Fmt.str "%s: %S names the mode" operand m)
          true
          (m = Fmt.str "%s is not a RISC operand: %s" what operand)
      | _ -> Alcotest.failf "%s accepted" operand)
    [ ("(r1)+", "autoincrement"); ("-(r1)", "autodecrement");
      ("x[r1]", "indexed mode") ]

let test_risc_alu_sources_are_registers () =
  sim_error "memory in the first ALU source" Risc.isa
    "main:\n\taddl\t4(fp),r1,r2\n\tret\n";
  sim_error "memory in the second ALU source" Risc.isa
    "main:\n\taddl\tr1,4(fp),r2\n\tret\n"

let test_risc_unsigned_divide_by_zero () =
  List.iter
    (fun op ->
      sim_error op Risc.isa
        (Fmt.str "main:\n\tlil\t$5,r6\n\tlil\t$0,r7\n\t%s\tr6,r7,r0\n\tret\n" op))
    [ "divul"; "remul" ]

let test_risc_flags_from_cmp_only () =
  (* subl's zero (or nonzero) result must not move the cmp's flags; on
     the VAX every result sets them *)
  let risc cmp sub =
    Fmt.str
      "main:\n\tlil\t$1,r6\n\tlil\t$0,r0\n\tcmpl\tr6,$%d\n\tsubl\tr6,$%d,r7\n\tbeq\tL1\n\tlil\t$7,r0\nL1:\n\tret\n"
      cmp sub
  in
  returns (Interp.VInt 7L) "ne, subl gives 0" (run_asm Risc.isa (risc 2 1));
  returns (Interp.VInt 0L) "eq, subl gives 1" (run_asm Risc.isa (risc 1 0));
  returns (Interp.VInt 0L) "vax: subl3 sets Z"
    (run_asm Vax.isa
       "main:\n\tmovl\t$1,r6\n\tclrl\tr0\n\tcmpl\tr6,$2\n\tsubl3\t$1,r6,r7\n\tjeql\tL1\n\tmovl\t$7,r0\nL1:\n\tret\n")

let test_udivl_vax_only () =
  sim_error "risc __udivl" Risc.isa
    "main:\n\tsubl\tsp,$8,sp\n\tcall\t$2,__udivl\n\tret\n"

(* -- faults of malformed programs ------------------------------------------------- *)

(* Every fault raises the simulator's own exceptions — never an OCaml
   runtime exception — so the differential oracle can record and
   shrink it like any other crash. *)
let fault_table =
  let vax_suffixless =
    List.map
      (fun m -> ("vax", Vax.isa, Fmt.str "%s\tr1,r2" m, `Sim))
      [ "add"; "sub"; "mul"; "div"; "bis"; "xor"; "bic"; "cmp"; "mneg"; "mcom" ]
    @ List.map
        (fun m -> ("vax", Vax.isa, Fmt.str "%s\tr1" m, `Sim))
        [ "clr"; "inc"; "dec"; "tst" ]
  in
  vax_suffixless
  @ [
      ("vax", Vax.isa, "mova\tx,r2", `Sim);
      ("vax", Vax.isa, "movl\t4611686018427387903(r0),r2", `Sim);
      ("risc", Risc.isa, "ldl\t4611686018427387903(r0),r2", `Sim);
      ("vax", Vax.isa, "movd\tpc,r0", `Sim);
      ("risc", Risc.isa, "mvd\tpc,r0", `Sim);
      ("risc", Risc.isa, "add\tr1,r2,r3", `Sim);
      ("vax", Vax.isa, "movl\t$99999999999999999999,r0", `Parse "$99999999999999999999");
      ("risc", Risc.isa, "lil\t$99999999999999999999,r0", `Parse "$99999999999999999999");
      ("vax", Vax.isa, "movl\tx+99999999999999999999,r0", `Parse "x+99999999999999999999");
      ("vax", Vax.isa, "movl\t(r1)+[r2],r0", `Parse "(r1)+[r2]");
    ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_fault_table () =
  let run name isa src expected =
    match run_asm isa src with
    | _ -> Alcotest.failf "%s: %S accepted" name src
    | exception Machine.Sim_error m ->
      if expected <> `Sim then Alcotest.failf "%s: %S: simulator error %S" name src m
    | exception Asmparse.Parse_error (_, m) -> (
      match expected with
      | `Parse operand when contains m operand -> ()
      | _ -> Alcotest.failf "%s: %S: parse error %S" name src m)
    | exception e ->
      Alcotest.failf "%s: %S escaped as %s" name src (Printexc.to_string e)
  in
  List.iter
    (fun (name, isa, insn, expected) ->
      run name isa (Fmt.str "main:\n\t%s\n\tret\n" insn) expected)
    fault_table;
  (* a function that falls off the end of the code, or into the next *)
  run "vax" Vax.isa "main:\n\tmovl\t$1,r0\n" `Sim;
  run "risc" Risc.isa "main:\n\tlil\t$1,r0\n" `Sim;
  run "vax" Vax.isa
    "f:\n\tmovl\t$5,r0\ng:\n\tmovl\t$7,r0\n\tret\nmain:\n\tcalls\t$0,f\n\tret\n" `Sim;
  run "risc" Risc.isa
    "f:\n\tlil\t$5,r0\ng:\n\tlil\t$7,r0\n\tret\nmain:\n\tcall\t$0,f\n\tret\n" `Sim

let suite =
  [
    Alcotest.test_case "parse operands roundtrip" `Quick test_parse_operands;
    Alcotest.test_case "parse specific operands" `Quick test_parse_specific;
    QCheck_alcotest.to_alcotest prop_operand_roundtrip;
    Alcotest.test_case "parse program items" `Quick test_parse_program_items;
    Alcotest.test_case "parse error reports line" `Quick test_parse_error_line;
    Alcotest.test_case "simple arithmetic" `Quick test_simple_arith;
    Alcotest.test_case "memory and globals" `Quick test_memory_and_globals;
    Alcotest.test_case "byte sign extension" `Quick test_byte_sign_extension;
    Alcotest.test_case "signed and unsigned branches" `Quick
      test_branches_signed_unsigned;
    Alcotest.test_case "autoincrement execution" `Quick
      test_autoincrement_execution;
    Alcotest.test_case "indexed scaling" `Quick test_indexed_scaling;
    Alcotest.test_case "calls and ret" `Quick test_calls_and_ret;
    Alcotest.test_case "calls preserves registers" `Quick
      test_calls_preserves_registers;
    Alcotest.test_case "__udivl builtin" `Quick test_udivl_builtin;
    Alcotest.test_case "double register pairs" `Quick
      test_double_register_pairs;
    Alcotest.test_case "print builtin" `Quick test_print_builtin;
    Alcotest.test_case "step budget" `Quick test_step_budget;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "cycle accounting" `Quick test_cycles_accumulate;
    Alcotest.test_case "risc guard: VAX-only operands rejected" `Quick
      test_risc_rejects_vax_modes;
    Alcotest.test_case "risc guard: ALU sources are registers" `Quick
      test_risc_alu_sources_are_registers;
    Alcotest.test_case "risc guard: unsigned divide by zero" `Quick
      test_risc_unsigned_divide_by_zero;
    Alcotest.test_case "risc guard: flags from cmp only" `Quick
      test_risc_flags_from_cmp_only;
    Alcotest.test_case "risc guard: __udivl is VAX-only" `Quick
      test_udivl_vax_only;
    Alcotest.test_case "faults of malformed programs raise Sim_error" `Quick
      test_fault_table;
    Alcotest.test_case "modify operand evaluated once" `Quick
      test_modify_operand_evaluated_once;
  ]
