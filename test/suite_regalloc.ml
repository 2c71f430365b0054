(* The graph-coloring register allocator: def/use and liveness units on
   hand-built instruction streams, interference and move handling,
   coalescing and self-move deletion, spilling under pressure, and
   stack-vs-color differential properties (QCheck) on both targets. *)

open Gg_ir
module Backend = Gg_codegen.Backend
module Liveness = Gg_codegen.Liveness
module Interference = Gg_codegen.Interference
module Color = Gg_codegen.Color
module Regmgr = Gg_codegen.Regmgr
module Frame = Gg_codegen.Frame
module Driver = Gg_codegen.Driver
module Targets = Gg_targets.Targets
module Oracle = Gg_fuzz.Oracle
module Treegen = Gg_ir.Treegen
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus

let vax_ra = Backend.vax.Backend.regalloc
let vbase = 64
let v k = vbase + k
let sorted = List.sort compare

let vax_mnemonics () =
  Liveness.mnemonics ~ra:vax_ra ~move_mnemonics:[ "movl" ]
    ~is_jump:(String.equal "jbr")

(* one instruction's defs and uses, as registers, read back from the
   analysis's compressed rows *)
let du insn =
  let lv = Liveness.analyze (vax_mnemonics ()) ~vbase ~nvregs:0 [| insn |] in
  let regs arr lo hi =
    sorted (List.init (hi - lo) (fun k -> Liveness.reg_of lv arr.(lo + k)))
  in
  ( regs lv.Liveness.defs lv.Liveness.def_off.(0) lv.Liveness.def_off.(1),
    regs lv.Liveness.uses lv.Liveness.use_off.(0) lv.Liveness.use_off.(1) )

let il = Alcotest.(list int)

(* -- Liveness.Bits against a bool-array model ----------------------------- *)

module Bits = Liveness.Bits

(* sizes at the edges of the 63-bit words, then anything up to 400 *)
let edge_sizes = [ 0; 1; 62; 63; 64; 125; 126; 127 ]

let bits_of n members =
  let b = Bits.make n and m = Array.make n false in
  List.iter
    (fun i ->
      Bits.set b i;
      m.(i) <- true)
    members;
  (b, m)

let model_members m =
  List.filter (fun i -> m.(i)) (List.init (Array.length m) Fun.id)

let bits_members b =
  let out = ref [] in
  Bits.iter (fun i -> out := i :: !out) b;
  List.rev !out

(* the set agrees with the model on every operation that reads it *)
let agrees b m =
  let n = Array.length m in
  List.for_all (fun i -> Bits.get b i = m.(i)) (List.init n Fun.id)
  && bits_members b = model_members m
  && Bits.first b = (match model_members m with [] -> -1 | i :: _ -> i)

let test_bits_edges () =
  List.iter
    (fun n ->
      let all = List.init n Fun.id in
      let b, m = bits_of n all in
      Alcotest.(check bool) (Printf.sprintf "full set of %d" n) true (agrees b m);
      List.iter
        (fun i ->
          if i < n - 1 then begin
            Bits.clear b i;
            m.(i) <- false
          end)
        all;
      Alcotest.(check bool)
        (Printf.sprintf "only node %d of %d" (n - 1) n)
        true (agrees b m);
      Alcotest.(check bool)
        (Printf.sprintf "empty set of %d" n)
        true
        (agrees (Bits.make n) (Array.make n false)))
    edge_sizes

let bits_case =
  let open QCheck.Gen in
  let* n = oneof [ oneofl edge_sizes; int_range 0 400 ] in
  let members = if n = 0 then return [] else list (int_bound (n - 1)) in
  let* xs = members and* ys = members and* zs = members in
  return (n, xs, ys, zs)

let prop_bits_model =
  QCheck.Test.make
    ~name:"Liveness.Bits agrees with a bool-array model (QCheck)" ~count:300
    (QCheck.make
       ~print:(fun (n, xs, ys, zs) ->
         let l = QCheck.Print.(list int) in
         Printf.sprintf "n=%d a=%s b=%s cleared=%s" n (l xs) (l ys) (l zs))
       bits_case)
    (fun (n, xs, ys, zs) ->
      let a, ma = bits_of n xs and b, mb = bits_of n ys in
      (* clear *)
      List.iter
        (fun i ->
          Bits.clear a i;
          ma.(i) <- false)
        zs;
      let set_ok = agrees a ma && agrees b mb in
      (* copy is equal and independent *)
      let a' = Bits.copy a in
      let copy_ok = Bits.equal a a' && agrees a' ma in
      List.iter (fun i -> Bits.set a' i) ys;
      let independent = agrees a ma in
      (* equality follows the model *)
      let equal_ok = Bits.equal a b = (ma = mb) in
      (* union and difference, a word at a time *)
      let u = Bits.copy a and d = Bits.copy a in
      Bits.union_into ~src:b ~dst:u;
      Bits.diff_into ~src:b ~dst:d;
      let union_ok = agrees u (Array.mapi (fun i x -> x || mb.(i)) ma)
      and diff_ok = agrees d (Array.mapi (fun i x -> x && not mb.(i)) ma) in
      set_ok && copy_ok && independent && equal_ok && union_ok && diff_ok)

(* -- def/use classification ------------------------------------------------ *)

let test_def_use () =
  Alcotest.(check (pair il il))
    "movl writes its destination"
    ([ 2 ], [ 1 ])
    (du (Insn.Insn ("movl", [ Mode.Reg 1; Mode.Reg 2 ])));
  Alcotest.(check (pair il il))
    "addl2 reads and writes its destination"
    ([ 2 ], [ 1; 2 ])
    (du (Insn.Insn ("addl2", [ Mode.Reg 1; Mode.Reg 2 ])));
  Alcotest.(check (pair il il))
    "cmpl defines nothing"
    ([], [ 1; 2 ])
    (du (Insn.Insn ("cmpl", [ Mode.Reg 1; Mode.Reg 2 ])));
  Alcotest.(check (pair il il))
    "incl reads and writes"
    ([ 3 ], [ 3 ])
    (du (Insn.Insn ("incl", [ Mode.Reg 3 ])));
  Alcotest.(check (pair il il))
    "memory base and index registers are uses"
    ([ 2 ], [ 1; 3 ])
    (du
       (Insn.Insn
          ("movl", [ Mode.with_index (Mode.mem_disp 4L 1) 3; Mode.Reg 2 ])));
  Alcotest.(check (pair il il))
    "autoincrement base is also a def"
    ([ 1; 2 ], [ 1 ])
    (du (Insn.Insn ("movl", [ Mode.autoinc 1; Mode.Reg 2 ])));
  Alcotest.(check (pair il il))
    "call defines the result registers"
    ([ 0; 1 ], [])
    (du (Insn.Call ("f", 0)));
  Alcotest.(check (pair il il))
    "ret reads r0"
    ([], [ 0 ])
    (du Insn.Ret)

(* -- liveness and interference on hand-built streams ----------------------- *)

let analyze ?(nvregs = 2) insns =
  Liveness.analyze (vax_mnemonics ()) ~vbase ~nvregs (Array.of_list insns)

let build ?(nvregs = 2) insns =
  Interference.build ~heat:[] ~prov:[||] (analyze ~nvregs insns)

let test_liveness_straight_line () =
  let lv =
    analyze
      [
        Insn.Insn ("movl", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Insn ("movl", [ Mode.imm 2L; Mode.Reg (v 1) ]);
        Insn.Insn ("addl2", [ Mode.Reg (v 0); Mode.Reg (v 1) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 1); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  Alcotest.(check int) "one basic block" 1 lv.Liveness.nblocks;
  Alcotest.(check bool)
    "nothing live out of the exit block" false
    (Liveness.live_out_mem lv 0 (Liveness.node_of lv (v 0)))

let test_interference_edges () =
  let g =
    build
      [
        Insn.Insn ("movl", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Insn ("movl", [ Mode.imm 2L; Mode.Reg (v 1) ]);
        Insn.Insn ("addl2", [ Mode.Reg (v 0); Mode.Reg (v 1) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 1); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  Alcotest.(check bool)
    "simultaneously live vregs interfere" true
    (Interference.interferes g 0 1);
  Alcotest.(check int)
    "the copy to r0 is the only move" 1
    (Interference.nmoves g)

let test_move_does_not_interfere () =
  let g =
    build
      [
        Insn.Insn ("movl", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 0); Mode.Reg (v 1) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 1); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  Alcotest.(check bool)
    "a move's ends do not interfere" false
    (Interference.interferes g 0 1);
  Alcotest.(check int) "both moves recorded" 2 (Interference.nmoves g)

let test_loop_depth () =
  let l = Label.fresh (Label.gen ()) in
  let lv =
    analyze ~nvregs:1
      [
        Insn.Insn ("movl", [ Mode.imm 0L; Mode.Reg (v 0) ]);
        Insn.Lab l;
        Insn.Insn ("addl2", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Branch ("jneq", l);
        Insn.Insn ("movl", [ Mode.Reg (v 0); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  Alcotest.(check int) "preheader is outside the loop" 0 (Liveness.depth_at lv 0);
  Alcotest.(check int) "loop body has depth 1" 1 (Liveness.depth_at lv 2);
  Alcotest.(check int) "loop exit is outside again" 0 (Liveness.depth_at lv 4)

(* -- the colorer on hand-built streams ------------------------------------- *)

let vinfo n =
  {
    Regmgr.vs_base = vbase;
    vs_types = Array.make n Dtype.Long;
    vs_kinds = Array.make n Regmgr.Vsingle;
    vs_prov = Array.make n (0, []);
  }

let color ?(nvregs = 2) insns =
  Color.run ~backend:Backend.vax ~bank:Backend.vax.Backend.alloc_regs
    ~frame:(Frame.create ~locals_size:0 ~temps:[])
    ~vinfo:(vinfo nvregs) ~heat:[] ~prov:[] insns

let no_virtuals insns =
  List.for_all
    (fun i ->
      match i with
      | Insn.Insn (_, ops) ->
        List.for_all
          (fun o -> List.for_all (fun r -> r < vbase) (Mode.registers o))
          ops
      | _ -> true)
    insns

let test_coalesce_deletes_move_chain () =
  let out, _, st =
    color
      [
        Insn.Insn ("movl", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 0); Mode.Reg (v 1) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 1); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  Alcotest.(check bool) "no virtual register survives" true (no_virtuals out);
  Alcotest.(check int)
    "the whole copy chain collapses into r0" 2 st.Color.self_moves_deleted;
  Alcotest.(check int) "nothing spilled" 0 st.Color.spilled_ranges;
  Alcotest.(check int)
    "only the constant load and the return remain" 2 (List.length out)

let test_cc_protected_move_survives () =
  (* the self-move's condition codes feed the conditional branch, so
     deleting it would change the branch decision *)
  let l = Label.fresh (Label.gen ()) in
  let out, _, _ =
    color
      [
        Insn.Insn ("movl", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 0); Mode.Reg (v 1) ]);
        Insn.Branch ("jneq", l);
        Insn.Lab l;
        Insn.Insn ("movl", [ Mode.Reg (v 1); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  let moves_left =
    List.length
      (List.filter
         (function Insn.Insn ("movl", [ Mode.Reg _; Mode.Reg _ ]) -> true | _ -> false)
         out)
  in
  Alcotest.(check bool) "the cc-setting move is kept" true (moves_left >= 1)

let test_spill_under_pressure () =
  (* eight simultaneously live longs against a six-register bank *)
  let n = 8 in
  let defs =
    List.init n (fun k ->
        Insn.Insn ("movl", [ Mode.imm (Int64.of_int k); Mode.Reg (v k) ]))
  in
  let uses =
    List.init (n - 1) (fun k ->
        Insn.Insn ("addl2", [ Mode.Reg (v k); Mode.Reg (v (n - 1)) ]))
  in
  let out, _, st =
    color ~nvregs:n
      (defs @ uses
      @ [ Insn.Insn ("movl", [ Mode.Reg (v (n - 1)); Mode.Reg 0 ]); Insn.Ret ])
  in
  Alcotest.(check bool) "no virtual register survives" true (no_virtuals out);
  Alcotest.(check bool)
    "pressure forces at least one spilled range" true
    (st.Color.spilled_ranges >= 1);
  Alcotest.(check bool)
    "spilling takes extra rounds" true (st.Color.rounds >= 2)

let test_spill_provenance_marks () =
  (* twelve live longs against the RISC's ten-register bank: the
     colorer must emit reloads/stores, and each one must carry the
     spilled value's provenance plus a "reload"/"spill" marker *)
  let n = 12 in
  let vi =
    {
      Regmgr.vs_base = vbase;
      vs_types = Array.make n Dtype.Long;
      vs_kinds = Array.make n Regmgr.Vsingle;
      vs_prov = Array.init n (fun k -> (100 + k, [ k ]));
    }
  in
  let defs =
    List.init n (fun k ->
        Insn.Insn ("lil", [ Mode.imm (Int64.of_int k); Mode.Reg (v k) ]))
  in
  let uses =
    List.init (n - 1) (fun k ->
        Insn.Insn
          ( "addl",
            [ Mode.Reg (v k); Mode.Reg (v (n - 1)); Mode.Reg (v (n - 1)) ] ))
  in
  let insns =
    defs @ uses
    @ [ Insn.Insn ("mvl", [ Mode.Reg (v (n - 1)); Mode.Reg 0 ]); Insn.Ret ]
  in
  let prov = List.mapi (fun i _ -> (i + 1, [ 0 ], "")) insns in
  let out, outp, st =
    Color.run ~backend:Gg_risc.Target.backend
      ~bank:Gg_risc.Target.backend.Backend.alloc_regs
      ~frame:(Frame.create ~locals_size:0 ~temps:[])
      ~vinfo:vi ~heat:[] ~prov insns
  in
  Alcotest.(check int)
    "provenance tracks the rewritten stream" (List.length out)
    (List.length outp);
  Alcotest.(check bool)
    "pressure emits reloads" true
    (st.Color.spill_reloads > 0);
  let marked m = List.filter (fun (_, _, mk) -> mk = m) outp in
  Alcotest.(check bool)
    "every reload carries the spilled value's line and productions" true
    (List.for_all
       (fun (line, pids, _) -> line >= 100 && pids <> [])
       (marked "reload"));
  Alcotest.(check int)
    "one marked instruction per counted reload" st.Color.spill_reloads
    (List.length (marked "reload"));
  Alcotest.(check int)
    "one marked instruction per counted spill store" st.Color.spill_stores
    (List.length (marked "spill"))

(* -- heat-file parsing ------------------------------------------------------ *)

let test_parse_heat () =
  Alcotest.(check (list (pair int int)))
    "mdgtool heat --json round-trips"
    [ (3, 41); (7, 1) ]
    (Color.parse_heat
       "{\n  \"total\": 42,\n  \"productions\": [\n    {\"id\": 3, \"count\": \
        41},\n    {\"id\": 7, \"count\": 1}\n  ]\n}");
  Alcotest.(check (list (pair int int))) "empty input" [] (Color.parse_heat "")

(* -- whole-compiler differential checks ------------------------------------ *)

(* a spill-heavy source: a deep double expression under a register
   loop counter (the stack allocator spills this on the VAX) *)
let pressure_src =
  "double a; double b; double c; double d;\n\
   double e; double f; double g; double h; double r;\n\
   int main() {\n\
  \  register int i;\n\
  \  int n;\n\
  \  n = 0;\n\
  \  a = 1.5; b = 2.5; c = 3.25; d = 0.5;\n\
  \  e = 1.25; f = 2.0; g = 0.75; h = 1.0;\n\
  \  for (i = 0; i < 10; i = i + 1) {\n\
  \    r = (a * b + c * d) * (e * f + g * h) + (a * c - b * d) * (e * g - f \
   * h);\n\
  \    n = n + (int) r;\n\
  \  }\n\
  \  return n;\n\
   }\n"

let compile_and_run ~target ~regalloc ~jobs prog =
  let tables = Targets.default_tables target in
  let options = { Driver.default_options with Driver.regalloc } in
  let out = Driver.compile_program ~options ~tables ~jobs prog in
  let sim =
    Targets.run_text ~target out.Driver.assembly
      ~global_types:prog.Tree.globals ~entry:"main" []
  in
  (out.Driver.assembly, sim)

let test_pressure_program_agrees () =
  let prog = Sema.compile pressure_src in
  List.iter
    (fun target ->
      let _, stack =
        compile_and_run ~target ~regalloc:Driver.Stack ~jobs:1 prog
      in
      let _, colored =
        compile_and_run ~target ~regalloc:Driver.Color ~jobs:1 prog
      in
      Alcotest.(check bool)
        (Targets.name target ^ ": same return value")
        true
        (Interp.value_equal stack.Simout.return_value
           colored.Simout.return_value);
      Alcotest.(check bool)
        (Targets.name target ^ ": color is never slower")
        true
        (colored.Simout.cycles <= stack.Simout.cycles))
    Targets.all

let test_byte_determinism_across_jobs () =
  let prog =
    Treegen.control_program ~seed:7
      { Treegen.default_config with Treegen.functions = 3 }
  in
  List.iter
    (fun target ->
      let asm1, _ = compile_and_run ~target ~regalloc:Driver.Color ~jobs:1 prog
      and asm4, _ =
        compile_and_run ~target ~regalloc:Driver.Color ~jobs:4 prog
      in
      Alcotest.(check string)
        (Targets.name target ^ ": -j4 output byte-identical to -j1")
        asm1 asm4)
    Targets.all

let test_spill_metrics_exact_across_jobs () =
  let prog = Sema.compile pressure_src in
  let spills_at jobs =
    Gg_profile.Metrics.enabled := true;
    Gg_profile.Metrics.reset ();
    ignore
      (Driver.compile_program
         ~options:{ Driver.default_options with Driver.regalloc = Driver.Color }
         ~tables:(Targets.default_tables Backend.Vax)
         ~jobs prog);
    let counters = Gg_profile.Metrics.named_counters () in
    Gg_profile.Metrics.reset ();
    Gg_profile.Metrics.enabled := false;
    Option.value (List.assoc_opt "codegen.spills_total" counters) ~default:0
  in
  let s1 = spills_at 1 in
  Alcotest.(check bool) "the pressure program spills on the VAX" true (s1 > 0);
  Alcotest.(check int) "spill counter exact under -j4" s1 (spills_at 4)

(* -- golden colored output ------------------------------------------------ *)

(* The colorer's output is pinned across changes to its data structures:
   these digests were recorded with byte-per-node liveness sets and an
   nv×nv interference matrix, and any representation change must
   reproduce them byte for byte, spill and reload counts included.
   Regenerate them only for an intended change of colored output. *)

(* A straight-line function over [vars] int locals: [stmts] statements
   of the form [vA = (vB op vC) op' K], no branches, no division.  Every
   statement defines a fresh live range, so the interference graph has
   thousands of nodes of small degree — the shape where a colorer that
   scans nv² bits falls behind one that walks neighbour lists. *)
let straight_line_source ~seed ~stmts ~vars =
  let st = Random.State.make [| seed |] in
  let ops = [| "+"; "-"; "*"; "&"; "|"; "^" |] in
  let op () = ops.(Random.State.int st (Array.length ops)) in
  let var () = Printf.sprintf "v%d" (Random.State.int st vars) in
  let b = Buffer.create (stmts * 24) in
  Buffer.add_string b "int main() {\n";
  for k = 0 to vars - 1 do
    Printf.bprintf b "  int v%d;\n" k
  done;
  for k = 0 to vars - 1 do
    Printf.bprintf b "  v%d = %d;\n" k (k + 1)
  done;
  for _ = 1 to stmts do
    let a = var () and x = var () and y = var () in
    let o1 = op () and o2 = op () in
    Printf.bprintf b "  %s = (%s %s %s) %s %d;\n" a x o1 y o2
      (1 + Random.State.int st 97)
  done;
  for k = 0 to vars - 1 do
    Printf.bprintf b "  print(v%d);\n" k
  done;
  Buffer.add_string b "  return v0 & 255;\n}\n";
  Buffer.contents b

(* one [(int)(0.5 * (double)e)] halving chain of depth [d] per program:
   each level holds a register pair, so deep chains spill on RISC *)
let halving_source d =
  let rec chain d e =
    if d = 0 then e
    else chain (d - 1) (Printf.sprintf "((int)(0.5 * ((double)%s)))" e)
  in
  Printf.sprintf
    "int main() {\n  int a;\n  register int k;\n  a = %d;\n  for (k = 0; k < \
     3; k++) {\n    a = %s + %d;\n  }\n  print(a);\n  return a & 255;\n}\n"
    (1000 * d) (chain d "a") (100 + d)

let golden_inputs =
  lazy
    [
      ( "corpus seeds 0..99",
        List.init 100 (fun seed ->
            Corpus.random_source ~seed ~functions:(1 + (seed mod 3))
              ~stmts_per_function:(10 + (seed mod 15))) );
      ("halving chains 4..7", List.map halving_source [ 4; 5; 6; 7 ]);
      ( "600-statement function",
        [ straight_line_source ~seed:15 ~stmts:600 ~vars:12 ] );
    ]

(* MD5 of the concatenated colored assembly of one input set *)
let golden_digest target sources =
  let tables = Targets.default_tables target in
  let options = { Driver.default_options with Driver.regalloc = Driver.Color } in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun src ->
               (Driver.compile_program ~options ~tables ~jobs:1
                  (Sema.compile src))
                 .Driver.assembly)
             sources)))

let golden_expected =
  [
    ( "vax",
      ( [
          "6a87b41f108a629a39aacb7165384370";
          "2eb4fa0d4a44a42ea363a73861cfd34d";
          "2e173febda4d419d67ac1e14dc1fdfea";
        ],
        (0, 0) ) );
    ( "risc",
      ( [
          "57218a446ca36762d55af1a53345b809";
          "4b6232c4da37ce79ee19f9f048be85cf";
          "2823e75a84f6f312bb26c7aa000b36c6";
        ],
        (10, 10) ) );
  ]

let test_golden_colored_output () =
  List.iter
    (fun target ->
      let tname = Targets.name target in
      let digests, (spills, reloads) =
        match List.assoc_opt tname golden_expected with
        | Some expected -> expected
        | None -> Alcotest.failf "no golden digests for %s" tname
      in
      Gg_profile.Metrics.enabled := true;
      Gg_profile.Metrics.reset ();
      let actual =
        Fun.protect
          ~finally:(fun () -> Gg_profile.Metrics.enabled := false)
          (fun () ->
            List.map
              (fun (_, sources) -> golden_digest target sources)
              (Lazy.force golden_inputs))
      in
      let counters = Gg_profile.Metrics.named_counters () in
      Gg_profile.Metrics.reset ();
      let counter name =
        Option.value (List.assoc_opt name counters) ~default:0
      in
      List.iter2
        (fun (name, _) (want, got) ->
          Alcotest.(check string) (tname ^ ": " ^ name) want got)
        (Lazy.force golden_inputs) (List.combine digests actual);
      Alcotest.(check int) (tname ^ ": codegen.spills_total") spills
        (counter "codegen.spills_total");
      Alcotest.(check int) (tname ^ ": codegen.reloads_total") reloads
        (counter "codegen.reloads_total"))
    Targets.all

(* -- golden stack-allocator and --explain output ------------------------- *)

(* The matcher and the semantic dispatchers are pinned like the colorer:
   MD5s of the stack allocator's assembly and of the --explain listing
   (whose provenance comments name every production reduced, chain rules
   included) over corpus seeds 0..99 and examples/c, plus the exact
   number of chain-rule ids in that provenance.  Recorded before the
   dispatchers resolved their actions per production; regenerate only
   for an intended change of output. *)

let example_sources () =
  let dir = List.find Sys.file_exists [ "../examples/c"; "examples/c" ] in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (fun f ->
         In_channel.with_open_text (Filename.concat dir f) In_channel.input_all)

let stack_golden_sources =
  lazy
    (List.init 100 (fun seed ->
         Corpus.random_source ~seed ~functions:(1 + (seed mod 3))
           ~stmts_per_function:(10 + (seed mod 15)))
    @ example_sources ())

(* (assembly MD5, --explain MD5, chain ids in provenance) per target *)
let stack_golden_expected =
  [
    ( "vax",
      ( "07d0b1c436bfc32ce55ed0d8b2607094",
        "ed7219f46acfe7e3b477ed05dfcb9d7c",
        96710 ) );
    ( "risc",
      ( "15864ff5fe75010c625e0445ba486c01",
        "0fea74de1b5dc208d37e7ea5800e68f5",
        61831 ) );
  ]

let test_golden_stack_and_explain () =
  List.iter
    (fun target ->
      let tname = Targets.name target in
      let want_asm, want_explain, want_chains =
        match List.assoc_opt tname stack_golden_expected with
        | Some e -> e
        | None -> Alcotest.failf "no golden digests for %s" tname
      in
      let tables = Targets.default_tables target in
      let g = tables.Driver.grammar in
      let progs = List.map Sema.compile (Lazy.force stack_golden_sources) in
      let plain =
        List.map
          (fun p -> (Driver.compile_program ~tables ~jobs:1 p).Driver.assembly)
          progs
      in
      Gg_profile.Profile.provenance_enabled := true;
      let outs =
        Fun.protect
          ~finally:(fun () -> Gg_profile.Profile.provenance_enabled := false)
          (fun () -> List.map (Driver.compile_program ~tables ~jobs:1) progs)
      in
      let explained = List.map (Driver.render_explained tables) outs in
      let chains =
        List.fold_left
          (fun acc (cf : Driver.compiled_func) ->
            List.fold_left
              (fun acc (_, pids, _) ->
                acc
                + List.length
                    (List.filter
                       (fun id ->
                         (Gg_grammar.Grammar.production g id).action
                         = Gg_grammar.Action.Chain)
                       pids))
              acc cf.Driver.cf_prov)
          0
          (List.concat_map (fun o -> o.Driver.funcs) outs)
      in
      let md5 parts = Digest.to_hex (Digest.string (String.concat "" parts)) in
      Alcotest.(check string) (tname ^ ": stack assembly") want_asm (md5 plain);
      Alcotest.(check string) (tname ^ ": --explain listing") want_explain
        (md5 explained);
      Alcotest.(check int) (tname ^ ": chain ids in provenance") want_chains
        chains)
    Targets.all

(* one stack and one color engine per target: any observable
   disagreement between the allocators fails through the shared
   interpreter reference *)
let engines =
  lazy
    (List.concat_map
       (fun t -> [ Oracle.engine_for t; Oracle.color_engine_for t ])
       Targets.all)

let prop_stack_color_parity =
  QCheck.Test.make ~name:"stack and color agree on all observables (QCheck)"
    ~count:25
    QCheck.(make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = Treegen.control_program ~seed Treegen.default_config in
      match Oracle.check ~pcc:false ~engines:(Lazy.force engines) prog with
      | Ok _ -> true
      | Error f ->
        QCheck.Test.fail_reportf "seed %d: %a" seed Oracle.pp_failure f
      | exception Oracle.Invalid _ -> QCheck.assume_fail ())

(* -- the flat analysis against the list-based reference ------------------ *)

module Ref = Regalloc_ref

(* the mover's register-to-register spellings and the unconditional
   branch, probed from the backend as the colorer does *)
let move_mnemonics (backend : Backend.t) =
  let move = Option.value backend.Backend.move ~default:Regmgr.default_move in
  List.filter_map
    (fun ty ->
      match move ty ~src:(Mode.Reg 0) ~dst:(Mode.Reg 1) with
      | [ Insn.Insn (m, [ _; _ ]) ] -> Some m
      | _ -> None)
    Dtype.all
  |> List.sort_uniq compare

let is_jump (backend : Backend.t) =
  match backend.Backend.jump (Label.fresh (Label.gen ())) with
  | Insn.Branch (m, _) -> String.equal m
  | _ -> fun _ -> false

let heat = List.init 60 (fun p -> (p, 1 + (p * 7 mod 13)))

(* Every field of the library's def/use, blocks, live-out sets and
   interference graph against the reference, on one colorer input;
   the mismatches, first few only *)
let analysis_mismatches (ci : Driver.color_input) =
  let backend = ci.Driver.ci_backend in
  let ra = backend.Backend.regalloc in
  let moves = move_mnemonics backend and is_jump = is_jump backend in
  let vbase = ci.Driver.ci_vinfo.Regmgr.vs_base in
  let nvregs = Array.length ci.Driver.ci_vinfo.Regmgr.vs_types in
  let insns = Array.of_list ci.Driver.ci_insns in
  let prov = Array.of_list ci.Driver.ci_prov in
  let heat = ci.Driver.ci_heat in
  let r = Ref.analyze ~ra ~is_jump ~vbase ~nvregs insns in
  let rg = Ref.build ~move_mnemonics:moves ~heat ~prov r in
  let lv =
    Liveness.analyze
      (Liveness.mnemonics ~ra ~move_mnemonics:moves ~is_jump)
      ~vbase ~nvregs insns
  in
  let g = Interference.build ~heat ~prov lv in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let row arr off i = List.init (off.(i + 1) - off.(i)) (fun k -> arr.(off.(i) + k)) in
  let il = Fmt.(str "%a" (Dump.list int)) in
  (* def/use: the same nodes per instruction (the reference lists them
     in reverse operand order) *)
  Array.iteri
    (fun i (d, u) ->
      let nodes l = sorted (List.map (Liveness.node_of lv) l) in
      let dd = sorted (row lv.Liveness.defs lv.Liveness.def_off i)
      and uu = sorted (row lv.Liveness.uses lv.Liveness.use_off i) in
      if dd <> nodes d then fail "insn %d defs %s, reference %s" i (il dd) (il (nodes d));
      if uu <> nodes u then fail "insn %d uses %s, reference %s" i (il uu) (il (nodes u)))
    r.Ref.def_use;
  if Array.length lv.Liveness.def_off <> Array.length insns + 1 then
    fail "def_off has %d entries for %d instructions"
      (Array.length lv.Liveness.def_off) (Array.length insns);
  (* blocks and live-out sets *)
  if Array.length r.Ref.blocks <> lv.Liveness.nblocks then
    fail "%d blocks, reference %d" lv.Liveness.nblocks (Array.length r.Ref.blocks)
  else
    Array.iteri
      (fun b (blk : Ref.block) ->
        if
          blk.Ref.first <> lv.Liveness.blk_first.(b)
          || blk.Ref.last <> lv.Liveness.blk_last.(b)
          || blk.Ref.depth <> lv.Liveness.depth.(b)
          || blk.Ref.succs <> row lv.Liveness.succ lv.Liveness.succ_off b
          || blk.Ref.preds <> row lv.Liveness.pred lv.Liveness.pred_off b
        then fail "block %d shape" b;
        for n = 0 to lv.Liveness.nnodes - 1 do
          if Bits.get r.Ref.live_out.(b) n <> Liveness.live_out_mem lv b n then
            fail "block %d live-out node %d" b n
        done)
      r.Ref.blocks;
  (* the graph *)
  let nv = nvregs in
  if g.Interference.nv <> nv then fail "nv %d, reference %d" g.Interference.nv nv;
  for a = 0 to nv - 1 do
    let want = bits_members rg.Ref.rows.(a) and got = Interference.neighbours g a in
    if want <> got then fail "row %d: %s, reference %s" a (il got) (il want)
  done;
  if g.Interference.forbid <> rg.Ref.forbid then fail "forbid masks";
  let triples =
    List.init (Interference.nmoves g) (fun k ->
        let m = g.Interference.moves in
        (m.(3 * k), m.((3 * k) + 1), m.((3 * k) + 2)))
  in
  if triples <> rg.Ref.moves then fail "moves";
  if g.Interference.weight <> rg.Ref.weight then fail "weights";
  if g.Interference.occurrences <> rg.Ref.occurrences then fail "occurrences";
  List.filteri (fun k _ -> k < 5) (List.rev !errs)

let check_program ~what ~options target (prog : Tree.program) =
  let tables = Targets.default_tables target in
  List.iter
    (fun (f : Tree.func) ->
      match analysis_mismatches (Driver.color_input ~options tables f) with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s, %s, %s: %s" (Targets.name target) what
          f.Tree.fname (String.concat "; " errs))
    prog.Tree.funcs

let color_options = { Driver.default_options with Driver.regalloc = Driver.Color }

let test_analysis_matches_reference_corpus () =
  List.iter
    (fun target ->
      for seed = 0 to 99 do
        let src =
          Corpus.random_source ~seed ~functions:(1 + (seed mod 3))
            ~stmts_per_function:(10 + (seed mod 15))
        in
        (* heat weighting on odd seeds: provenance-driven spill costs *)
        let options =
          if seed land 1 = 1 then { color_options with Driver.heat } else color_options
        in
        check_program ~what:(Printf.sprintf "corpus seed %d" seed) ~options
          target (Sema.compile src)
      done)
    Targets.all

let prop_analysis_matches_reference =
  QCheck.Test.make
    ~name:"analysis: flat arrays equal the list-based reference (QCheck)"
    ~count:30
    QCheck.(make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = Treegen.control_program ~seed Treegen.default_config in
      List.iter
        (fun target ->
          check_program ~what:(Printf.sprintf "treegen seed %d" seed)
            ~options:color_options target prog)
        Targets.all;
      true)

(* -- hand-written streams: the general case GG never emits ---------------- *)

(* GG's color mode keeps every virtual register inside one statement
   tree, so none is live out of a basic block and the block dataflow
   only ever sees physical registers.  These color-mode streams, one
   set per target, have what GG never emits: a virtual register live
   around a loop back edge, one live across a conditional branch, and
   more values live across a loop than the bank holds, so the colorer
   spills.  Each stream's analysis is checked against the reference,
   and its colored output against a digest recorded before liveness
   ran over the non-local names only. *)

type spelling = {
  sp_li : string;  (* load immediate *)
  sp_add : string;  (* three-address add *)
  sp_mv : string;  (* register move *)
  sp_bne : string;
  sp_bge : string;
}

let spelling = function
  | Backend.Vax ->
    { sp_li = "movl"; sp_add = "addl3"; sp_mv = "movl"; sp_bne = "jneq"; sp_bge = "jgeq" }
  | Backend.Risc ->
    { sp_li = "lil"; sp_add = "addl"; sp_mv = "mvl"; sp_bne = "bne"; sp_bge = "bge" }

(* (name, virtual registers, stream) per target *)
let general_streams target =
  let s = spelling target in
  let r k = Mode.Reg (v k) in
  let li c k = Insn.Insn (s.sp_li, [ Mode.imm (Int64.of_int c); r k ]) in
  let add a b d = Insn.Insn (s.sp_add, [ r a; r b; r d ]) in
  let cmp a b = Insn.Insn ("cmpl", [ r a; r b ]) in
  let ret k = [ Insn.Insn (s.sp_mv, [ r k; Mode.Reg 0 ]); Insn.Ret ] in
  let g = Label.gen () in
  let top = Label.fresh g and skip = Label.fresh g in
  (* v2 (the sum) and v0, v1 (counter, limit) live around the back edge *)
  let loop =
    [ li 0 0; li 10 1; li 0 2; Insn.Lab top; add 2 0 2; li 1 3; add 0 3 0;
      cmp 0 1; Insn.Branch (s.sp_bne, top) ]
    @ ret 2
  in
  (* v0 and v1 live across the conditional branch, v0 redefined on one
     path only *)
  let branch =
    [ li 5 0; li 7 1; cmp 0 1; Insn.Branch (s.sp_bge, skip); add 0 1 0;
      Insn.Lab skip; add 0 1 2 ]
    @ ret 2
  in
  (* twelve values live across a loop that reads them all: more than
     either bank holds; v12 counts, v13 limits, v14 accumulates *)
  let k = 12 in
  let pressure =
    List.init k (fun j -> li (j + 1) j)
    @ [ li 0 12; li 3 13; li 0 14; Insn.Lab top ]
    @ List.init k (fun j -> add j 14 14)
    @ [ li 1 15; add 12 15 12; cmp 12 13; Insn.Branch (s.sp_bne, top) ]
    @ List.init k (fun j -> add j 14 14)
    @ ret 14
  in
  [ ("loop", 4, loop); ("branch", 3, branch); ("pressure", 16, pressure) ]

let general_input target nvregs insns =
  let backend = Targets.backend_of target in
  {
    Driver.ci_backend = backend;
    ci_bank = backend.Backend.alloc_regs;
    ci_frame = Frame.create ~locals_size:0 ~temps:[];
    ci_vinfo = vinfo nvregs;
    ci_heat = [];
    ci_prov = [];
    ci_insns = insns;
  }

(* MD5 of the colored stream as rendered, the frame size and every
   allocation statistic *)
let general_digest target (ci : Driver.color_input) =
  let out, _, st = Driver.run_color ci in
  let backend = Targets.backend_of target in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map backend.Backend.render_insn out
          @ [
              Printf.sprintf "frame %d rounds %d coalesced %d self %d spilled %d \
                              stores %d reloads %d"
                (Frame.size ci.Driver.ci_frame) st.Color.rounds st.Color.coalesced
                st.Color.self_moves_deleted st.Color.spilled_ranges
                st.Color.spill_stores st.Color.spill_reloads;
            ])))

(* recorded on the colorer whose block dataflow ran over every node *)
let general_expected =
  [
    ( "vax",
      [
        ("loop", "581020ab5d866f8fd867adb28b7297c8");
        ("branch", "bc2c1243f5d8bbadbd6d602c19abd783");
        ("pressure", "9a9c01e23e80dad734a93cb0f668fed7");
      ] );
    ( "risc",
      [
        ("loop", "03df34235de290b4ebac192ea888e050");
        ("branch", "4f49eba4099a46cf2159fe6a60444120");
        ("pressure", "89a68b77f519de6daeff5df8fa8bdcfc");
      ] );
  ]

let test_general_streams () =
  List.iter
    (fun target ->
      let tname = Targets.name target in
      let backend = Targets.backend_of target in
      let mn =
        Liveness.mnemonics ~ra:backend.Backend.regalloc
          ~move_mnemonics:(move_mnemonics backend) ~is_jump:(is_jump backend)
      in
      List.iter
        (fun (name, nv, insns) ->
          let what = tname ^ " " ^ name in
          (match analysis_mismatches (general_input target nv insns) with
          | [] -> ()
          | errs -> Alcotest.failf "%s: %s" what (String.concat "; " errs));
          (* the case the stream is there for *)
          let lv = Liveness.analyze mn ~vbase ~nvregs:nv (Array.of_list insns) in
          let live_out k =
            List.exists
              (fun b -> Liveness.live_out_mem lv b (Liveness.node_of lv (v k)))
              (List.init lv.Liveness.nblocks Fun.id)
          in
          let _, _, st = Driver.run_color (general_input target nv insns) in
          (match name with
          | "loop" ->
            Alcotest.(check bool) (what ^ ": the sum is live out of a block") true
              (live_out 2)
          | "branch" ->
            Alcotest.(check bool) (what ^ ": v1 is live across the branch") true
              (live_out 1)
          | _ ->
            Alcotest.(check bool) (what ^ ": values live across the loop") true
              (live_out 0);
            Alcotest.(check bool) (what ^ ": spills") true
              (st.Color.spilled_ranges > 0));
          let want =
            List.assoc name (List.assoc tname general_expected)
          in
          Alcotest.(check string) (what ^ ": colored output") want
            (general_digest target (general_input target nv insns)))
        (general_streams target))
    Targets.all

(* -- exact allocation counts of the colorer ------------------------------- *)

(* Words the colorer allocates per input instruction over the fixed
   function set below, both exact (they repeat run to run): minor words
   (211 on the list-based colorer, 37.14 on the flat-array one) and
   words allocated straight into the major heap, as every array longer
   than 256 words is (27.85 on the flat-array colorer, whose dense live
   sets and interference matrix grew with the square of the function,
   and whose working arrays were allocated anew for every function). *)
let colorer_words_per_insn = 22.13
let colorer_major_words_per_insn = 11.65

(* One colorer run on [ci]: its minor words and its words allocated
   straight into the major heap (major minus promoted), after checking
   that it ran no more minor collections than its own allocation
   explains. *)
let colorer_words what (ci : Driver.color_input) =
  let minor_heap = float_of_int (Gc.get ()).Gc.minor_heap_size in
  (* from an emptied minor heap, only the colorer's own allocation may
     fill it *)
  Gc.minor ();
  let c0 = (Gc.quick_stat ()).Gc.minor_collections in
  let _, p0, m0 = Gc.counters () in
  let w0 = Gc.minor_words () in
  ignore (Driver.run_color ci);
  let w = Gc.minor_words () -. w0 in
  let _, p1, m1 = Gc.counters () in
  let c = (Gc.quick_stat ()).Gc.minor_collections - c0 in
  let bound = int_of_float (Float.ceil (w /. minor_heap)) + 1 in
  if c > bound then
    Alcotest.failf "%s: %d minor collections for %.0f minor words (at most %d)"
      what c w bound;
  (w, m1 -. m0 -. (p1 -. p0))

let test_colorer_allocation_counts () =
  let tables = Targets.default_tables Backend.Risc in
  let sources =
    List.init 50 (fun seed ->
        Corpus.random_source ~seed ~functions:(1 + (seed mod 3))
          ~stmts_per_function:(10 + (seed mod 15)))
    @ [ straight_line_source ~seed:15 ~stmts:600 ~vars:12 ]
  in
  let minor = ref 0.0 and major = ref 0.0 and insns = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun (f : Tree.func) ->
          let ci = Driver.color_input ~options:color_options tables f in
          insns := !insns + List.length ci.Driver.ci_insns;
          let w, d = colorer_words f.Tree.fname ci in
          minor := !minor +. w;
          major := !major +. d)
        (Sema.compile src).Tree.funcs)
    sources;
  let per_insn x = x /. float_of_int !insns in
  if per_insn !minor > colorer_words_per_insn then
    Alcotest.failf "%.2f minor words per input instruction, over %.2f"
      (per_insn !minor) colorer_words_per_insn;
  if per_insn !major > colorer_major_words_per_insn then
    Alcotest.failf "%.2f direct major words per input instruction, over %.2f"
      (per_insn !major) colorer_major_words_per_insn;
  (* linearity: a straight-line function five times longer allocates no
     more per instruction, give or take half (the colorer's working
     arrays are reused, so each function is measured on its second
     run) *)
  let major_per_insn stmts =
    let src = straight_line_source ~seed:15 ~stmts ~vars:12 in
    let f = List.hd (Sema.compile src).Tree.funcs in
    let run () =
      let ci = Driver.color_input ~options:color_options tables f in
      let _, d = colorer_words f.Tree.fname ci in
      d /. float_of_int (List.length ci.Driver.ci_insns)
    in
    ignore (run ());
    run ()
  in
  let short = major_per_insn 600 and long = major_per_insn 3000 in
  if long > 1.5 *. short then
    Alcotest.failf
      "3000-statement function: %.1f direct major words per instruction, over \
       1.5x the 600-statement one's %.1f"
      long short

let suite =
  [
    Alcotest.test_case "def/use: VAX operand classification" `Quick test_def_use;
    Alcotest.test_case "liveness: straight-line block structure" `Quick
      test_liveness_straight_line;
    Alcotest.test_case "interference: live ranges conflict" `Quick
      test_interference_edges;
    Alcotest.test_case "interference: moves do not conflict" `Quick
      test_move_does_not_interfere;
    Alcotest.test_case "liveness: natural-loop depths" `Quick test_loop_depth;
    Alcotest.test_case "color: coalescing deletes the copy chain" `Quick
      test_coalesce_deletes_move_chain;
    Alcotest.test_case "color: cc-feeding self-move survives" `Quick
      test_cc_protected_move_survives;
    Alcotest.test_case "color: spills under register pressure" `Quick
      test_spill_under_pressure;
    Alcotest.test_case "color: spill code carries provenance marks" `Quick
      test_spill_provenance_marks;
    Alcotest.test_case "heat: JSON parser" `Quick test_parse_heat;
    Alcotest.test_case "e2e: spill-heavy program agrees, color not slower"
      `Quick test_pressure_program_agrees;
    Alcotest.test_case "e2e: colored output byte-identical under -j" `Quick
      test_byte_determinism_across_jobs;
    Alcotest.test_case "metrics: spill counters exact under -j" `Quick
      test_spill_metrics_exact_across_jobs;
    QCheck_alcotest.to_alcotest ~long:false prop_stack_color_parity;
    Alcotest.test_case "golden: colored assembly and spill counts pinned"
      `Quick test_golden_colored_output;
    Alcotest.test_case
      "golden: stack assembly and --explain provenance pinned, both targets"
      `Quick test_golden_stack_and_explain;
    Alcotest.test_case "bits: full, last-only and empty sets at word edges"
      `Quick test_bits_edges;
    QCheck_alcotest.to_alcotest ~long:false prop_bits_model;
    Alcotest.test_case
      "analysis: flat arrays equal the list-based reference on corpus seeds \
       0..99, both targets"
      `Quick test_analysis_matches_reference_corpus;
    QCheck_alcotest.to_alcotest ~long:false prop_analysis_matches_reference;
    Alcotest.test_case "color: exact minor-heap counts on fixed functions"
      `Quick test_colorer_allocation_counts;
    Alcotest.test_case
      "analysis and colored output: virtual registers live across blocks, \
       both targets"
      `Quick test_general_streams;
  ]
