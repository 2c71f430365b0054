(* Tests for the table constructor: FIRST/FOLLOW, LR(0) automata,
   SLR tables with maximal-munch conflict resolution, naive-vs-optimised
   equivalence, and the static checks. *)

open Gg_grammar
open Gg_tablegen
module Dtype = Gg_ir.Dtype

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let term_id g name =
  match Symtab.find g.Grammar.symtab name with
  | Some (Symtab.T a) -> a
  | _ -> Alcotest.failf "terminal %s not in grammar" name

let nonterm_id g name =
  match Symtab.find g.Grammar.symtab name with
  | Some (Symtab.N n) -> n
  | _ -> Alcotest.failf "nonterminal %s not in grammar" name

(* -- FIRST / FOLLOW ------------------------------------------------------- *)

let test_first_sets () =
  let g = Toy.grammar in
  let f = First.compute g in
  let first_names n =
    List.map (Symtab.term_name g.Grammar.symtab) (First.first f n)
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "FIRST(stmt)" [ "Assign.l" ]
    (first_names (nonterm_id g "stmt"));
  Alcotest.(check (list string)) "FIRST(rval.l)"
    [ "Const.l"; "Dreg.l"; "Mul.l"; "Name.l"; "Plus.l" ]
    (first_names (nonterm_id g "rval.l"));
  Alcotest.(check (list string)) "FIRST(imm.l)" [ "Const.l" ]
    (first_names (nonterm_id g "imm.l"))

let test_follow_sets () =
  let g = Toy.grammar in
  let f = First.compute g in
  (* the start symbol is followed by eof *)
  check_bool "eof in FOLLOW(stmt)" true
    (First.mem_follow f (nonterm_id g "stmt") (First.eof f));
  (* an rval can be followed by the start of another rval (first operand
     position of the three-address adds) *)
  check_bool "Name.l in FOLLOW(rval.l)" true
    (First.mem_follow f (nonterm_id g "rval.l") (term_id g "Name.l"))

(* -- LR(0) construction --------------------------------------------------- *)

let test_lr0_has_states () =
  let auto = Lr0.build Toy.grammar in
  check_bool "more than 10 states" true (auto.Automaton.n_states > 10);
  (* state 0 kernel is the augmented item *)
  check_int "state 0 kernel size" 1 (Array.length auto.Automaton.kernels.(0))

let test_naive_equals_lr0 () =
  let a = Lr0.build Toy.grammar in
  let b = Naive.build Toy.grammar in
  check_int "same state count" a.Automaton.n_states b.Automaton.n_states;
  for s = 0 to a.Automaton.n_states - 1 do
    Alcotest.(check (array int))
      (Fmt.str "kernel of state %d" s)
      a.Automaton.kernels.(s) b.Automaton.kernels.(s);
    Alcotest.(check (list (pair int int)))
      (Fmt.str "term moves of state %d" s)
      a.Automaton.term_moves.(s) b.Automaton.term_moves.(s);
    Alcotest.(check (list (pair int int)))
      (Fmt.str "nonterm moves of state %d" s)
      a.Automaton.nonterm_moves.(s) b.Automaton.nonterm_moves.(s)
  done

(* -- SLR tables and maximal munch ----------------------------------------- *)

let tables = lazy (Tables.build Toy.grammar)

let test_tables_accept_entry () =
  let t = Lazy.force tables in
  (* after goto on the start symbol from state 0, eof must Accept *)
  let s1 = t.Tables.goto_.(0).(Toy.grammar.Grammar.start) in
  check_bool "goto on start defined" true (s1 >= 0);
  match t.Tables.action.(s1).(Tables.eof t) with
  | Tables.Accept -> ()
  | _ -> Alcotest.fail "no accept action"

let test_shift_preferred () =
  let t = Lazy.force tables in
  (* conflicts were resolved, and at least one shift/reduce conflict
     exists in this ambiguous grammar *)
  check_bool "some shift/reduce conflicts" true
    (t.Tables.conflicts.Tables.shift_reduce > 0)

let test_stats_consistent () =
  let t = Lazy.force tables in
  let s = Tables.stats t in
  check_int "states match automaton" t.Tables.automaton.Automaton.n_states
    s.Tables.states;
  check_bool "has action entries" true (s.Tables.action_entries > 0);
  check_bool "has goto entries" true (s.Tables.goto_entries > 0)

(* -- static checks -------------------------------------------------------- *)

let test_chain_cycles () =
  let report = Checks.chains Toy.grammar in
  (* reg.l <- rval.l (emit) and rval.l <- reg.l (chain) form an emitting
     cycle; there must be no silent cycle *)
  Alcotest.(check (list (list string))) "no silent cycles" []
    report.Checks.silent_cycles;
  check_bool "emitting cycle found" true
    (List.exists
       (fun cyc ->
         List.sort String.compare cyc = [ "reg.l"; "rval.l" ])
       report.Checks.emitting_cycles)

let test_silent_cycle_detected () =
  let g =
    Grammar.make_exn ~start:"s"
      [
        ("s", [ "a" ], Action.Chain, "");
        ("a", [ "b" ], Action.Chain, "");
        ("b", [ "a" ], Action.Chain, "");
        ("b", [ "X" ], Action.Chain, "");
      ]
  in
  let report = Checks.chains g in
  check_bool "cycle a<->b found" true
    (List.exists
       (fun cyc -> List.sort String.compare cyc = [ "a"; "b" ])
       report.Checks.silent_cycles)

(* Tree-language description for the toy grammar: arities of the
   operator terminals and the terminals that may begin the subtree at
   each (parent operator, child index) position. *)
let toy_arity = function
  | "Assign.l" | "Plus.l" | "Mul.l" -> 2
  | _ -> 0

let long_starts = [ "Plus.l"; "Mul.l"; "Const.l"; "Name.l"; "Dreg.l" ]

let toy_starts ~parent ~child =
  match (parent, child) with
  | None, _ -> [ "Assign.l" ]
  | Some "Assign.l", 0 -> [ "Name.l"; "Dreg.l" ] (* destinations are lvalues *)
  | Some ("Assign.l" | "Plus.l" | "Mul.l"), _ -> long_starts
  | Some _, _ -> []

let test_no_blocks_in_toy () =
  let t = Lazy.force tables in
  let blocks = Checks.blocks t ~arity:toy_arity ~starts:toy_starts in
  match blocks with
  | [] -> ()
  | b :: _ -> Alcotest.failf "unexpected block: %a" Checks.pp_block b

let test_block_detected_when_production_missing () =
  (* remove the general register add so that an operand position cannot
     accept Mul-rooted subtrees: the checker must flag it *)
  let specs =
    List.filter
      (fun (_, rhs, _, _) -> rhs <> [ "Mul.l"; "rval.l"; "rval.l" ])
      Toy.specs
  in
  let g = Grammar.make_exn ~start:"stmt" specs in
  let t = Tables.build g in
  let blocks = Checks.blocks t ~arity:toy_arity ~starts:toy_starts in
  check_bool "Mul.l blocks somewhere" true
    (List.exists (fun b -> b.Checks.terminal = "Mul.l") blocks)

(* -- packed tables --------------------------------------------------------- *)

(* Packed.verify over the toy tables, profile-free and under a skewed
   synthetic heat (the toy grammar has no corpus) that leaves states
   cold: exact parity, error cells included — the validity bitset keeps
   default reductions from leaking into error entries.  suite_packed
   runs the same proof over both targets. *)
let test_packed_roundtrip_toy () =
  let t = Lazy.force tables in
  let profile =
    Heat.of_counts
      (List.init (Grammar.n_productions Toy.grammar) (fun id -> (id, 1 lsl id)))
  in
  let profiled = Packed.pack ~profile t in
  check_bool "the profiled layout has cold states" true
    (Array.length profiled.Packed.cold_off > 0);
  List.iter
    (fun (layout, packed) ->
      match Packed.verify packed t with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" layout m)
    [ ("profile-free", Packed.pack t); ("profiled", profiled) ]

let test_packed_vax_compression () =
  let t = Tables.build (Gg_vax.Grammar_def.grammar Gg_vax.Grammar_def.default) in
  let st = Packed.stats (Packed.pack t) in
  check_bool
    (Fmt.str "compresses the VAX tables (ratio %.2f)" st.Packed.ratio)
    true (st.Packed.ratio < 0.7)

let test_packed_save_load () =
  let t = Lazy.force tables in
  let packed = Packed.pack t in
  let path = Filename.temp_file "ggcg" ".tbl" in
  Packed.save packed path;
  let loaded = Packed.load Toy.grammar path in
  Sys.remove path;
  let g = Toy.grammar in
  let nt = Symtab.n_terms g.Grammar.symtab in
  for s = 0 to Tables.n_states t - 1 do
    for a = 0 to nt do
      if Packed.action packed s a <> Packed.action loaded s a then
        Alcotest.failf "loaded action (%d, %d) differs" s a
    done
  done;
  (* loading against a different grammar is rejected *)
  Packed.save packed path;
  (match Packed.load (Gg_vax.Grammar_def.grammar Gg_vax.Grammar_def.default) path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "mismatched grammar accepted");
  Sys.remove path

let suite =
  [
    Alcotest.test_case "FIRST sets" `Quick test_first_sets;
    Alcotest.test_case "FOLLOW sets" `Quick test_follow_sets;
    Alcotest.test_case "LR(0) builds" `Quick test_lr0_has_states;
    Alcotest.test_case "naive == optimised automaton" `Quick
      test_naive_equals_lr0;
    Alcotest.test_case "accept entry" `Quick test_tables_accept_entry;
    Alcotest.test_case "shift preferred in conflicts" `Quick
      test_shift_preferred;
    Alcotest.test_case "stats consistent" `Quick test_stats_consistent;
    Alcotest.test_case "chain cycle classification" `Quick test_chain_cycles;
    Alcotest.test_case "silent chain cycle detected" `Quick
      test_silent_cycle_detected;
    Alcotest.test_case "no blocks in toy grammar" `Quick test_no_blocks_in_toy;
    Alcotest.test_case "missing production causes block" `Quick
      test_block_detected_when_production_missing;
    Alcotest.test_case "packed tables roundtrip" `Quick
      test_packed_roundtrip_toy;
    Alcotest.test_case "packed tables compress the VAX tables" `Quick
      test_packed_vax_compression;
    Alcotest.test_case "packed tables save/load" `Quick test_packed_save_load;
  ]
