(* Unit tests for the grammar library: symbol interning, schemas /
   type replication, grammar construction and well-formedness. *)

open Gg_grammar
module Dtype = Gg_ir.Dtype

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* -- Symtab --------------------------------------------------------------- *)

let test_symtab_classification () =
  let t = Symtab.create () in
  (match Symtab.intern t "Plus.l" with
  | Symtab.T 0 -> ()
  | _ -> Alcotest.fail "first terminal should get index 0");
  (match Symtab.intern t "reg.l" with
  | Symtab.N 0 -> ()
  | _ -> Alcotest.fail "first nonterminal should get index 0");
  (* idempotent interning *)
  (match Symtab.intern t "Plus.l" with
  | Symtab.T 0 -> ()
  | _ -> Alcotest.fail "re-interning changed the id");
  check_int "terms" 1 (Symtab.n_terms t);
  check_int "nonterms" 1 (Symtab.n_nonterms t);
  check_str "name back" "Plus.l" (Symtab.name t (Symtab.T 0))

let test_symtab_find () =
  let t = Symtab.create () in
  ignore (Symtab.intern t "Const.b");
  (match Symtab.find t "Const.b" with
  | Some (Symtab.T _) -> ()
  | _ -> Alcotest.fail "find failed");
  match Symtab.find t "missing" with
  | None -> ()
  | Some _ -> Alcotest.fail "found a symbol never interned"

(* Every terminal of both targets owns a slot of [term_id]'s cache, so a
   token name is recognised by pointer after its first lookup rather than
   evicting another terminal's entry; and [term_id] agrees with [find]
   for every name, asked of either grammar in an interleaved order, with
   the interned strings, fresh copies of them and names of no terminal. *)
let test_term_cache_pointer_exact () =
  let grammars =
    [
      ("vax", Lazy.force Gg_vax.Grammar_def.default_grammar);
      ("risc", Lazy.force Gg_risc.Grammar_def.default_grammar);
    ]
  in
  List.iter
    (fun (name, (g : Grammar.t)) ->
      let st = g.Grammar.symtab in
      let n = Symtab.n_terms st in
      let slots = List.init n (Symtab.term_slot st) in
      check_int (name ^ ": terminals with a slot of their own") n
        (List.length (List.sort_uniq compare slots)))
    grammars;
  let symtabs = List.map (fun (_, (g : Grammar.t)) -> g.Grammar.symtab) grammars in
  let most f = List.fold_left (fun m st -> max m (f st)) 0 symtabs in
  let names =
    List.concat
      (List.init (most Symtab.n_terms) (fun i ->
           List.concat_map
             (fun st ->
               let term =
                 if i < Symtab.n_terms st then [ Symtab.term_name st i ] else []
               in
               let nonterm =
                 if i < Symtab.n_nonterms st then [ Symtab.nonterm_name st i ]
                 else []
               in
               term
               @ List.map (fun s -> String.sub s 0 (String.length s)) term
               @ nonterm
               @ [ Printf.sprintf "Unknown.%d" i ])
             symtabs))
  in
  for pass = 1 to 2 do
    List.iter
      (fun s ->
        List.iter2
          (fun (gname, _) st ->
            let want =
              match Symtab.find st s with Some (Symtab.T i) -> i | _ -> -1
            in
            check_int
              (Printf.sprintf "pass %d, %s: term_id %S" pass gname s)
              want (Symtab.term_id st s))
          grammars symtabs)
      names
  done

(* -- Schema --------------------------------------------------------------- *)

let test_subst () =
  check_str "simple" "Plus.l"
    (Schema.subst ~vars:[ ('t', "l") ] "Plus.$t");
  check_str "two vars" "Cvt.bl"
    (Schema.subst ~vars:[ ('f', "b"); ('t', "l") ] "Cvt.$f$t");
  check_str "scale" "Four.l"
    (Schema.subst ~vars:[ ('c', "Four") ] "$c.l");
  match Schema.subst ~vars:[] "$z" with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "unknown variable accepted: %s" s

let test_scale_tokens () =
  check_str "byte" "One" (Schema.scale_token Dtype.Byte);
  check_str "word" "Two" (Schema.scale_token Dtype.Word);
  check_str "long" "Four" (Schema.scale_token Dtype.Long);
  check_str "dbl" "Eight" (Schema.scale_token Dtype.Dbl)

(* the schemas of a one-production description *)
let schema_of src =
  match
    Mdg.schemas ~flags:[] ~types:Dtype.all (Mdg.parse ("%start s\n" ^ src))
  with
  | [ sch ] -> sch
  | schs -> Alcotest.failf "%d schemas, not one" (List.length schs)

let test_typed_expansion () =
  let sch =
    schema_of
      "%class I = b w l\n\
       reg.$t <- Plus.$t rval.$t rval.$t [emit add.$t] %over I\n"
  in
  let specs = Schema.expand sch in
  check_int "three copies" 3 (List.length specs);
  match specs with
  | (lhs, rhs, action, _) :: _ ->
    check_str "lhs" "reg.b" lhs;
    Alcotest.(check (list string)) "rhs" [ "Plus.b"; "rval.b"; "rval.b" ] rhs;
    (match action with
    | Action.Emit "add.b" -> ()
    | a -> Alcotest.failf "wrong action %a" Action.pp a)
  | [] -> Alcotest.fail "no expansion"

let test_pairs_expansion () =
  let sch =
    schema_of
      "%class F = b w\n%class T = l\n\
       reg.$t <- Cvt.$f$t rval.$f [emit cvt.$f$t] %pairs F T\n"
  in
  match Schema.expand sch with
  | [ (l1, r1, _, _); (l2, r2, _, _) ] ->
    check_str "lhs 1" "reg.l" l1;
    Alcotest.(check (list string)) "rhs 1" [ "Cvt.bl"; "rval.b" ] r1;
    check_str "lhs 2" "reg.l" l2;
    Alcotest.(check (list string)) "rhs 2" [ "Cvt.wl"; "rval.w" ] r2
  | _ -> Alcotest.fail "wrong expansion count"

let test_scale_substitution_in_rhs () =
  let sch =
    schema_of
      "%class L = l\n\
       dx.$t <- Plus.l Const.l reg.l Mul.l $c.l reg.l [mode dx] %over L\n"
  in
  match Schema.expand sch with
  | [ (_, rhs, _, _) ] ->
    Alcotest.(check (list string)) "scale token"
      [ "Plus.l"; "Const.l"; "reg.l"; "Mul.l"; "Four.l"; "reg.l" ]
      rhs
  | _ -> Alcotest.fail "wrong expansion count"

(* -- Grammar -------------------------------------------------------------- *)

let test_toy_grammar_stats () =
  let s = Grammar.stats Toy.grammar in
  check_int "productions" (List.length Toy.specs) s.Grammar.productions;
  check_int "chains" 5 s.Grammar.chain_productions;
  check_int "longest rhs" 5 s.Grammar.max_rhs

let test_rejects_empty_rhs () =
  match Grammar.make ~start:"s" [ ("s", [], Action.Chain, "") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted empty rhs"

let test_rejects_terminal_lhs () =
  match Grammar.make ~start:"s" [ ("Splat", [ "s" ], Action.Chain, "") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted terminal lhs"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_rejects_undefined_nonterminal () =
  match
    Grammar.make ~start:"s" [ ("s", [ "ghost" ], Action.Chain, "") ]
  with
  | Error msg ->
    Alcotest.(check bool) "mentions ghost" true (contains msg "ghost")
  | Ok _ -> Alcotest.fail "accepted undefined nonterminal"

let test_rejects_duplicates () =
  match
    Grammar.make ~start:"s"
      [
        ("s", [ "X" ], Action.Chain, "");
        ("s", [ "X" ], Action.Emit "dup", "");
      ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted duplicate production"

let test_check_unreachable () =
  let g =
    Grammar.make_exn ~start:"s"
      [
        ("s", [ "X" ], Action.Chain, "");
        ("island", [ "Y" ], Action.Chain, "");
      ]
  in
  let report = Grammar.check g in
  Alcotest.(check (list string)) "unreachable" [ "island" ]
    report.Grammar.unreachable;
  Alcotest.(check (list string)) "unproductive" [] report.Grammar.unproductive

let test_check_unproductive () =
  let g =
    Grammar.make_exn ~start:"s"
      [
        ("s", [ "X" ], Action.Chain, "");
        ("s", [ "loop" ], Action.Chain, "");
        ("loop", [ "loop"; "X" ], Action.Chain, "");
      ]
  in
  let report = Grammar.check g in
  Alcotest.(check (list string)) "unproductive" [ "loop" ]
    report.Grammar.unproductive

(* -- Mdg text format ------------------------------------------------------- *)

let sample_mdg =
  {|
%start stmt
%class I = b w l

# a tiny description
imm.$t <- Const.$t [mode imm] %over I ; immediate
rval.$t <- imm.$t [chain] %over I
reg.$t <- Plus.$t rval.$t rval.$t [emit add.$t] %over I
reg.$t <- Cvt.$f$t rval.$f [emit cvt.$f$t] %pairs I I
rval.$t <- reg.$t [chain] %over I
stmt <- Assign.l lval.l rval.l [emit mov.l]
lval.l <- Name.l [mode name]
|}

let test_mdg_parse () =
  let mdg = Mdg.parse sample_mdg in
  check_str "start" "stmt" mdg.Mdg.start;
  check_int "one class" 1 (List.length mdg.Mdg.classes);
  check_int "schemas" 7 (List.length mdg.Mdg.productions);
  let g = Mdg.to_grammar ~flags:[] ~types:Dtype.all mdg in
  (* 3 imm + 3 rval-chain + 3 add + 6 cvt pairs + 3 reg-chain + 2 literals *)
  check_int "expanded productions" 20 (Grammar.stats g).Grammar.productions;
  (* cutting the class to one type drops the conversions (no pair of
     distinct types is left) but keeps the literals *)
  let g = Mdg.to_grammar ~flags:[] ~types:[ Dtype.Long ] mdg in
  check_int "long-only productions" 6 (Grammar.stats g).Grammar.productions

(* every malformed description is an [Mdg_error] at the line at fault,
   whether [parse] or [to_grammar] finds it *)
let test_mdg_errors () =
  let expect_line n src =
    match
      Mdg.to_grammar ~flags:[ ("on", true) ] ~types:Dtype.all (Mdg.parse src)
    with
    | exception Mdg.Mdg_error (l, _) ->
      check_int (Fmt.str "error line of %S" src) n l
    | _ -> Alcotest.failf "bad description accepted: %S" src
  in
  (* missing %start *)
  expect_line 0 "x <- Y [chain]\n";
  (* missing action *)
  expect_line 2 "%start s\ns <- X\n";
  (* unknown class *)
  expect_line 2 "%start s\ns <- X [emit e] %over NOPE\n";
  (* a variable no %over binds *)
  expect_line 2 "%start stmt\nstmt <- Name.$t [emit x.$t]\n";
  (* $f is bound by %pairs only *)
  expect_line 3 "%start s\n%class I = b l\ns <- Cvt.$f$t [chain] %over I\n";
  (* an undefined non-terminal *)
  expect_line 2 "%start stmt\nstmt <- Assign.l lval.l Const.l [emit mov.l]\n";
  (* a duplicate class name *)
  expect_line 3 "%start s\n%class I = b\n%class I = l\ns <- X [chain]\n";
  (* a directive run into its argument *)
  expect_line 1 "%startstmt\nstmt <- X [chain]\n";
  (* a bare %start, a second one, a terminal one *)
  expect_line 1 "%start\nstmt <- X [chain]\n";
  expect_line 2 "%start s\n%start t\ns <- X [chain]\n";
  expect_line 1 "%start S\ns <- X [chain]\n";
  (* a start symbol with no productions, in the text or under its flags *)
  expect_line 1 "%start s\nt <- X [chain]\n";
  expect_line 1 "%start s\ns <- X [chain] %if !on\n";
  (* a flag the caller does not define *)
  expect_line 2 "%start s\ns <- X [chain] %if nope\n";
  (* a duplicate production *)
  expect_line 3 "%start s\ns <- X [chain]\ns <- X [emit e]\n";
  (* a terminal left-hand side *)
  expect_line 2 "%start s\nS <- X [chain]\ns <- X [chain]\n"

(* Every option combination in use builds a pinned grammar, by
   production count and [Grammar.digest]: the 16 VAX flag settings and
   RISC with and without reverse operators.  Production order fixes
   state numbering and the grammar-order tie-break, so an edit to a
   .mdg file that moves a digest must be deliberate. *)
let test_mdg_digests_pinned () =
  let module V = Gg_vax.Grammar_def in
  let check name g n digest =
    check_int (name ^ ": productions") n (Grammar.n_productions g);
    check_str (name ^ ": digest") digest (Grammar.digest g)
  in
  List.iter
    (fun (reverse_ops, overfactored, with_bridges, condition_code_fix, n, digest) ->
      check
        (Fmt.str "vax r=%b o=%b b=%b c=%b" reverse_ops overfactored
           with_bridges condition_code_fix)
        (V.grammar
           { V.default with V.reverse_ops; overfactored; with_bridges; condition_code_fix })
        n digest)
    [
      (true, false, true, true, 407, "69e3cbb5ff437ee4564bceb87ab24a37");
      (true, false, true, false, 404, "11bdcccb16b3108df697dc42ee158d48");
      (true, false, false, true, 372, "2a415c6a08b423f3ae92607b3e571ee1");
      (true, false, false, false, 369, "072a14c28acd35ca0f239f87ab7de8b5");
      (true, true, true, true, 401, "2f6191c44667fe617b29ac2628b6bc5e");
      (true, true, true, false, 398, "5a44e2a2c2354b6fc550e4a2325a19f7");
      (true, true, false, true, 366, "ed05ac7a12d2a34b599b6f5c4ca871e5");
      (true, true, false, false, 363, "f579fd2ae8fda99462d7350bf6172d1d");
      (false, false, true, true, 357, "b459c58201422d35e264c0514959c377");
      (false, false, true, false, 354, "c94f24599146c982d282ef503fb4bac3");
      (false, false, false, true, 322, "3495d5e780ea5174852cf0e2e124ca5e");
      (false, false, false, false, 319, "df4ea3196195f692a26dbb34f97b8efe");
      (false, true, true, true, 351, "f4d759150b0470c0fb08ce4302f0e248");
      (false, true, true, false, 348, "e7e22d001da12e991553e348d939ff70");
      (false, true, false, true, 316, "75f7ef2c9ac659eb1845db0826371803");
      (false, true, false, false, 313, "93c49ff0415ec1d4eb3f064f3145a7f5");
    ];
  List.iter
    (fun (reverse_ops, n, digest) ->
      check
        (Fmt.str "risc r=%b" reverse_ops)
        (Gg_risc.Grammar_def.grammar { V.default with V.reverse_ops })
        n digest)
    [
      (true, 283, "cf511208be602b329d71812bba5082c1");
      (false, 253, "426ad54feed681b7cc4c61b1eeee1079");
    ];
  check_int "vax generic schemas" 114 (List.length (V.schemas V.default));
  check_int "risc generic schemas" 79
    (List.length (Gg_risc.Grammar_def.schemas V.default))

let suite =
  [
    Alcotest.test_case "symtab classification" `Quick test_symtab_classification;
    Alcotest.test_case "symtab find" `Quick test_symtab_find;
    Alcotest.test_case
      "symtab: term_id is pointer-exact, one cache slot per terminal"
      `Quick test_term_cache_pointer_exact;
    Alcotest.test_case "subst" `Quick test_subst;
    Alcotest.test_case "scale tokens" `Quick test_scale_tokens;
    Alcotest.test_case "typed expansion" `Quick test_typed_expansion;
    Alcotest.test_case "pairs expansion" `Quick test_pairs_expansion;
    Alcotest.test_case "scale substitution in rhs" `Quick
      test_scale_substitution_in_rhs;
    Alcotest.test_case "toy grammar stats" `Quick test_toy_grammar_stats;
    Alcotest.test_case "rejects empty rhs" `Quick test_rejects_empty_rhs;
    Alcotest.test_case "rejects terminal lhs" `Quick test_rejects_terminal_lhs;
    Alcotest.test_case "rejects undefined nonterminal" `Quick
      test_rejects_undefined_nonterminal;
    Alcotest.test_case "rejects duplicates" `Quick test_rejects_duplicates;
    Alcotest.test_case "unreachable nonterminal reported" `Quick
      test_check_unreachable;
    Alcotest.test_case "unproductive nonterminal reported" `Quick
      test_check_unproductive;
    Alcotest.test_case "mdg parse" `Quick test_mdg_parse;
    Alcotest.test_case "mdg errors" `Quick test_mdg_errors;
    Alcotest.test_case "mdg roundtrip of the VAX description" `Quick
      test_mdg_digests_pinned;
  ]
