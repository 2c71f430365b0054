(* Differential tests for the packed (production) table representation:
   the full replicated VAX grammar corpus through dense and packed
   tables must produce identical values, traces and Reject errors; plus
   round-trip save/load, stale-grammar rejection, and the cache. *)

open Gg_grammar
open Gg_tablegen
open Gg_matcher
module Tree = Gg_ir.Tree
module Termname = Gg_ir.Termname
module Transform = Gg_transform.Transform
module Grammar_def = Gg_vax.Grammar_def
module Driver = Gg_codegen.Driver
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus

let vax_grammar = lazy (Grammar_def.grammar Grammar_def.default)
let dense = lazy (Tables.build (Lazy.force vax_grammar))
let packed = lazy (Packed.pack (Lazy.force dense))
let dense_engine = lazy (Matcher.engine (Lazy.force dense))

let packed_engine =
  lazy
    (Matcher.packed_engine ~grammar:(Lazy.force vax_grammar)
       (Lazy.force packed))

let null_cb : unit Matcher.callbacks =
  {
    Matcher.on_shift = (fun _ -> ());
    on_reduce = (fun _ _ -> ());
    choose = (fun _ _ -> 0);
  }

(* every matcher-ready statement tree of a compiled program *)
let stmt_trees prog =
  List.concat_map
    (fun (f : Tree.func) ->
      let tr = Transform.run f in
      List.filter_map
        (function Tree.Stree t -> Some t | _ -> None)
        tr.Transform.func.Tree.body)
    prog.Tree.funcs

let corpus_trees =
  lazy
    (let fixed =
       List.concat_map
         (fun (_, src) -> stmt_trees (Sema.compile src))
         Corpus.fixed_programs
     in
     let random =
       List.concat_map
         (fun seed ->
           stmt_trees
             (Sema.lower_program
                (Corpus.program ~seed ~functions:2 ~stmts_per_function:8)))
         [ 1; 2; 3; 4; 5 ]
     in
     (* the typed-tree corpus reaches byte/word/float and conversion
        productions that C's promotion rules bypass *)
     let typed =
       List.concat_map
         (fun seed -> stmt_trees (Gg_ir.Treegen.program ~seed ~stmts:12))
         [ 1; 2; 3; 4; 5; 6; 7; 8 ]
     in
     fixed @ random @ typed)

let run_outcome engine tokens =
  match Matcher.run_engine ~trace:true engine null_cb tokens with
  | outcome -> Ok outcome.Matcher.trace
  | exception Matcher.Reject e -> Error e

let check_same_outcome what tokens =
  let d = run_outcome (Lazy.force dense_engine) tokens in
  let p = run_outcome (Lazy.force packed_engine) tokens in
  match (d, p) with
  | Ok dt, Ok pt ->
    if dt <> pt then Alcotest.failf "%s: traces differ" what
  | Error de, Error pe ->
    if de.Matcher.at <> pe.Matcher.at then
      Alcotest.failf "%s: error position differs (dense %d, packed %d)" what
        de.Matcher.at pe.Matcher.at;
    if de.Matcher.token <> pe.Matcher.token then
      Alcotest.failf "%s: error token differs (dense %s, packed %s)" what
        de.Matcher.token pe.Matcher.token;
    if de.Matcher.state <> pe.Matcher.state then
      Alcotest.failf "%s: error state differs (dense %d, packed %d)" what
        de.Matcher.state pe.Matcher.state;
    if de.Matcher.expected <> pe.Matcher.expected then
      Alcotest.failf "%s: expected sets differ (dense %a, packed %a)" what
        Fmt.(Dump.list string)
        de.Matcher.expected
        Fmt.(Dump.list string)
        pe.Matcher.expected
  | Ok _, Error pe ->
    Alcotest.failf "%s: packed rejected (%a) where dense accepted" what
      Matcher.pp_error pe
  | Error de, Ok _ ->
    Alcotest.failf "%s: dense rejected (%a) where packed accepted" what
      Matcher.pp_error de

(* -- action-function parity on the full VAX tables ------------------------- *)

let test_vax_action_parity () =
  let t = Lazy.force dense in
  let p = Lazy.force packed in
  let g = Lazy.force vax_grammar in
  let nt = Symtab.n_terms g.Grammar.symtab in
  let nn = Symtab.n_nonterms g.Grammar.symtab in
  for s = 0 to Tables.n_states t - 1 do
    for a = 0 to nt do
      if t.Tables.action.(s).(a) <> Packed.action p s a then
        Alcotest.failf "action (%d, %d) differs" s a
    done;
    if Tables.expected t s <> Packed.expected p s then
      Alcotest.failf "expected set of state %d differs" s;
    for n = 0 to nn - 1 do
      if t.Tables.goto_.(s).(n) <> Packed.goto p s n then
        Alcotest.failf "goto (%d, %d) differs" s n
    done
  done

(* -- the corpus: identical traces on every statement tree ------------------ *)

let test_corpus_traces () =
  let trees = Lazy.force corpus_trees in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length trees > 100);
  List.iteri
    (fun i tree ->
      check_same_outcome (Fmt.str "tree %d" i) (Termname.linearize tree))
    trees

(* -- identical generated code through the full driver ---------------------- *)

let test_fixed_programs_same_assembly () =
  List.iter
    (fun (name, src) ->
      let prog = Sema.compile src in
      let via_dense =
        (Driver.compile_program
           ~tables:(Driver.of_engine ~backend:Gg_codegen.Backend.vax
                      (Lazy.force dense_engine))
           prog)
          .Driver.assembly
      in
      let via_packed =
        (Driver.compile_program
           ~tables:(Driver.of_engine ~backend:Gg_codegen.Backend.vax
                      (Lazy.force packed_engine))
           prog)
          .Driver.assembly
      in
      Alcotest.(check string) (Fmt.str "%s assembly" name) via_dense via_packed)
    Corpus.fixed_programs

(* -- error parity on broken inputs ----------------------------------------- *)

let broken_inputs () =
  (* truncations and corruptions of real linearisations: dense and
     packed must report the same syntactic block at the same token with
     the same expected set *)
  let trees = Lazy.force corpus_trees in
  let some_trees = List.filteri (fun i _ -> i mod 7 = 0) trees in
  List.concat_map
    (fun tree ->
      let tokens = Termname.linearize tree in
      let n = List.length tokens in
      let take k = List.filteri (fun i _ -> i < k) tokens in
      let swap k =
        (* duplicate the first token into position k: usually illegal *)
        List.mapi (fun i t -> if i = k then List.hd tokens else t) tokens
      in
      [ take (n / 2); take (n - 1); swap (n / 2); swap (n - 1) ])
    some_trees

let test_error_parity () =
  List.iteri
    (fun i tokens -> check_same_outcome (Fmt.str "broken input %d" i) tokens)
    (broken_inputs ())

(* -- save / load round trip ------------------------------------------------- *)

let test_vax_save_load_roundtrip () =
  let g = Lazy.force vax_grammar in
  let p = Lazy.force packed in
  let path = Filename.temp_file "ggcg" ".tbl" in
  Packed.save p path;
  let loaded = Packed.load g path in
  Sys.remove path;
  let t = Lazy.force dense in
  let nt = Symtab.n_terms g.Grammar.symtab in
  for s = 0 to Tables.n_states t - 1 do
    for a = 0 to nt do
      if Packed.action p s a <> Packed.action loaded s a then
        Alcotest.failf "loaded action (%d, %d) differs" s a
    done
  done;
  Alcotest.(check string) "digest survives" (Packed.digest p)
    (Packed.digest loaded)

let test_stale_grammar_rejected () =
  (* edit the grammar without changing any symbol counts: the old
     save-format validated only n_terms/n_nonterms and loaded wrong
     instructions silently; v2 must reject on the digest *)
  let edited =
    List.map
      (fun (lhs, rhs, action, note) ->
        if note = "addl3 a,b,d" then (lhs, rhs, action, "subl3 a,b,d")
        else (lhs, rhs, action, note))
      Toy.specs
  in
  let g = Toy.grammar in
  let g' = Grammar.make_exn ~start:"stmt" edited in
  Alcotest.(check bool)
    "same symbol counts" true
    (Symtab.n_terms g.Grammar.symtab = Symtab.n_terms g'.Grammar.symtab
    && Symtab.n_nonterms g.Grammar.symtab = Symtab.n_nonterms g'.Grammar.symtab);
  Alcotest.(check bool)
    "digests differ" true
    (Grammar.digest g <> Grammar.digest g');
  let p = Packed.pack (Tables.build g) in
  let path = Filename.temp_file "ggcg" ".tbl" in
  Packed.save p path;
  (match Packed.load g' path with
  | exception Failure msg ->
    Alcotest.(check bool)
      (Fmt.str "stale message names both digests: %s" msg)
      true
      (let has d =
         let n = String.length msg and k = String.length d in
         let rec go i = i + k <= n && (String.sub msg i k = d || go (i + 1)) in
         go 0
       in
       has (Grammar.digest g) && has (Grammar.digest g'))
  | _ -> Alcotest.fail "stale tables accepted");
  (* the unedited grammar still loads *)
  ignore (Packed.load g path);
  Sys.remove path

let test_corrupt_file_rejected () =
  let path = Filename.temp_file "ggcg" ".tbl" in
  let oc = open_out_bin path in
  output_string oc "ggcg-tables-v1 old junk";
  close_out oc;
  (match Packed.load Toy.grammar path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "v1/garbage file accepted");
  let oc = open_out_bin path in
  output_string oc "ggcg-tables-v2truncated";
  close_out oc;
  (match Packed.load Toy.grammar path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "truncated file accepted");
  Sys.remove path

(* -- the cache -------------------------------------------------------------- *)

let test_cache_miss_then_hit () =
  let dir = Filename.temp_file "ggcg-cache" "" in
  Sys.remove dir;
  let g = Toy.grammar in
  Alcotest.(check bool) "cold cache" true (Cache.load ~dir g = None);
  let p1 = Cache.load_or_build ~dir g in
  Alcotest.(check bool) "file created" true (Sys.file_exists (Cache.path ~dir g));
  (match Cache.load ~dir g with
  | None -> Alcotest.fail "warm cache missed"
  | Some p2 ->
    Alcotest.(check string) "same digest" (Packed.digest p1) (Packed.digest p2));
  (* an edited grammar misses (different digest -> different file) *)
  let edited =
    ("stmt", [ "Assign.l"; "lval.l"; "Mul.l"; "rval.l"; "rval.l" ],
     Gg_grammar.Action.Emit "mul.l", "mull3 a,b,d")
    :: Toy.specs
  in
  let g' = Grammar.make_exn ~start:"stmt" edited in
  Alcotest.(check bool) "edited grammar misses" true (Cache.load ~dir g' = None);
  (* cleanup *)
  Sys.remove (Cache.path ~dir g);
  Sys.rmdir dir

let test_cache_target_keys () =
  (* the retargeting regression: the same grammar cached for two
     targets must use distinct keys — a stale vax table must never be
     served for a risc request — and clear-stale must respect every
     target's live entry *)
  let dir = Filename.temp_file "ggcg-cache" "" in
  Sys.remove dir;
  let g = Toy.grammar in
  let vax_path = Cache.path ~dir ~target:"vax" g in
  let risc_path = Cache.path ~dir ~target:"risc" g in
  Alcotest.(check bool) "distinct files per target" false (vax_path = risc_path);
  let p = Cache.load_or_build ~dir ~target:"vax" g in
  Alcotest.(check bool) "vax entry on disk" true (Sys.file_exists vax_path);
  Alcotest.(check bool) "vax entry never serves a risc request" true
    (Cache.load ~dir ~target:"risc" g = None);
  ignore (Cache.store ~dir ~target:"risc" g p : bool);
  (match Cache.load ~dir ~target:"risc" g with
  | None -> Alcotest.fail "risc entry missed after store"
  | Some p2 ->
    Alcotest.(check string) "same digest" (Packed.digest p) (Packed.digest p2));
  (* both targets live: a clear pass removes nothing *)
  let removed = Cache.clear_stale ~dir [ ("vax", g); ("risc", g) ] in
  Alcotest.(check int) "both live entries kept" 0 (List.length removed);
  (* only vax live: the risc entry is stale and evicted, vax kept *)
  let removed = Cache.clear_stale ~dir [ ("vax", g) ] in
  Alcotest.(check bool) "risc entry evicted" true
    (List.exists (fun (f, _) -> f = risc_path) removed);
  Alcotest.(check bool) "vax entry kept" true (Sys.file_exists vax_path);
  Alcotest.(check bool) "risc entry gone" false (Sys.file_exists risc_path);
  Sys.remove vax_path;
  Sys.rmdir dir

(* -- comb packing: exactly the first-fit layout --------------------------- *)

(* The reference: first-fit row displacement, trying base 0, 1, 2, ...
   and checking every column at each.  Kept here only, as the oracle
   [Packed.comb_pack] must match array for array. *)
let reference_comb_pack ?(keep_order = false) ~width ~n_states rows =
  let size = ref (width * 4) in
  let check = ref (Array.make !size (-1)) in
  let value = ref (Array.make !size 0) in
  let grow upto =
    if upto >= !size then begin
      let nsize = max (2 * !size) (upto + width + 1) in
      let ncheck = Array.make nsize (-1) in
      let nvalue = Array.make nsize 0 in
      Array.blit !check 0 ncheck 0 !size;
      Array.blit !value 0 nvalue 0 !size;
      check := ncheck;
      value := nvalue;
      size := nsize
    end
  in
  let base = Array.make n_states 0 in
  let order =
    if keep_order then rows
    else
      List.sort
        (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
        rows
  in
  let high = ref 0 in
  List.iter
    (fun (s, entries) ->
      match entries with
      | [] -> base.(s) <- 0
      | _ ->
        let fits b =
          List.for_all
            (fun (col, _) ->
              let i = b + col in
              grow i;
              !check.(i) = -1)
            entries
        in
        let rec find b = if fits b then b else find (b + 1) in
        let b = find 0 in
        base.(s) <- b;
        List.iter
          (fun (col, code) ->
            let i = b + col in
            !check.(i) <- s;
            !value.(i) <- code;
            if i + 1 > !high then high := i + 1)
          entries)
    order;
  let trim a = Array.sub a 0 (max 1 !high) in
  (base, trim !check, trim !value)

(* the first of the (base, check, value) arrays that differs *)
let comb_diff (b1, c1, v1) (b2, c2, v2) =
  List.find_map
    (fun (name, a1, a2) ->
      if a1 = a2 then None
      else
        Some
          (Fmt.str "%s differs (lengths %d and %d)" name (Array.length a1)
             (Array.length a2)))
    [ ("base", b1, b2); ("check", c1, c2); ("value", v1, v2) ]

let comb_case =
  let open QCheck.Gen in
  let* width =
    oneof [ oneofl [ 1; 2; 62; 63; 64; 126; 127; 200 ]; int_range 1 200 ]
  in
  let* n = int_range 0 40 in
  let row =
    oneof
      [
        return [];
        return [ 0 ];
        return [ width - 1 ];
        (let* density = int_range 1 100 in
         let* keep = list_repeat width (int_bound 99) in
         shuffle_l
           (List.concat
              (List.mapi (fun col k -> if k < density then [ col ] else []) keep)));
      ]
  in
  let* cols = list_repeat n row in
  let* states = shuffle_l (List.init n (fun s -> s)) in
  let* keep_order = bool in
  let rows =
    List.map2
      (fun s cs -> (s, List.map (fun c -> (c, (s * 1000) + c + 1)) cs))
      states cols
  in
  return (width, keep_order, n, rows)

let prop_comb_first_fit =
  QCheck.Test.make
    ~name:"comb_pack is exactly the reference first-fit (QCheck)" ~count:400
    (QCheck.make
       ~print:(fun (width, keep_order, n, rows) ->
         Fmt.str "width=%d keep_order=%b n_states=%d rows=%a" width keep_order
           n
           Fmt.(Dump.list (Dump.pair int (Dump.list int)))
           (List.map (fun (s, es) -> (s, List.map fst es)) rows))
       comb_case)
    (fun (width, keep_order, n_states, rows) ->
      let got = Packed.comb_pack ~keep_order ~width ~n_states rows in
      let want = reference_comb_pack ~keep_order ~width ~n_states rows in
      match comb_diff got want with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "differs from first-fit: %s" d)

let target_grammar target =
  Lazy.force
    (Gg_targets.Targets.backend_of target).Gg_codegen.Backend.default_grammar

(* the real rows of both targets, in both packing orders the compiler
   uses: densest-first (profile-free) and hottest-first (profiled) *)
let test_comb_real_rows () =
  List.iter
    (fun target ->
      let name = Gg_targets.Targets.name target in
      let t = Tables.build (target_grammar target) in
      let p = Packed.prepare t in
      let n_states = p.Packed.p_n_states in
      let hot =
        Packed.comb_states ~profile:(Gg_targets.Targets.heat_profile target) t
      in
      Alcotest.(check bool)
        (name ^ ": a real hot/cold split") true
        (List.length hot > 1 && List.length hot < n_states);
      let hottest_first rows =
        List.map (fun s -> (s, List.assoc s rows)) hot
      in
      List.iter
        (fun (what, width, rows) ->
          List.iter
            (fun (order, keep_order, rows) ->
              let got = Packed.comb_pack ~keep_order ~width ~n_states rows in
              let want =
                reference_comb_pack ~keep_order ~width ~n_states rows
              in
              match comb_diff got want with
              | None -> ()
              | Some d -> Alcotest.failf "%s %s comb, %s: %s" name what order d)
            [
              ("densest-first", false, rows);
              ("hottest-first", true, hottest_first rows);
            ])
        [
          ("action", p.Packed.p_width, p.Packed.p_act_rows);
          ("goto", p.Packed.p_n_nonterms, p.Packed.p_goto_rows);
        ])
    Gg_targets.Targets.all

(* -- tie candidates: interned, and decoding to the dense candidates ------- *)

let test_ties_interned () =
  List.iter
    (fun target ->
      let name = Gg_targets.Targets.name target in
      let t = Tables.build (target_grammar target) in
      let ties =
        Array.to_list t.Tables.action
        |> List.concat_map Array.to_list
        |> List.filter_map (function
             | Tables.Reduce c when Array.length c > 1 -> Some c
             | _ -> None)
      in
      let distinct = List.sort_uniq compare ties in
      Alcotest.(check bool) (name ^ ": the table has ties") true (ties <> []);
      let p = Packed.prepare t in
      Alcotest.(check int)
        (name ^ ": one aux entry per distinct candidate array")
        (List.length distinct) (Array.length p.Packed.p_aux);
      Alcotest.(check int)
        (name ^ ": no duplicate aux entries")
        (Array.length p.Packed.p_aux)
        (List.length (List.sort_uniq compare (Array.to_list p.Packed.p_aux)));
      let packed = Packed.pack t in
      let codes, aux = Packed.encode_table t in
      Alcotest.(check int)
        (name ^ ": dense encoding interns too")
        (List.length distinct) (Array.length aux);
      Array.iteri
        (fun s row ->
          Array.iteri
            (fun a action ->
              match action with
              | Tables.Reduce c when Array.length c > 1 ->
                let decodes what code tie =
                  if code land 3 <> 3 || code = 3 then
                    Alcotest.failf "%s: %s cell (%d, %d) is not a tie code"
                      name what s a;
                  if tie ((code lsr 2) - 1) <> c then
                    Alcotest.failf
                      "%s: %s cell (%d, %d) decodes to other candidates" name
                      what s a
                in
                decodes "packed"
                  (Packed.action_code packed s a)
                  (Packed.tie_candidates packed);
                decodes "dense" codes.(s).(a) (fun i -> aux.(i))
              | _ -> ())
            row)
        t.Tables.action)
    Gg_targets.Targets.all

(* Without a profile the layout is the densest-first first-fit one the
   packer has always produced: the six comb arrays of both targets are
   pinned, and no state is cold. *)
let test_profile_free_layout_pinned () =
  List.iter
    (fun (target, cells, md5) ->
      let name = Gg_targets.Targets.name target in
      let t = Packed.pack (Tables.build (target_grammar target)) in
      let layout =
        String.concat ";"
          (List.map
             (fun a ->
               String.concat "," (List.map string_of_int (Array.to_list a)))
             [
               t.Packed.act_base;
               t.Packed.act_check;
               t.Packed.act_value;
               t.Packed.goto_base;
               t.Packed.goto_check;
               t.Packed.goto_value;
             ])
      in
      Alcotest.(check string)
        (name ^ ": comb arrays") md5
        (Digest.to_hex (Digest.string layout));
      Alcotest.(check int)
        (name ^ ": packed cells") cells
        (Packed.stats t).Packed.packed_cells;
      Alcotest.(check int) (name ^ ": no cold states") 0
        (Array.length t.Packed.cold_off))
    [
      (Gg_codegen.Backend.Vax, 103477, "e2eb59c14ead93f167feda5f268e43fe");
      (Gg_codegen.Backend.Risc, 41412, "d031c648be738c32eb987258bb64b1fb");
    ]

let suite =
  [
    Alcotest.test_case "VAX action/goto/expected parity" `Quick
      test_vax_action_parity;
    Alcotest.test_case "corpus traces identical" `Slow test_corpus_traces;
    Alcotest.test_case "fixed programs compile identically" `Slow
      test_fixed_programs_same_assembly;
    Alcotest.test_case "error parity on broken inputs" `Slow test_error_parity;
    Alcotest.test_case "VAX save/load round trip" `Quick
      test_vax_save_load_roundtrip;
    Alcotest.test_case "stale grammar rejected on load" `Quick
      test_stale_grammar_rejected;
    Alcotest.test_case "corrupt and v1 files rejected" `Quick
      test_corrupt_file_rejected;
    Alcotest.test_case "cache: miss, store, hit, edited-grammar miss" `Quick
      test_cache_miss_then_hit;
    Alcotest.test_case "cache: per-target keys never collide" `Quick
      test_cache_target_keys;
    QCheck_alcotest.to_alcotest ~long:false prop_comb_first_fit;
    Alcotest.test_case "comb: real rows of both targets, both orders" `Quick
      test_comb_real_rows;
    Alcotest.test_case "profile-free layout pinned, both targets" `Quick
      test_profile_free_layout_pinned;
    Alcotest.test_case "ties: interned, decoding to the dense candidates"
      `Quick test_ties_interned;
  ]
