(* The pre-optimisation shift/reduce loop over the dense tables, the
   test oracle for Matcher.run over the packed ones: a (state, value)
   list stack, a symtab lookup, and a decoded [Tables.action] read
   straight from the dense matrix for every action.  Diffing the two
   tests two loops and two table layouts at once.  suite_parallel holds
   them to identical values, traces and rejects on random trees and
   random token streams, including the "<looping>" reject both raise
   once a runaway chain-rule loop exhausts the same reduction budget.

   [probe s a] reads the action cell, [tables.action.(s).(a)] unless
   given: a counting probe over a layout that {!Packed.verify} proved
   equal measures which cells a run reads.

   [linearize] is the token-order oracle for {!Termname.walk}: the
   lineariser as it was before the walk, a node's own terminal, then
   [Tree.children] in order, and a [Cbranch]'s trailing [Label]. *)

module Grammar = Gg_grammar.Grammar
module Symtab = Gg_grammar.Symtab
module Tables = Gg_tablegen.Tables
module Termname = Gg_ir.Termname
module Matcher = Gg_matcher.Matcher
module Profile = Gg_profile.Profile
module Tree = Gg_ir.Tree

let linearize ?(special_constants = true) tree =
  let buf = ref [] in
  let emit term node = buf := { Termname.term; node } :: !buf in
  let rec go (t : Tree.t) =
    (match t with
    | Const (ty, n) -> (
      match
        if special_constants then Termname.special_const ty n else None
      with
      | Some s -> emit s t
      | None -> emit (Termname.const ty) t)
    | Fconst (ty, _) -> emit (Termname.fconst ty) t
    | Name (ty, _) -> emit (Termname.name_ ty) t
    | Temp (ty, _) -> emit (Termname.temp ty) t
    | Dreg (ty, _) -> emit (Termname.dreg ty) t
    | Autoinc (ty, _) -> emit (Termname.autoinc ty) t
    | Autodec (ty, _) -> emit (Termname.autodec ty) t
    | Indir (ty, _) -> emit (Termname.indir ty) t
    | Addr e -> emit (Termname.addr (Tree.dtype e)) t
    | Unop (op, ty, _) -> emit (Termname.unop op ty) t
    | Binop (op, ty, _, _) -> emit (Termname.binop op ty) t
    | Conv (to_, from, _) -> emit (Termname.cvt ~from ~to_) t
    | Assign (ty, _, _) -> emit (Termname.assign ty) t
    | Rassign (ty, _, _) -> emit (Termname.rassign ty) t
    | Cbranch (_, _, ty, _, _, _) ->
      emit Termname.cbranch t;
      emit (Termname.cmp ty) t
    | Arg (ty, _) -> emit (Termname.arg ty) t
    | Call _ | Land _ | Lor _ | Lnot _ | Select _ | Relval _ ->
      invalid_arg "Matcher_ref.linearize: not a matcher-ready tree");
    List.iter go (Tree.children t);
    match t with Cbranch _ -> emit Termname.label t | _ -> ()
  in
  go tree;
  List.rev !buf

let run ?(trace = false) ?probe (tables : Tables.t)
    (cb : 'a Matcher.callbacks) tokens : 'a Matcher.outcome =
  let probe =
    match probe with Some p -> p | None -> fun s a -> tables.Tables.action.(s).(a)
  in
  let g = Tables.grammar tables and eof = Tables.eof tables in
  let ctrs = Profile.counters () in
  let tokens = Array.of_list tokens in
  let n = Array.length tokens in
  let stack = ref [] in
  let state = ref 0 in
  let steps = ref [] in
  let record s = if trace then steps := s :: !steps in
  let term_id i =
    if i >= n then eof
    else
      let name = tokens.(i).Termname.term in
      match Symtab.find g.Grammar.symtab name with
      | Some (Symtab.T a) -> a
      | Some (Symtab.N _) | None ->
        raise
          (Matcher.Reject { at = i; token = name; state = !state; expected = [] })
  in
  let expected_names s =
    List.map
      (fun a -> if a = eof then "<eof>" else Symtab.term_name g.Grammar.symtab a)
      (Tables.expected tables s)
  in
  let reject i a =
    ctrs.Profile.rejects <- ctrs.Profile.rejects + 1;
    raise
      (Matcher.Reject
         {
           at = i;
           token =
             (if a = eof then "<eof>" else Symtab.term_name g.Grammar.symtab a);
           state = !state;
           expected = expected_names !state;
         })
  in
  let budget = ref ((64 * n) + 1024) in
  let rec loop i =
    let a = term_id i in
    match probe !state a with
    | Tables.Shift s' ->
      ctrs.Profile.shifts <- ctrs.Profile.shifts + 1;
      record (Matcher.Sshift tokens.(i).Termname.term);
      stack := (!state, cb.Matcher.on_shift tokens.(i).Termname.node) :: !stack;
      state := s';
      loop (i + 1)
    | Tables.Reduce candidates ->
      ctrs.Profile.reduces <- ctrs.Profile.reduces + 1;
      let pop_args len =
        let rec go k acc st =
          if k = 0 then (acc, st)
          else
            match st with
            | (s, v) :: rest -> go (k - 1) ((s, v) :: acc) rest
            | [] -> assert false
        in
        let popped, rest = go len [] !stack in
        (Array.of_list (List.map snd popped), popped, rest)
      in
      let pid =
        if Array.length candidates = 1 then candidates.(0)
        else begin
          ctrs.Profile.semantic_choices <- ctrs.Profile.semantic_choices + 1;
          let prods = Array.map (Grammar.production g) candidates in
          let len = Array.length prods.(0).Grammar.rhs in
          Array.iter
            (fun (p : Grammar.production) ->
              if Array.length p.Grammar.rhs <> len then
                Fmt.failwith
                  "matcher: semantic tie in state %d mixes rhs lengths \
                   (corrupt tables?): %a vs %a"
                  !state (Grammar.pp_production g) prods.(0)
                  (Grammar.pp_production g) p)
            prods;
          let args, _, _ = pop_args len in
          let idx = cb.Matcher.choose prods [ args ] in
          if idx < 0 || idx >= Array.length candidates then
            Fmt.failwith "matcher: choose returned %d for %d candidates" idx
              (Array.length candidates);
          candidates.(idx)
        end
      in
      decr budget;
      if !budget < 0 then
        raise
          (Matcher.Reject
             {
               at = min i (n - 1) |> max 0;
               token = "<looping>";
               state = !state;
               expected = expected_names !state;
             });
      Profile.record_production pid;
      let p = Grammar.production g pid in
      let len = Array.length p.Grammar.rhs in
      let args, popped, rest = pop_args len in
      let exposed = match popped with (s, _) :: _ -> s | [] -> assert false in
      record (Matcher.Sreduce pid);
      let v = cb.Matcher.on_reduce p args in
      let target = tables.Tables.goto_.(exposed).(p.Grammar.lhs) in
      if target < 0 then reject i a;
      stack := (exposed, v) :: rest;
      state := target;
      loop i
    | Tables.Accept -> (
      record Matcher.Saccept;
      match !stack with [ (_, v) ] -> v | _ -> assert false)
    | Tables.Error -> reject i a
  in
  ctrs.Profile.matcher_runs <- ctrs.Profile.matcher_runs + 1;
  let value = loop 0 in
  { Matcher.value; trace = List.rev !steps }
