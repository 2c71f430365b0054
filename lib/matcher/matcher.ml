open Import
module Profile = Gg_profile.Profile
module Trace = Gg_profile.Trace
module Metrics = Gg_profile.Metrics
module Packed = Gg_tablegen.Packed

type 'a callbacks = {
  on_shift : Termname.token -> 'a;
  on_reduce : Grammar.production -> 'a array -> 'a;
  choose : Grammar.production array -> 'a array list -> int;
}

type step = Sshift of string | Sreduce of int | Saccept

type error = {
  at : int;
  token : string;
  state : int;
  expected : string list;
}

exception Reject of error

type 'a outcome = { value : 'a; trace : step list }

(* The generic driver, abstracted over table access so both the dense
   and the packed representations can drive it.

   The shift/reduce loop is the compiler's hottest code (paper Fig. 2:
   ~half of code generation), so it allocates nothing per action: the
   parse stack is a pair of preallocated growable arrays instead of a
   (state, value) list, each token is interned to its terminal id
   exactly once — when it becomes the lookahead, which is then carried
   through consecutive reductions instead of being re-derived at every
   step ({!Symtab.term_id}, allocation free) — and actions arrive as
   integer codes ({!Gg_tablegen.Packed.action_code}) rather than
   [Tables.action] blocks, which the packed lookup would otherwise
   rebuild on every probe.  The only per-reduction allocation left is
   the argument array handed to [on_reduce], which is part of the
   callback contract. *)
(* The state half of the parse stack is a monomorphic int array, so
   each domain keeps one across runs instead of allocating per tree
   (the ['a] value half cannot be reused without erasure tricks).
   [busy] guards re-entrancy: a callback that runs the matcher again
   gets a fresh allocation rather than the in-use scratch. *)
type state_scratch = { mutable st : int array; mutable busy : bool }

let scratch_key =
  Domain.DLS.new_key (fun () -> { st = [||]; busy = false })

let run_with ?(trace = false) ~(g : Grammar.t) ~eof
    ~(intern : string -> int) ~(code : int -> int -> int)
    ~(tie : int -> int array) ~(goto : int -> int -> int)
    ~(expected : int -> int list) ~split cb tokens =
  let ctrs = Profile.counters () in
  let reds0 = ctrs.Profile.reduces in
  let shifts0 = ctrs.Profile.shifts in
  let cold0 = if split && !Metrics.enabled then Packed.cold_probes () else 0 in
  let t0 = if !Metrics.enabled then Trace.now_us () else 0. in
  let n = List.length tokens in
  (* the parse stack; stack depth is bounded by the number of shifts,
     so the initial capacity already fits any well-formed run *)
  let cap = ref (max 16 (n + 1)) in
  let scratch = Domain.DLS.get scratch_key in
  let reusing = not scratch.busy in
  if reusing then scratch.busy <- true;
  let st_states =
    ref
      (if reusing && Array.length scratch.st >= !cap then begin
         cap := Array.length scratch.st;
         scratch.st
       end
       else Array.make !cap 0)
  in
  let st_values = ref [||] (* allocated on the first push *) in
  let sp = ref 0 in
  let hw = ref 0 in
  let state = ref 0 in
  let steps = ref [] in
  let record s = if trace then steps := s :: !steps in
  let push s v =
    if Array.length !st_values = 0 then st_values := Array.make !cap v
    else if !sp = !cap then begin
      let cap' = 2 * !cap in
      let states' = Array.make cap' 0 in
      Array.blit !st_states 0 states' 0 !sp;
      let values' = Array.make cap' v in
      Array.blit !st_values 0 values' 0 !sp;
      st_states := states';
      st_values := values';
      cap := cap'
    end;
    (* [!sp < !cap] by the growth check just above *)
    Array.unsafe_set !st_states !sp s;
    Array.unsafe_set !st_values !sp v;
    incr sp;
    if !sp > !hw then hw := !sp
  in
  let expected_names s =
    List.map
      (fun a -> if a = eof then "<eof>" else Symtab.term_name g.symtab a)
      (expected s)
  in
  let reject i a =
    ctrs.Profile.rejects <- ctrs.Profile.rejects + 1;
    raise
      (Reject
         {
           at = i;
           token = (if a = eof then "<eof>" else Symtab.term_name g.symtab a);
           state = !state;
           expected = expected_names !state;
         })
  in
  (* A grammar bug (a chain-rule loop the table generator failed to
     catch, paper section 3.2) could make the matcher reduce forever
     without consuming input; bound the total number of actions. *)
  (* Shifts cannot loop — each consumes a token and eof never shifts —
     so bounding reductions bounds the whole run, and the shift path
     skips the check. *)
  let budget = ref ((64 * n) + 1024) in
  (* [rest] is the unconsumed token suffix starting at position [i];
     [a] is the interned lookahead ([eof] once [rest] is empty) *)
  let rec loop rest i a =
    let c = code !state a in
    if c = 0 then reject i a
    else
      match c land 3 with
      | 1 -> (
        (* shift *)
        match rest with
        | tok :: rest' ->
          ctrs.Profile.shifts <- ctrs.Profile.shifts + 1;
          (* build the step only under the flag: [record (Sshift ...)]
             would allocate the block even with tracing off *)
          if trace then record (Sshift tok.Termname.term);
          push !state (cb.on_shift tok);
          state := c lsr 2;
          next rest' (i + 1)
        | [] -> assert false (* a shift on eof: not a valid table *))
      | 2 ->
        (* reduce by a single production *)
        ctrs.Profile.reduces <- ctrs.Profile.reduces + 1;
        let p = Grammar.production g (c lsr 2) in
        let len = Array.length p.Grammar.rhs in
        (* popped entries stay in place; [sp] is cut after the goto *)
        assert (len > 0 && len <= !sp);
        let args =
          (* chain rules dominate the parse; build their singleton
             directly rather than through Array.sub *)
          if len = 1 then [| Array.unsafe_get !st_values (!sp - 1) |]
          else Array.sub !st_values (!sp - len) len
        in
        reduce p args rest i a
      | 3 when c = 3 ->
        record Saccept;
        if !sp = 1 then !st_values.(0) else assert false
      | 3 ->
        (* a genuine tie: all candidates have equal rhs length.  The
           table constructor validates this invariant; re-check it
           here because tables can also arrive from a file, and a
           violation would silently corrupt the stack. *)
        ctrs.Profile.reduces <- ctrs.Profile.reduces + 1;
        ctrs.Profile.semantic_choices <- ctrs.Profile.semantic_choices + 1;
        let candidates = tie ((c lsr 2) - 1) in
        let prods = Array.map (Grammar.production g) candidates in
        let len = Array.length prods.(0).rhs in
        Array.iter
          (fun (p : Grammar.production) ->
            if Array.length p.rhs <> len then
              Fmt.failwith
                "matcher: semantic tie in state %d mixes rhs lengths \
                 (corrupt tables?): %a vs %a"
                !state (Grammar.pp_production g) prods.(0)
                (Grammar.pp_production g) p)
          prods;
        assert (len > 0 && len <= !sp);
        let args = Array.sub !st_values (!sp - len) len in
        let idx = cb.choose prods [ args ] in
        if idx < 0 || idx >= Array.length candidates then
          Fmt.failwith "matcher: choose returned %d for %d candidates" idx
            (Array.length candidates);
        reduce prods.(idx) args rest i a
      | _ -> assert false (* tag 0 with c <> 0: not a valid code *)
  and reduce p args rest i a =
    decr budget;
    if !budget < 0 then
      raise
        (Reject
           {
             at = min i (n - 1) |> max 0;
             token = "<looping>";
             state = !state;
             expected = expected_names !state;
           });
    Profile.record_production p.Grammar.id;
    (* [0 <= base < !sp]: the callers assert [0 < len <= !sp] *)
    let base = !sp - Array.length p.Grammar.rhs in
    let exposed = Array.unsafe_get !st_states base in
    if trace then record (Sreduce p.Grammar.id);
    let v = cb.on_reduce p args in
    let target = goto exposed p.Grammar.lhs in
    if target < 0 then reject i a;
    (* pop the rhs and push the lhs value in one move *)
    Array.unsafe_set !st_values base v;
    sp := base + 1;
    state := target;
    loop rest i a
  and next rest i =
    match rest with
    | [] -> loop [] i eof
    | tok :: _ ->
      let a = intern tok.Termname.term in
      if a < 0 then
        (* unknown terminal: reject the moment it becomes the lookahead *)
        raise
          (Reject
             {
               at = i;
               token = tok.Termname.term;
               state = !state;
               expected = [];
             });
      loop rest i a
  in
  ctrs.Profile.matcher_runs <- ctrs.Profile.matcher_runs + 1;
  let value =
    (* hand the (possibly grown) state array back to the scratch even
       when the run rejects *)
    Fun.protect
      ~finally:(fun () ->
        if reusing then begin
          scratch.st <- !st_states;
          scratch.busy <- false
        end)
      (fun () -> next tokens 0)
  in
  (* end-of-run histogram observations, gated so the hot loop stays
     allocation-free with telemetry off; rejects raise past this point
     and are deliberately not observed *)
  if !Metrics.enabled then begin
    Metrics.observe Metrics.tree_match_us
      (int_of_float (Trace.now_us () -. t0));
    Metrics.observe Metrics.tree_reductions (ctrs.Profile.reduces - reds0);
    Metrics.observe Metrics.stack_high_water !hw;
    if split then begin
      (* every probe ends in one shift, one reduce or the accept *)
      let probes =
        ctrs.Profile.shifts - shifts0 + (ctrs.Profile.reduces - reds0) + 1
      in
      let cold = Packed.cold_probes () - cold0 in
      Metrics.incr ~by:(probes - cold) "matcher.probe_hits_hot";
      Metrics.incr ~by:cold "matcher.probe_hits_cold"
    end
  end;
  { value; trace = List.rev !steps }

(* The pre-optimisation loop: a (state, value) list stack, a symtab
   lookup and a decoded [Tables.action] per action.  Kept as the
   baseline the optimised loop is differentially tested against
   (suite_parallel) and measured against (the THRU benchmark); not a
   production path. *)
let run_with_reference ?(trace = false) ~(g : Grammar.t) ~eof
    ~(code : int -> int -> int) ~(tie : int -> int array)
    ~(goto : int -> int -> int) ~(expected : int -> int list) cb tokens =
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
      match Symtab.find g.symtab name with
      | Some (Symtab.T a) -> a
      | Some (Symtab.N _) | None ->
        raise (Reject { at = i; token = name; state = !state; expected = [] })
  in
  let expected_names s =
    List.map
      (fun a -> if a = eof then "<eof>" else Symtab.term_name g.symtab a)
      (expected s)
  in
  let reject i a =
    ctrs.Profile.rejects <- ctrs.Profile.rejects + 1;
    raise
      (Reject
         {
           at = i;
           token = (if a = eof then "<eof>" else Symtab.term_name g.symtab a);
           state = !state;
           expected = expected_names !state;
         })
  in
  let budget = ref ((64 * n) + 1024) in
  let rec loop i =
    decr budget;
    if !budget < 0 then
      raise
        (Reject
           {
             at = min i (n - 1) |> max 0;
             token = "<looping>";
             state = !state;
             expected = expected_names !state;
           });
    let a = term_id i in
    match Packed.decode tie (code !state a) with
    | Tables.Shift s' ->
      ctrs.Profile.shifts <- ctrs.Profile.shifts + 1;
      record (Sshift tokens.(i).Termname.term);
      stack := (!state, cb.on_shift tokens.(i)) :: !stack;
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
          let len = Array.length prods.(0).rhs in
          Array.iter
            (fun (p : Grammar.production) ->
              if Array.length p.rhs <> len then
                Fmt.failwith
                  "matcher: semantic tie in state %d mixes rhs lengths \
                   (corrupt tables?): %a vs %a"
                  !state (Grammar.pp_production g) prods.(0)
                  (Grammar.pp_production g) p)
            prods;
          let args, _, _ = pop_args len in
          let idx = cb.choose prods [ args ] in
          if idx < 0 || idx >= Array.length candidates then
            Fmt.failwith
              "matcher: choose returned %d for %d candidates" idx
              (Array.length candidates);
          candidates.(idx)
        end
      in
      Profile.record_production pid;
      let p = Grammar.production g pid in
      let len = Array.length p.rhs in
      let args, popped, rest = pop_args len in
      let exposed =
        match popped with (s, _) :: _ -> s | [] -> assert false
      in
      record (Sreduce pid);
      let v = cb.on_reduce p args in
      let target = goto exposed p.Grammar.lhs in
      if target < 0 then reject i a;
      stack := (exposed, v) :: rest;
      state := target;
      loop i
    | Tables.Accept -> (
      record Saccept;
      match !stack with
      | [ (_, v) ] -> v
      | _ -> assert false)
    | Tables.Error -> reject i a
  in
  ctrs.Profile.matcher_runs <- ctrs.Profile.matcher_runs + 1;
  let value = loop 0 in
  { value; trace = List.rev !steps }

type engine = {
  eng_grammar : Grammar.t;
  eng_eof : int;
  eng_code : int -> int -> int;
  eng_tie : int -> int array;
  eng_goto : int -> int -> int;
  eng_expected : int -> int list;
  eng_intern : string -> int;
  eng_split : bool;
}

(* Terminal interning with a small direct-mapped cache in front of the
   symtab hashtable.  Token names are shared string constants
   ({!Termname}), so after the first miss a name is recognised by
   pointer.  Each slot holds one immutable (name, id) pair and an
   update is a single pointer store, so the cache is safe to share
   between domains: a racing reader sees either the old or the new
   pair, and a lost update only costs a future miss.  Ids are
   cache-independent, so parallel compiles stay deterministic. *)
let interner symtab =
  let cache = Array.make 64 ("", -2) in
  fun s ->
    let slot = (Char.code (String.unsafe_get s 0) + String.length s) land 63 in
    let cs, cid = Array.unsafe_get cache slot in
    if cs == s then cid
    else begin
      let id = Symtab.term_id symtab s in
      Array.unsafe_set cache slot (s, id);
      id
    end

let engine (tables : Tables.t) =
  (* encode once at construction so the dense engine shares the
     allocation-free hot loop with the packed one *)
  let codes, aux = Packed.encode_table tables in
  let g = Tables.grammar tables in
  {
    eng_grammar = g;
    eng_eof = Tables.eof tables;
    eng_code = (fun s a -> codes.(s).(a));
    eng_tie = (fun i -> aux.(i));
    eng_goto = (fun s n -> tables.Tables.goto_.(s).(n));
    eng_expected = Tables.expected tables;
    eng_intern = interner g.Grammar.symtab;
    eng_split = false;
  }

let packed_engine ~grammar (packed : Packed.t) =
  let g : Grammar.t = grammar in
  (* eta-expanded on purpose: a partial application would compile to an
     arity-1 curry chain, costing two indirect calls per table probe in
     the hot loop; these are direct arity-2 closures *)
  {
    eng_grammar = g;
    eng_eof = Symtab.n_terms g.Grammar.symtab;
    eng_code = (fun s a -> Packed.action_code packed s a);
    eng_tie = (fun i -> Packed.tie_candidates packed i);
    eng_goto = (fun s n -> Packed.goto packed s n);
    eng_expected = (fun s -> Packed.expected packed s);
    eng_intern = interner g.Grammar.symtab;
    eng_split = Array.length packed.Packed.cold_off > 0;
  }

let run_engine ?trace e cb tokens =
  run_with ?trace ~g:e.eng_grammar ~eof:e.eng_eof ~intern:e.eng_intern
    ~code:e.eng_code ~tie:e.eng_tie ~goto:e.eng_goto
    ~expected:e.eng_expected ~split:e.eng_split cb tokens

let run_engine_reference ?trace e cb tokens =
  run_with_reference ?trace ~g:e.eng_grammar ~eof:e.eng_eof ~code:e.eng_code
    ~tie:e.eng_tie ~goto:e.eng_goto ~expected:e.eng_expected cb tokens

let run_tree_engine ?trace ?special_constants e cb tree =
  run_engine ?trace e cb (Termname.linearize ?special_constants tree)

let pp_step g ppf = function
  | Sshift name -> Fmt.pf ppf "shift  %s" name
  | Sreduce pid ->
    Fmt.pf ppf "reduce %a" (Grammar.pp_production g) (Grammar.production g pid)
  | Saccept -> Fmt.string ppf "accept"

let pp_trace g ppf steps =
  Fmt.(list ~sep:(any "@\n") (pp_step g)) ppf steps

let pp_error ppf e =
  Fmt.pf ppf
    "syntactic block at token %d (%s) in state %d; expected one of: %a" e.at
    e.token e.state
    Fmt.(list ~sep:comma string)
    e.expected
