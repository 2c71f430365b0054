open Import
module Profile = Gg_profile.Profile
module Trace = Gg_profile.Trace
module Metrics = Gg_profile.Metrics
module Packed = Gg_tablegen.Packed

(* The parse stack one set of callbacks keeps across runs: an int array
   of states and an ['a] array of values, typed by the callbacks' own
   ['a].  [busy] hands it to one run at a time; a run that finds it
   taken (a callback re-entering the matcher, or another domain using
   the same callbacks) allocates its own. *)
type 'a scratch = {
  busy : bool Atomic.t;
  mutable st : int array;
  mutable sv : 'a array;
}

type 'a callbacks = {
  on_shift : Termname.token -> 'a;
  on_reduce : Grammar.production -> 'a array -> 'a;
  choose : Grammar.production array -> 'a array list -> int;
  scratch : 'a scratch;
}

let callbacks ~on_shift ~on_reduce ~choose () =
  {
    on_shift;
    on_reduce;
    choose;
    scratch = { busy = Atomic.make false; st = [||]; sv = [||] };
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

(* The shift/reduce loop over the one table layout, {!Packed.t}: every
   probe is a direct call into [Packed], never an indirect one.

   The loop is the compiler's hottest code (paper Fig. 2: ~half of code
   generation), so it allocates nothing per action: the parse stack is
   a pair of arrays kept in the callbacks' scratch across runs instead
   of a (state, value) list, each token is interned to its terminal id
   exactly once — when it becomes the lookahead, which is then carried
   through consecutive reductions instead of being re-derived at every
   step ({!Symtab.term_id}, allocation free) — and actions arrive as
   integer codes ({!Packed.action_code}) rather than [Tables.action]
   blocks, which the lookup would otherwise rebuild on every probe.
   The only per-reduction allocation left is the argument array handed
   to [on_reduce], which is part of the callback contract. *)
let run ?(trace = false) ~grammar:(g : Grammar.t) (packed : Packed.t) cb
    tokens =
  let symtab = g.Grammar.symtab in
  let eof = Symtab.n_terms symtab in
  (* the tables keep cold states: when {!Metrics.enabled}, each
     completed run adds its probes to the named counters
     [matcher.probe_hits_hot] and [matcher.probe_hits_cold] *)
  let split = Array.length packed.Packed.cold_off > 0 in
  let ctrs = Profile.counters () in
  let reds0 = ctrs.Profile.reduces in
  let shifts0 = ctrs.Profile.shifts in
  let cold0 = ctrs.Profile.cold_probes in
  let t0 = if !Metrics.enabled then Trace.now_us () else 0. in
  let n = List.length tokens in
  (* the parse stack; its depth is bounded by the number of shifts, so
     a capacity of [n + 1] fits any run *)
  let scratch = cb.scratch in
  let reusing = Atomic.compare_and_set scratch.busy false true in
  let fits = reusing && Array.length scratch.st > n in
  let st_states =
    if fits then scratch.st else Array.make (max 16 (n + 1)) 0
  in
  (* a fresh value half is allocated on the first push, when a value
     exists to fill it *)
  let st_values = ref (if fits then scratch.sv else [||]) in
  let sp = ref 0 in
  let hw = ref 0 in
  let state = ref 0 in
  let steps = ref [] in
  let record s = if trace then steps := s :: !steps in
  let push s v =
    (* only shifts push, one per token, so [!sp < n + 1 <=] the states'
       capacity; the values get as much room once they are short *)
    if Array.length !st_values <= !sp then begin
      let values' = Array.make (Array.length st_states) v in
      Array.blit !st_values 0 values' 0 !sp;
      st_values := values'
    end;
    Array.unsafe_set st_states !sp s;
    Array.unsafe_set !st_values !sp v;
    incr sp;
    if !sp > !hw then hw := !sp
  in
  let expected_names s =
    List.map
      (fun a -> if a = eof then "<eof>" else Symtab.term_name symtab a)
      (Packed.expected packed s)
  in
  let reject i a =
    ctrs.Profile.rejects <- ctrs.Profile.rejects + 1;
    raise
      (Reject
         {
           at = i;
           token = (if a = eof then "<eof>" else Symtab.term_name symtab a);
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
    let c = Packed.action_code packed !state a in
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
        let candidates = Packed.tie_candidates packed ((c lsr 2) - 1) in
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
    let exposed = Array.unsafe_get st_states base in
    if trace then record (Sreduce p.Grammar.id);
    let v = cb.on_reduce p args in
    let target = Packed.goto packed exposed p.Grammar.lhs in
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
      let a = Symtab.term_id symtab tok.Termname.term in
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
  (* hand the (possibly grown) stack back to the scratch, also when the
     run rejects *)
  let release () =
    if reusing then begin
      scratch.st <- st_states;
      scratch.sv <- !st_values;
      Atomic.set scratch.busy false
    end
  in
  let value =
    match next tokens 0 with
    | v ->
      release ();
      v
    | exception e ->
      release ();
      raise e
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
      let cold = ctrs.Profile.cold_probes - cold0 in
      Metrics.incr ~by:(probes - cold) "matcher.probe_hits_hot";
      Metrics.incr ~by:cold "matcher.probe_hits_cold"
    end
  end;
  { value; trace = List.rev !steps }

let run_tree ?trace ?special_constants ~grammar packed cb tree =
  run ?trace ~grammar packed cb (Termname.linearize ?special_constants tree)

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
