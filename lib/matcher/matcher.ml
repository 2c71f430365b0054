open Import
module Dtype = Gg_ir.Dtype
module Profile = Gg_profile.Profile
module Trace = Gg_profile.Trace
module Metrics = Gg_profile.Metrics
module Packed = Gg_tablegen.Packed

type step = Sshift of string | Sreduce of int | Saccept

type error = {
  at : int;
  token : string;
  state : int;
  expected : string list;
}

exception Reject of error

type 'a outcome = { value : 'a; trace : step list }

(* Everything one run works on, kept by a set of callbacks from one run
   to the next so that a run allocates none of it: the input — each
   token's interned terminal id ([-1] when unknown), name and tree node,
   in prefix order, [len] of them — the parse stack, an int array of
   states and an ['a] array of values typed by the callbacks' own ['a],
   and the loop's registers.  [busy] hands it to one run at a time; a
   run that finds it taken (a callback re-entering the matcher, or
   another domain using the same callbacks) makes a private one. *)
type 'a scratch = {
  busy : bool Atomic.t;
  mutable len : int;
  mutable ids : int array;
  mutable names : string array;
  mutable nodes : Tree.t array;
  mutable symtab : Symtab.t;
  mutable eof : int;
  mutable trace : bool;
  mutable st : int array;
  mutable sv : 'a array;
  mutable sp : int;
  mutable hw : int;  (* stack high water *)
  mutable state : int;
  mutable budget : int;  (* reductions left before "<looping>" *)
  mutable steps : step list;  (* the trace, newest first *)
}

type 'a callbacks = {
  on_shift : Tree.t -> 'a;
  on_reduce : Grammar.production -> 'a array -> 'a;
  choose : Grammar.production array -> 'a array list -> int;
  scratch : 'a scratch;
}

(* what an input slot holds between runs, so that no slot keeps a tree
   alive after its run *)
let no_node = Tree.Const (Dtype.Long, 0L)
let no_symtab = Symtab.create ()

let scratch () =
  {
    busy = Atomic.make false;
    len = 0;
    ids = [||];
    names = [||];
    nodes = [||];
    symtab = no_symtab;
    eof = 0;
    trace = false;
    st = [||];
    sv = [||];
    sp = 0;
    hw = 0;
    state = 0;
    budget = 0;
    steps = [];
  }

let callbacks ~on_shift ~on_reduce ~choose () =
  { on_shift; on_reduce; choose; scratch = scratch () }

(* -- the input buffer ------------------------------------------------------ *)

let grow_input r =
  let cap = max 32 (2 * Array.length r.ids) in
  let grow a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 r.len;
    a'
  in
  r.ids <- grow r.ids 0;
  r.names <- grow r.names "";
  r.nodes <- grow r.nodes no_node

(* the walk's [emit]: a top-level function, so passing it allocates no
   closure.  Each name is interned as it is written; an unknown one is
   kept as [-1] and rejected only when it becomes the lookahead. *)
let emit r name node =
  let i = r.len in
  if i = Array.length r.ids then grow_input r;
  Array.unsafe_set r.ids i (Symtab.term_id r.symtab name);
  Array.unsafe_set r.names i name;
  Array.unsafe_set r.nodes i node;
  r.len <- i + 1

let rec emit_tokens r = function
  | [] -> ()
  | tok :: rest ->
    emit r tok.Termname.term tok.Termname.node;
    emit_tokens r rest

(* -- the shift/reduce loop ------------------------------------------------- *)

(* The loop over the one table layout, {!Packed.t}: every probe is a
   direct call into [Packed], never an indirect one.

   The loop is the compiler's hottest code (paper Fig. 2: ~half of code
   generation), so it allocates nothing per action: its functions are
   top-level and keep their state in the scratch record, the parse
   stack is a pair of arrays there instead of a (state, value) list,
   each token was interned to its terminal id when it was written, the
   lookahead is carried through consecutive reductions instead of
   being re-read at every step, and actions arrive as integer codes
   ({!Packed.action_code}) rather than [Tables.action] blocks, which the
   lookup would otherwise rebuild on every probe.  The only
   per-reduction allocation left is the argument array handed to
   [on_reduce], which is part of the callback contract. *)

let push r s v =
  let sp = r.sp in
  (* only shifts push, one per token, so [sp < len + 1 <=] the states'
     capacity; the values get as much room once they are short *)
  if Array.length r.sv <= sp then begin
    let values' = Array.make (Array.length r.st) v in
    Array.blit r.sv 0 values' 0 sp;
    r.sv <- values'
  end;
  Array.unsafe_set r.st sp s;
  Array.unsafe_set r.sv sp v;
  r.sp <- sp + 1;
  if sp + 1 > r.hw then r.hw <- sp + 1

let expected_names packed (r : _ scratch) s =
  List.map
    (fun a -> if a = r.eof then "<eof>" else Symtab.term_name r.symtab a)
    (Packed.expected packed s)

let reject packed (r : _ scratch) (ctrs : Profile.counters) i a =
  ctrs.rejects <- ctrs.rejects + 1;
  raise
    (Reject
       {
         at = i;
         token = (if a = r.eof then "<eof>" else Symtab.term_name r.symtab a);
         state = r.state;
         expected = expected_names packed r r.state;
       })

(* [a] is the interned lookahead at input position [i] ([eof] once the
   input is consumed) *)
let rec loop g packed cb (r : _ scratch) (ctrs : Profile.counters) i a =
  let c = Packed.action_code packed r.state a in
  if c = 0 then reject packed r ctrs i a
  else
    match c land 3 with
    | 1 ->
      (* shift; eof never shifts in a valid table *)
      assert (i < r.len);
      ctrs.shifts <- ctrs.shifts + 1;
      if r.trace then r.steps <- Sshift (Array.unsafe_get r.names i) :: r.steps;
      push r r.state (cb.on_shift (Array.unsafe_get r.nodes i));
      r.state <- c lsr 2;
      next g packed cb r ctrs (i + 1)
    | 2 ->
      (* reduce by a single production *)
      ctrs.reduces <- ctrs.reduces + 1;
      let p = Grammar.production g (c lsr 2) in
      let len = Array.length p.Grammar.rhs in
      (* popped entries stay in place; [sp] is cut after the goto *)
      assert (len > 0 && len <= r.sp);
      let args =
        (* chain rules dominate the parse; build their singleton
           directly rather than through Array.sub *)
        if len = 1 then [| Array.unsafe_get r.sv (r.sp - 1) |]
        else Array.sub r.sv (r.sp - len) len
      in
      reduce g packed cb r ctrs p args i a
    | 3 when c = 3 ->
      if r.trace then r.steps <- Saccept :: r.steps;
      if r.sp = 1 then r.sv.(0) else assert false
    | 3 -> tie g packed cb r ctrs c i a
    | _ -> assert false (* tag 0 with c <> 0: not a valid code *)

(* a genuine tie: all candidates have equal rhs length.  The table
   constructor validates this invariant; re-check it here because
   tables can also arrive from a file, and a violation would silently
   corrupt the stack. *)
and tie g packed cb r ctrs c i a =
  ctrs.reduces <- ctrs.reduces + 1;
  ctrs.semantic_choices <- ctrs.semantic_choices + 1;
  let candidates = Packed.tie_candidates packed ((c lsr 2) - 1) in
  let k = Array.length candidates in
  let prods = Array.make k (Grammar.production g candidates.(0)) in
  let len = Array.length prods.(0).Grammar.rhs in
  for j = 1 to k - 1 do
    let p = Grammar.production g candidates.(j) in
    if Array.length p.Grammar.rhs <> len then
      Fmt.failwith
        "matcher: semantic tie in state %d mixes rhs lengths (corrupt \
         tables?): %a vs %a"
        r.state (Grammar.pp_production g) prods.(0) (Grammar.pp_production g)
        p;
    prods.(j) <- p
  done;
  assert (len > 0 && len <= r.sp);
  let args = Array.sub r.sv (r.sp - len) len in
  let idx = cb.choose prods [ args ] in
  if idx < 0 || idx >= k then
    Fmt.failwith "matcher: choose returned %d for %d candidates" idx k;
  reduce g packed cb r ctrs prods.(idx) args i a

and reduce g packed cb r ctrs p args i a =
  (* A grammar bug (a chain-rule loop the table generator failed to
     catch, paper section 3.2) could make the matcher reduce forever
     without consuming input; bound the total number of actions.
     Shifts cannot loop — each consumes a token and eof never shifts —
     so bounding reductions bounds the whole run, and the shift path
     skips the check. *)
  r.budget <- r.budget - 1;
  if r.budget < 0 then
    raise
      (Reject
         {
           at = min i (r.len - 1) |> max 0;
           token = "<looping>";
           state = r.state;
           expected = expected_names packed r r.state;
         });
  Profile.record_production p.Grammar.id;
  (* [0 <= base < sp]: the callers assert [0 < len <= sp] *)
  let base = r.sp - Array.length p.Grammar.rhs in
  let exposed = Array.unsafe_get r.st base in
  if r.trace then r.steps <- Sreduce p.Grammar.id :: r.steps;
  let v = cb.on_reduce p args in
  let target = Packed.goto packed exposed p.Grammar.lhs in
  if target < 0 then reject packed r ctrs i a;
  (* pop the rhs and push the lhs value in one move *)
  Array.unsafe_set r.sv base v;
  r.sp <- base + 1;
  r.state <- target;
  loop g packed cb r ctrs i a

and next g packed cb r ctrs i =
  if i >= r.len then loop g packed cb r ctrs i r.eof
  else
    let a = Array.unsafe_get r.ids i in
    if a < 0 then
      (* unknown terminal: reject the moment it becomes the lookahead *)
      raise
        (Reject
           {
             at = i;
             token = Array.unsafe_get r.names i;
             state = r.state;
             expected = [];
           })
    else loop g packed cb r ctrs i a

(* -- one run --------------------------------------------------------------- *)

(* the callbacks' shared scratch when it is free, else a private one *)
let acquire cb =
  let r = cb.scratch in
  if Atomic.compare_and_set r.busy false true then r else scratch ()

(* Empty the input slots and the trace so that nothing keeps this run's
   tree alive, and hand the shared scratch back, also when the run
   raises.  The stack's values are left in place.  A private scratch
   is simply dropped. *)
let release cb r =
  if r == cb.scratch then begin
    Array.fill r.nodes 0 r.len no_node;
    r.len <- 0;
    r.steps <- [];
    Atomic.set r.busy false
  end

(* [fill r input] writes the input into the acquired scratch [r], then
   the one loop runs over it.  [fill] is a top-level function and the
   input its argument, so no closure is built per run. *)
let run_filled ~trace ~(grammar : Grammar.t) (packed : Packed.t) cb fill input
    =
  let r = acquire cb in
  match
    r.symtab <- grammar.Grammar.symtab;
    fill r input;
    let n = r.len in
    (* the stack depth is bounded by the number of shifts, so a
       capacity of [n + 1] fits any run *)
    if Array.length r.st <= n then r.st <- Array.make (max 16 (2 * n)) 0;
    r.eof <- Symtab.n_terms r.symtab;
    r.trace <- trace;
    r.sp <- 0;
    r.hw <- 0;
    r.state <- 0;
    r.budget <- (64 * n) + 1024;
    (* the tables keep cold states: when {!Metrics.enabled}, each
       completed run adds its probes to the named counters
       [matcher.probe_hits_hot] and [matcher.probe_hits_cold] *)
    let ctrs = Profile.counters () in
    let reds0 = ctrs.Profile.reduces in
    let shifts0 = ctrs.Profile.shifts in
    let cold0 = ctrs.Profile.cold_probes in
    let t0 = if !Metrics.enabled then Trace.now_us () else 0. in
    ctrs.Profile.matcher_runs <- ctrs.Profile.matcher_runs + 1;
    let value = next grammar packed cb r ctrs 0 in
    (* end-of-run histogram observations, gated so the run stays
       allocation-free with telemetry off; rejects raise past this
       point and are deliberately not observed *)
    if !Metrics.enabled then begin
      Metrics.observe Metrics.tree_match_us
        (int_of_float (Trace.now_us () -. t0));
      Metrics.observe Metrics.tree_reductions (ctrs.Profile.reduces - reds0);
      Metrics.observe Metrics.stack_high_water r.hw;
      if Array.length packed.Packed.cold_off > 0 then begin
        (* every probe ends in one shift, one reduce or the accept *)
        let probes =
          ctrs.Profile.shifts - shifts0 + (ctrs.Profile.reduces - reds0) + 1
        in
        let cold = ctrs.Profile.cold_probes - cold0 in
        Metrics.incr ~by:(probes - cold) "matcher.probe_hits_hot";
        Metrics.incr ~by:cold "matcher.probe_hits_cold"
      end
    end;
    { value; trace = List.rev r.steps }
  with
  | outcome ->
    release cb r;
    outcome
  | exception e ->
    release cb r;
    raise e

let walk_special r tree = Termname.walk ~special_constants:true emit r tree
let walk_plain r tree = Termname.walk ~special_constants:false emit r tree

let run ?(trace = false) ~grammar packed cb tokens =
  run_filled ~trace ~grammar packed cb emit_tokens tokens

let run_tree ?(trace = false) ?(special_constants = true) ~grammar packed cb
    tree =
  run_filled ~trace ~grammar packed cb
    (if special_constants then walk_special else walk_plain)
    tree

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
