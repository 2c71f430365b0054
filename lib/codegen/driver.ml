open Import

type regalloc = Stack | Color

let regalloc_name = function Stack -> "stack" | Color -> "color"

let regalloc_of_string = function
  | "stack" -> Some Stack
  | "color" -> Some Color
  | _ -> None

type options = {
  grammar : Grammar_def.options;
  transform : Transform.options;
  idioms : bool;
  peephole : bool;
  regalloc : regalloc;
  heat : (int * int) list;
}

let default_options =
  {
    grammar = Grammar_def.default;
    transform = Transform.default_options;
    idioms = true;
    peephole = false;
    regalloc = Stack;
    heat = [];
  }

(* virtual registers are numbered from here in color mode; well above
   any physical register number *)
let vreg_base = 64

type tables = { grammar : Grammar.t; packed : Packed.t; backend : Backend.t }

let backend t = t.backend
let grammar t = t.grammar

let build_tables ?(backend = Backend.vax) gopts =
  let grammar = backend.Backend.grammar_of gopts in
  { grammar; packed = Gg_tablegen.Cache.build grammar; backend }

let cached_tables ?dir ?(backend = Backend.vax) gopts =
  let grammar = backend.Backend.grammar_of gopts in
  let target = Backend.name backend in
  {
    grammar;
    packed = Gg_tablegen.Cache.load_or_build ?dir ~target grammar;
    backend;
  }

let default_tables = lazy (build_tables Grammar_def.default)

type compiled_func = {
  cf_name : string;
  cf_insns : Insn.t list;
  cf_frame_size : int;
  cf_prov : (int * int list * string) list;
      (* per-instruction (source line, production ids, marker); the
         marker is "" normally, "spill"/"reload" on register-allocator
         traffic.  Empty unless provenance was enabled, or when the
         peephole pass rewrote the instruction list out from under it *)
}

type output = {
  assembly : string;
  funcs : compiled_func list;
  program : Tree.program;
}

let compile_stmts (tables : tables) sem (body : Tree.stmt list) =
  let bk = tables.backend in
  let cb = bk.Backend.callbacks sem tables.grammar in
  List.iter
    (fun (s : Tree.stmt) ->
      match s with
      | Tree.Stree tree ->
        let match_tree () =
          let outcome =
            Matcher.run_tree ~grammar:tables.grammar tables.packed cb tree
          in
          (match outcome.Matcher.value with
          | Desc.Done -> ()
          | Desc.D d ->
            (* an expression evaluated for its side effects only *)
            Regmgr.release (Semantics.regmgr sem) d
          | Desc.Node _ -> failwith "matcher returned a raw node");
          Regmgr.assert_clean (Semantics.regmgr sem)
        in
        if !Trace.enabled then Trace.span ~cat:"tree" "match.tree" match_tree
        else match_tree ();
        Semantics.end_tree sem
      | Tree.Slabel l -> Semantics.emit sem (Insn.Lab l)
      | Tree.Sjump l -> Semantics.emit sem (bk.Backend.jump l)
      | Tree.Sret -> Semantics.emit sem Insn.Ret
      | Tree.Scall (f, n, _) -> Semantics.emit sem (Insn.Call (f, n))
      | Tree.Scomment c -> Semantics.emit sem (Insn.Comment c)
      | Tree.Sline n -> Semantics.set_line sem n)
    body

(* allocatable registers appearing as Dreg leaves are register
   variables: withhold them from the register manager *)
let reserved_registers ~alloc_regs (f : Tree.func) =
  let add acc t =
    Tree.fold
      (fun acc node ->
        match node with
        | Tree.Dreg (_, r) | Tree.Autoinc (_, r) | Tree.Autodec (_, r)
          when List.mem r alloc_regs && not (List.mem r acc) ->
          r :: acc
        | _ -> acc)
      acc t
  in
  List.fold_left
    (fun acc s -> match s with Tree.Stree t -> add acc t | _ -> acc)
    [] f.Tree.body

let transform_func ?(options = default_options) tables (f : Tree.func) =
  let backend = tables.backend in
  let alloc_regs = backend.Backend.alloc_regs in
  let reserved = reserved_registers ~alloc_regs f in
  let pool = List.length alloc_regs - List.length reserved in
  let leaf_need = backend.Backend.leaf_need in
  let spill_limit =
    (* on a load/store target every live value sits in a register and
       doubles occupy pairs, so budget at half the bank *)
    if leaf_need > 0 then max 2 ((pool / 2) - 1) else max 2 (pool - 1)
  in
  let tr =
    Trace.phase "phase1.transform" (fun () ->
        Transform.run ~options:options.transform ~spill_limit ~leaf_need f)
  in
  (tr, reserved)

(* Phases 1 and 2 of one function: the emitted stream (over virtual
   registers under [Color]) inside its semantic state, the frame, and
   the register variables withheld from the bank. *)
let match_func ~options tables (f : Tree.func) =
  let backend = tables.backend in
  let alloc_regs = backend.Backend.alloc_regs in
  let tr, reserved = transform_func ~options tables f in
  let frame =
    Frame.create ~locals_size:f.Tree.locals_size ~temps:tr.Transform.temps
  in
  let sem =
    Semantics.create ~idioms:options.idioms ~reserved ~allocatable:alloc_regs
      ?move:backend.Backend.move
      ?vreg_base:(match options.regalloc with Color -> Some vreg_base | Stack -> None)
      ?explain:
        (* heat weighting needs per-instruction provenance even when
           the user did not ask for --explain *)
        (if options.regalloc = Color && options.heat <> [] then Some true
         else None)
      frame
  in
  Trace.phase "phase2.match" (fun () ->
      compile_stmts tables sem tr.Transform.func.Tree.body);
  (sem, frame, reserved)

type color_input = {
  ci_backend : Backend.t;
  ci_bank : int list;
  ci_frame : Frame.t;
  ci_vinfo : Regmgr.vreg_summary;
  ci_heat : (int * int) list;
  ci_prov : (int * int list * string) list;
  ci_insns : Insn.t list;
}

let color_input_of ~options tables ~reserved ~frame sem =
  let backend = tables.backend in
  {
    ci_backend = backend;
    ci_bank =
      List.filter (fun r -> not (List.mem r reserved)) backend.Backend.alloc_regs;
    ci_frame = frame;
    ci_vinfo =
      (match Regmgr.vreg_summary (Semantics.regmgr sem) with
      | Some v -> v
      | None -> assert false);
    ci_heat = options.heat;
    ci_prov = Semantics.provenance sem;
    ci_insns = Semantics.output sem;
  }

let color_input ?(options = default_options) tables f =
  let options = { options with regalloc = Color } in
  let sem, frame, reserved = match_func ~options tables f in
  color_input_of ~options tables ~reserved ~frame sem

let run_color ci =
  Color.run ~backend:ci.ci_backend ~bank:ci.ci_bank ~frame:ci.ci_frame
    ~vinfo:ci.ci_vinfo ~heat:ci.ci_heat ~prov:ci.ci_prov ci.ci_insns

let compile_func ?(options = default_options) tables (f : Tree.func) =
  Trace.span ~cat:"function" f.Tree.fname @@ fun () ->
  let sem, frame, reserved = match_func ~options tables f in
  let insns, prov, ra_stats =
    match options.regalloc with
    | Stack -> (Semantics.output sem, Semantics.provenance sem, None)
    | Color ->
      let ci = color_input_of ~options tables ~reserved ~frame sem in
      let insns, prov, st =
        Trace.phase "phase3.regalloc" (fun () -> run_color ci)
      in
      (* provenance forced on for heat weighting only is internal:
         don't surface it unless the user asked *)
      let prov = if !Profile.provenance_enabled then prov else [] in
      (insns, prov, Some st)
  in
  let insns, prov =
    match tables.backend.Backend.peephole with
    | Some pass when options.peephole ->
      (* the peephole pass deletes and rewrites instructions, so the
         provenance list is no longer parallel to the output: drop it *)
      (Trace.phase "peephole" (fun () -> pass insns), [])
    | _ -> (insns, prov)
  in
  if !Metrics.enabled then begin
    Metrics.observe Metrics.insns_per_func (List.length insns);
    let spills =
      match ra_stats with
      | Some st -> st.Color.spilled_ranges
      | None -> Regmgr.spills (Semantics.regmgr sem)
    in
    Metrics.observe Metrics.spills_per_func spills
  end;
  {
    cf_name = f.Tree.fname;
    cf_insns = insns;
    cf_frame_size = Frame.size frame;
    cf_prov = prov;
  }

let render_func (bk : Backend.t) buf (cf : compiled_func) =
  Buffer.add_string buf (Fmt.str "\t.globl\t%s\n" cf.cf_name);
  Buffer.add_string buf (cf.cf_name ^ ":\n");
  if cf.cf_frame_size > 0 then
    Buffer.add_string buf (bk.Backend.prologue cf.cf_frame_size);
  List.iter
    (fun i -> Buffer.add_string buf (bk.Backend.render_insn i ^ "\n"))
    cf.cf_insns;
  (* a fall-off-the-end return for functions without a trailing Sret *)
  Buffer.add_string buf "\tret\n"

(* --explain rendering: every instruction line carries a comment with
   the source line and the chain of production ids whose reductions
   produced it, plus the note (assembly template) of the production
   that finally emitted it. *)
let render_func_explained (bk : Backend.t) buf g (cf : compiled_func) =
  Buffer.add_string buf (Fmt.str "\t.globl\t%s\n" cf.cf_name);
  Buffer.add_string buf (cf.cf_name ^ ":\n");
  if cf.cf_frame_size > 0 then
    Buffer.add_string buf (bk.Backend.prologue cf.cf_frame_size);
  let prov = Array.of_list cf.cf_prov in
  List.iteri
    (fun i insn ->
      Buffer.add_string buf (bk.Backend.render_insn insn);
      (if i < Array.length prov then
         let line, pids, mark = prov.(i) in
         match (pids, mark) with
         | [], "" -> ()
         | _ ->
           let ids =
             String.concat ","
               (List.map (fun id -> "p" ^ string_of_int id) pids)
           in
           let note =
             match pids with
             | [] -> ""
             | _ -> (
               let emitter = List.nth pids (List.length pids - 1) in
               match (Grammar.production g emitter).Grammar.note with
               | "" -> ""
               | n -> " ; " ^ n)
           in
           let mark = if mark = "" then "" else " ; " ^ mark in
           Buffer.add_string buf (Fmt.str "\t# L%d %s%s%s" line ids note mark));
      Buffer.add_char buf '\n')
    cf.cf_insns;
  Buffer.add_string buf "\tret\n"

let render_explained (tables : tables) out =
  let g = grammar tables in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, _, size) ->
      Buffer.add_string buf (Fmt.str "\t.comm\t%s,%d\n" name size))
    out.program.Tree.globals;
  List.iter (render_func_explained tables.backend buf g) out.funcs;
  Buffer.contents buf

let render_program (bk : Backend.t) (p : Tree.program) funcs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, _, size) ->
      Buffer.add_string buf (Fmt.str "\t.comm\t%s,%d\n" name size))
    p.Tree.globals;
  List.iter (fun cf -> render_func bk buf cf) funcs;
  Buffer.contents buf

let compile_program ?(options = default_options) ?tables ?(jobs = 1)
    ?(oversubscribe = false) (p : Tree.program) =
  (* the tables (and their lazy cell) are resolved before any worker
     domain exists; workers only ever read them *)
  let tables =
    match tables with
    | Some t -> t
    | None ->
      if options.grammar = Grammar_def.default then Lazy.force default_tables
      else build_tables options.grammar
  in
  let funcs =
    Parallel.map ~oversubscribe ~jobs (compile_func ~options tables)
      p.Tree.funcs
  in
  { assembly = render_program tables.backend p funcs; funcs; program = p }

let singleton_func tree =
  {
    Tree.fname = "snippet";
    formals = [];
    ret_type = Dtype.Long;
    locals_size = 0;
    body = [ Tree.Stree tree ];
  }

let compile_tree ?(options = default_options) ?tables tree =
  let tables =
    match tables with Some t -> t | None -> Lazy.force default_tables
  in
  (compile_func ~options tables (singleton_func tree)).cf_insns

let compile_tree_traced ?(options = default_options) ?tables tree =
  let tables =
    match tables with Some t -> t | None -> Lazy.force default_tables
  in
  let f = singleton_func tree in
  let tr = Transform.run ~options:options.transform f in
  let frame = Frame.create ~locals_size:0 ~temps:tr.Transform.temps in
  let sem =
    Semantics.create ~idioms:options.idioms
      ?move:tables.backend.Backend.move frame
  in
  let cb = tables.backend.Backend.callbacks sem tables.grammar in
  let traces = ref [] in
  List.iter
    (fun (s : Tree.stmt) ->
      match s with
      | Tree.Stree t ->
        let outcome =
          Matcher.run_tree ~trace:true ~grammar:tables.grammar tables.packed
            cb t
        in
        traces := outcome.Matcher.trace :: !traces
      | _ -> ())
    tr.Transform.func.Tree.body;
  (Semantics.output sem, List.concat (List.rev !traces))

let total_cycles ?(backend = Backend.vax) out =
  List.fold_left
    (fun acc cf ->
      acc
      + List.fold_left (fun a i -> a + backend.Backend.insn_cycles i) 0
          cf.cf_insns
      + backend.Backend.prologue_cycles)
    0 out.funcs

let total_lines out =
  List.fold_left
    (fun acc cf -> acc + Insn.count_lines cf.cf_insns + 3
      (* .globl, entry label, ret *))
    0 out.funcs
  + List.length out.program.Tree.globals
