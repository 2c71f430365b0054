(* The compile workloads: C source to assembly, in process.

   compile-vax runs the paper's configuration (VAX, stack allocator,
   idioms on, peephole off, plain packed tables) over many small and
   medium programs.  compile-risc-color runs fewer programs of fewer,
   longer functions (main alone has 30 to 72 statements) on RISC with the
   graph-coloring allocator and tables specialized around the target's
   auto heat profile.  They stay small enough that a run's timed passes
   hold several thousand samples: compile_ms_p99 needs a thousand. *)

open Common
module Backend = Gg_codegen.Backend
module Driver = Gg_codegen.Driver
module Targets = Gg_targets.Targets
module Pcc = Gg_pcc.Pcc
module Parser = Gg_frontc.Parser
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus
module Tree = Gg_ir.Tree
module Interp = Gg_ir.Interp
module Simout = Gg_ir.Simout
module Oracle = Gg_fuzz.Oracle
module Trace = Gg_profile.Trace
module Profile = Gg_profile.Profile
module Metrics = Gg_profile.Metrics

type config = {
  target : Backend.target;
  regalloc : Driver.regalloc;
  specialize : bool;
  programs : int;
  pressure : int;  (** register-pressure programs after the random ones *)
  functions : int * int;  (** inclusive range per program *)
  stmts : int * int;  (** inclusive range per function *)
}

let vax =
  {
    target = Backend.Vax;
    regalloc = Driver.Stack;
    specialize = false;
    programs = 240;
    pressure = 0;
    functions = (1, 8);
    stmts = (2, 20);
  }

(* Random programs almost never make the colorer spill on RISC (Phase 1
   keeps each tree within half the bank), so eight register-pressure
   programs follow them; see [pressure_source]. *)
let risc_color =
  {
    target = Backend.Risc;
    regalloc = Driver.Color;
    specialize = true;
    programs = 120;
    pressure = 8;
    functions = (1, 3);
    stmts = (10, 24);
  }

let setup_repeats = 9

(* -- the corpus ----------------------------------------------------------- *)

type program = {
  name : string;
  source : string;
  tree : Tree.program;
  trees : int;  (** statement trees frontc produced *)
  funcs : int;
  stmts : int;
}

let count_trees (p : Tree.program) =
  List.fold_left
    (fun acc (f : Tree.func) ->
      List.fold_left
        (fun acc s -> match s with Tree.Stree _ -> acc + 1 | _ -> acc)
        acc f.Tree.body)
    0 p.Tree.funcs

(* The [i]-th of [n] shapes: function and statement counts sweep their
   ranges in a fixed interleaving, so every seed's corpus has the same
   size profile and seeds differ only in program text. *)
let shape ~n i (flo, fhi) (slo, shi) =
  let nf = fhi - flo + 1 and ns = shi - slo + 1 in
  let functions = flo + (i mod nf) in
  let stmts = slo + (((i / nf) + (i * ns / n)) mod ns) in
  (functions, stmts)

(* A register-pressure program.  [(int)(0.5 * (double)e)] loads its 0.5
   into a register pair before it computes [e], so [d] nested halvings
   hold [d] pairs at once.  With the loop's register variable taking one
   of the RISC's ten registers, the colorer spills and reloads [d - 3]
   values per chain: 10 of each for depths 4 to 7, whatever the seed,
   which only picks the constants. *)
let pressure_depths = [ 4; 5; 6; 7 ]

let pressure_source st =
  let rec chain d e =
    if d = 0 then e else chain (d - 1) (Fmt.str "((int)(0.5 * ((double)%s)))" e)
  in
  let body =
    List.map
      (fun d ->
        Fmt.str "    a = %s + %d;\n" (chain d "a")
          (100 + Random.State.int st 900))
      pressure_depths
  in
  Fmt.str
    "int main() {\n  int a;\n  register int k;\n  a = %d;\n  for (k = 0; k < %d; \
     k++) {\n%s  }\n  print(a);\n  return a & 255;\n}\n"
    (Random.State.int st 10000) (2 + Random.State.int st 6)
    (String.concat "" body)

(* Programs drawn from the seed alone: the same seed gives the same
   sources, so every count below repeats exactly. *)
let corpus cfg seed =
  let st = Random.State.make [| 0x1ed9e7; seed |] in
  let program name source funcs stmts =
    let tree = Sema.compile source in
    { name; source; tree; trees = count_trees tree; funcs; stmts }
  in
  let random =
    Array.init cfg.programs (fun i ->
        let functions, stmts =
          shape ~n:cfg.programs i cfg.functions cfg.stmts
        in
        let pseed = Random.State.bits st in
        program
          (Fmt.str "p%03d(seed %d, %dx%d)" i pseed functions stmts)
          (Corpus.random_source ~seed:pseed ~functions
             ~stmts_per_function:stmts)
          functions (functions * stmts))
  in
  Array.append random
    (Array.init cfg.pressure (fun k ->
         program
           (Fmt.str "p%03d(pressure)" (cfg.programs + k))
           (pressure_source st) 1
           (List.length pressure_depths)))

let options cfg = { Driver.default_options with Driver.regalloc = cfg.regalloc }

(* -- set-up: the cold table path ----------------------------------------- *)

let span name f = Trace.span ~cat:"bench" name f

type setup = {
  su_seconds : float;
  su_tables : Driver.tables;
  su_build : float;  (** table construction, from the trace *)
  su_specialize : float;  (** heat profile, specializer and verifier *)
  su_kb : float;  (** what the cold path left in the cache *)
}

(* One cold set-up: the target's tables built into an empty cache
   directory (and, specialized, from a freshly collected heat profile,
   verified cell-for-cell against the dense tables before use).  The
   bench spans split it in a traced run; untraced they cost nothing and
   the split reads 0. *)
let setup cfg =
  Gc.compact ();
  Trace.reset ();
  let dir = fresh_dir "cache" in
  let t0 = now () in
  let tables =
    if cfg.specialize then
      let profile =
        span "bench.heat" (fun () -> Targets.heat_profile cfg.target)
      in
      span "bench.tables" (fun () ->
          Targets.specialized_tables ~dir ~profile cfg.target)
    else
      span "bench.tables" (fun () ->
          Targets.cached_tables ~dir cfg.target
            Driver.default_options.Driver.grammar)
  in
  let seconds = now () -. t0 in
  let sps = Stats.spans (Trace.events ()) in
  Trace.reset ();
  let total name =
    List.fold_left
      (fun acc sp ->
        if sp.Stats.sp_name = name then acc +. (sp.Stats.sp_total_us /. 1e6)
        else acc)
      0. sps
  in
  let build = total "tables.build" in
  {
    su_seconds = seconds;
    su_tables = tables;
    su_build = build;
    su_specialize =
      (if cfg.specialize then total "bench.heat" +. total "bench.tables" -. build
       else 0.);
    su_kb = file_kb dir;
  }

(* -- timing one program --------------------------------------------------- *)

type sample = {
  s_compile : float;  (** frontc + Driver.compile_program, seconds *)
  s_gg : float;  (** Driver.compile_program alone *)
  s_pcc : float;  (** Pcc.compile_program on the same tree *)
  s_asm : string;
}

(* GG's and PCC's second passes back to back on the same tree, the order
   alternating with [pcc_first], so drift shared by the two cancels in
   their ratio: (GG seconds, PCC seconds, GG assembly). *)
let paired ~options ~tables ~pcc_first tree =
  let gg () =
    let t = now () in
    let out =
      span "bench.driver" (fun () -> Driver.compile_program ~options ~tables tree)
    in
    (now () -. t, out.Driver.assembly)
  in
  let pcc () =
    let t = now () in
    ignore (span "bench.pcc" (fun () -> Pcc.compile_program tree) : Pcc.output);
    now () -. t
  in
  if pcc_first then
    let t_pcc = pcc () in
    let t_gg, asm = gg () in
    (t_gg, t_pcc, asm)
  else
    let t_gg, asm = gg () in
    (t_gg, pcc (), asm)

(* Source text to assembly, then PCC on the same tree.  Only calls into
   the layers' public functions are timed. *)
let time_program ~options ~tables ~pcc_first p =
  let t0 = now () in
  let ast = span "bench.parse" (fun () -> Parser.parse_program p.source) in
  let tree = span "bench.sema" (fun () -> Sema.lower_program ast) in
  let t_front = now () -. t0 in
  let t_gg, t_pcc, asm = paired ~options ~tables ~pcc_first tree in
  { s_compile = t_front +. t_gg; s_gg = t_gg; s_pcc = t_pcc; s_asm = asm }

(* -- correctness before speed --------------------------------------------- *)

type reference = {
  r_digest : Digest.t;
  r_bytes : int;
  r_cycles : int;
  r_steps : int;  (** IR statements the interpreter executed *)
  r_sim_insns : int;
  r_insns : int;  (** instructions the code generator emitted *)
}

(* the step budgets of the differential oracle (Gg_fuzz.Oracle) *)
let max_steps = 10_000_000

let simulate ~target ~(tree : Tree.program) ~reference ~what asm =
  match
    Targets.run_text ~target ~max_steps:(4 * max_steps)
      ~global_types:tree.Tree.globals ~entry:"main" asm []
  with
  | sim ->
    (match Oracle.compare_observations ~reference sim with
    | Ok () -> check true (lazy "")
    | Error m -> check false (lazy (Fmt.str "%s: %s" (Lazy.force what) m)));
    Some sim
  | exception e ->
    check false
      (lazy
        (Fmt.str "%s: simulator: %s" (Lazy.force what) (Printexc.to_string e)));
    None

(* Every program once, untimed: GG's output and PCC's must leave the
   interpreter's observables on the target simulator.  The references
   are what every timed pass is then compared against. *)
let references cfg ~options ~tables progs =
  Array.map
    (fun p ->
      let reference = Interp.run ~max_steps p.tree ~entry:"main" [] in
      let out = Driver.compile_program ~options ~tables p.tree in
      let asm = out.Driver.assembly in
      let sim =
        simulate ~target:cfg.target ~tree:p.tree ~reference
          ~what:(lazy (Fmt.str "%s on %s" p.name (Targets.name cfg.target)))
          asm
      in
      ignore
        (simulate ~target:Backend.Vax ~tree:p.tree ~reference
           ~what:(lazy (Fmt.str "%s under pcc" p.name))
           (Pcc.compile_program p.tree).Pcc.assembly
          : Simout.t option);
      let cycles, sim_insns =
        match sim with
        | Some s -> (s.Simout.cycles, s.Simout.insns_executed)
        | None -> (0, 0)
      in
      {
        r_digest = Digest.string asm;
        r_bytes = String.length asm;
        r_cycles = cycles;
        r_steps = reference.Interp.steps;
        r_sim_insns = sim_insns;
        r_insns =
          List.fold_left
            (fun acc cf -> acc + List.length cf.Driver.cf_insns)
            0 out.Driver.funcs;
      })
    progs

(* Simulated cycles per thousand IR statements the interpreter executed
   on the same program, averaged over programs.  Generated programs call
   earlier functions from inside bounded loops, so raw dynamic totals are
   heavy-tailed across seeds and a few programs would decide a sum; per
   executed statement, each program weighs the same. *)
let sim_cycles (runs : (int * int) list) =
  let per (cycles, steps) =
    float_of_int cycles *. 1000. /. float_of_int (max 1 steps)
  in
  List.fold_left (fun acc r -> acc +. per r) 0. runs
  /. float_of_int (List.length runs)

(* -- layers --------------------------------------------------------------- *)

(* A span's self time belongs to one layer.  PCC's Phase 1 records under
   the driver's "phase1.transform" name, so everything inside the
   bench's PCC span is attributed to pcc. *)
let layer_of (sp : Stats.span) =
  if sp.Stats.sp_name = "bench.pcc" || List.mem "bench.pcc" sp.Stats.sp_path
  then Some "pcc"
  else
    match sp.Stats.sp_name with
    | "bench.parse" -> Some "frontc.parse"
    | "bench.sema" -> Some "frontc.sema"
    | "phase1.transform" -> Some "transform"
    | "phase2.match" | "match.tree" -> Some "match"
    | "phase3.regalloc" -> Some "regalloc"
    | "peephole" -> Some "peephole"
    | "bench.driver" -> Some "codegen.render"
    | _ when sp.Stats.sp_cat = "function" -> Some "codegen.function"
    | _ -> None

(* the layers the compile time (frontc + Driver.compile_program) is
   split into; the remainder is what no layer span claims, and the
   layer-sum check fails when it passes [max_remainder_pct] of the total
   (it reads 2-3%: the per-function spans' own set-up) *)
let max_remainder_pct = 10.

let compile_layers =
  [ "frontc.parse"; "frontc.sema"; "transform"; "match"; "regalloc";
    "peephole"; "codegen.render" ]

let codegen_layers =
  [ "transform"; "match"; "regalloc"; "peephole"; "codegen.render";
    "codegen.function" ]

type pass = {
  p_samples : float list;  (** per-program compile seconds *)
  p_kb_rate : float;  (** source KB per compile second *)
  p_good : float;  (** correct compiles *)
  p_clock : float;  (** summed compile seconds *)
}

type traced = {
  mutable passes : int;
  layer : (string, float) Hashtbl.t;  (** summed self seconds *)
  mutable total : float;  (** traced root spans, summed seconds *)
  mutable all_self : float;
      (** self seconds of every span under those roots, in a layer or not *)
  mutable clock : float;  (** the same compiles on the bench clock *)
  mutable matched : int;  (** trees the matcher ran on *)
  mutable reduces : int;
  mutable spills : int;
  mutable reloads : int;
  mutable hot : int;
  mutable cold : int;
}

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.named_counters ()))

let collect tr ~clock =
  let sps = Stats.spans (Trace.events ()) in
  let sec = Stats.layer_seconds ~layer_of sps in
  List.iter
    (fun l ->
      Hashtbl.replace tr.layer l
        (Option.value ~default:0. (Hashtbl.find_opt tr.layer l) +. sec l))
    ("pcc" :: "codegen.function" :: compile_layers);
  let roots = [ "bench.parse"; "bench.sema"; "bench.driver" ] in
  List.iter
    (fun (sp : Stats.span) ->
      let root =
        match List.rev sp.Stats.sp_path with
        | [] -> sp.Stats.sp_name
        | outermost :: _ -> outermost
      in
      if List.mem root roots then begin
        tr.all_self <- tr.all_self +. (sp.Stats.sp_self_us /. 1e6);
        if sp.Stats.sp_path = [] then
          tr.total <- tr.total +. (sp.Stats.sp_total_us /. 1e6)
      end)
    sps;
  tr.clock <- tr.clock +. clock;
  let c = Profile.totals () in
  tr.passes <- tr.passes + 1;
  tr.matched <- tr.matched + c.Profile.matcher_runs;
  tr.reduces <- tr.reduces + c.Profile.reduces;
  tr.spills <- tr.spills + counter "codegen.spills_total";
  tr.reloads <- tr.reloads + counter "codegen.reloads_total";
  tr.hot <- tr.hot + counter "matcher.probe_hits_hot";
  tr.cold <- tr.cold + counter "matcher.probe_hits_cold"

let set_tracing on =
  Trace.enabled := on;
  Profile.enabled := on;
  Metrics.enabled := on;
  Trace.reset ();
  Profile.reset ();
  Metrics.reset ()

(* -- the run -------------------------------------------------------------- *)

let why_vax =
  [
    ("frontc", "stressed: every sample parses and lowers its source");
    ("transform", "stressed: phases 1a-1c rewrite every tree");
    ("match", "stressed: phase 2 over plain packed tables, the paper's setup");
    ("matcher.probe", "bypassed: plain packed tables have no hot/cold split");
    ("regalloc", "bypassed: the stack allocator assigns during matching");
    ("regalloc.spill", "stack allocator spills only, when a tree runs out");
    ("codegen.render", "stressed: assembly text for every function");
    ("tablegen", "set-up only: a cold build into an empty cache");
    ("specialize", "bypassed: no heat profile on this workload");
    ("pcc", "baseline: timed only as the denominator of gg_pcc_ratio");
    ("sim", "untimed: correctness and sim_cycles");
    ("client/server", "bypassed: compiles run in process");
  ]

let why_risc =
  [
    ("frontc", "stressed per byte as on compile-vax: same generator");
    ("transform", "stressed: long function bodies, many trees");
    ("match", "stressed, a smaller share: regalloc dominates codegen");
    ("matcher.probe", "stressed: specialized tables probe hot rows first");
    ("regalloc", "stressed: graph coloring of every function, most of codegen");
    ("regalloc.spill", "stressed: the pressure programs spill and reload");
    ("codegen.render", "stressed: RISC assembly text");
    ("tablegen", "set-up only: dense build feeding the specializer");
    ("specialize", "set-up only: heat profile, packing and verification");
    ("pcc", "baseline: VAX second pass on the same trees (ratio only)");
    ("sim", "untimed: riscsim correctness and sim_cycles");
    ("client/server", "bypassed: compiles run in process");
  ]

let describe (a : args) cfg progs =
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 progs in
  say "workload %s: seed %d, %s, regalloc %s, %s tables" a.workload a.seed
    (Targets.name cfg.target)
    (Driver.regalloc_name cfg.regalloc)
    (if cfg.specialize then "heat-specialized" else "plain packed");
  say "  programs %d (%d register-pressure), functions %d (%d-%d each), \
       statements %d (%d-%d per function), trees %d, source %.1f KB"
    (Array.length progs) cfg.pressure (sum (fun p -> p.funcs))
    (fst cfg.functions)
    (snd cfg.functions) (sum (fun p -> p.stmts)) (fst cfg.stmts)
    (snd cfg.stmts) (sum (fun p -> p.trees))
    (float_of_int (sum (fun p -> String.length p.source)) /. 1024.);
  List.iter
    (fun (l, why) -> say "  layer %-14s %s" l why)
    (if cfg.specialize then why_risc else why_vax)

let run (a : args) cfg =
  (* corpus generation and lowering stay outside every metric *)
  let progs = corpus cfg a.seed in
  describe a cfg progs;
  let options = options cfg in
  (* set-up: a discarded first pass forces the grammar and default-table
     lazies (the heat profile compiles with the in-process default
     tables), then the cold path is timed [setup_repeats] times *)
  ignore (setup cfg : setup);
  if a.trace then set_tracing true;
  let setups = List.init setup_repeats (fun _ -> setup cfg) in
  set_tracing false;
  say "set-up: %s s"
    (String.concat " "
       (List.map (fun su -> Fmt.str "%.4f" su.su_seconds) setups));
  let of_setups f = Stats.median (Array.of_list (List.map f setups)) in
  let tables = (List.hd setups).su_tables in
  let refs = references cfg ~options ~tables progs in
  let n = Array.length progs in
  (* every timed pass's samples, rates and compile seconds *)
  let timed = ref [] in
  let pairs = Array.make n [] in
  let traced =
    {
      passes = 0; layer = Hashtbl.create 16; total = 0.; all_self = 0.;
      clock = 0.;
      matched = 0; reduces = 0; spills = 0; reloads = 0; hot = 0; cold = 0;
    }
  in
  let untraced_s = ref [] and traced_s = ref [] in
  (* one pass over the corpus; every pass's assembly must repeat the
     references byte for byte *)
  let pass k ~record ~trace =
    Gc.compact ();
    if trace then set_tracing true;
    let same = ref true and clock = ref 0. and bytes = ref 0 and good = ref 0 in
    let samples = ref [] in
    Array.iteri
      (fun i p ->
        let s =
          time_program ~options ~tables ~pcc_first:((i + k) land 1 = 1) p
        in
        clock := !clock +. s.s_compile;
        bytes := !bytes + String.length p.source;
        if Digest.string s.s_asm = refs.(i).r_digest then incr good
        else same := false;
        if record then begin
          samples := s.s_compile :: !samples;
          pairs.(i) <- (s.s_gg, s.s_pcc) :: pairs.(i)
        end;
        if a.trace then
          (if trace then traced_s else untraced_s) :=
            s.s_compile :: !(if trace then traced_s else untraced_s))
      progs;
    if trace then begin
      collect traced ~clock:!clock;
      set_tracing false
    end;
    if record then
      timed :=
        ( {
            p_samples = !samples;
            p_kb_rate = float_of_int !bytes /. 1024. /. !clock;
            p_good = float_of_int !good;
            p_clock = !clock;
          },
          !clock )
        :: !timed;
    check !same (lazy (Fmt.str "pass %d repeats the reference assembly" k))
  in
  pass 0 ~record:false ~trace:false;
  let t_start = now () in
  let k = ref 1 in
  (* whole passes only, so per-pass counts stay exact; the traced run
     alternates untraced and traced passes *)
  while now () -. t_start < a.seconds || (a.trace && traced.passes = 0) do
    pass !k ~record:true ~trace:(a.trace && !k land 1 = 0);
    incr k
  done;
  let passes = !k - 1 in
  say "timed: %d passes over %d programs in %.2f s" passes n (now () -. t_start);
  let sum_refs f = Array.fold_left (fun acc r -> acc + f r) 0 refs in
  let rss = peak_rss_mb "self" in
  let med l = Stats.median (Array.of_list l) in
  if not a.trace then begin
    (* Every time metric keeps the faster half of the passes
       (Stats.faster_half).  The passes are replicas: the same programs
       in the same order, the heap compacted before each, so a stall the
       compiler causes recurs in every pass and stays in the kept half;
       what the slower half adds is the neighbours' contention.  The
       tail and goodput over every pass are printed beside them. *)
    let kept = Stats.faster_half !timed in
    let every = List.map fst !timed in
    let ms_of passes =
      Array.of_list
        (List.concat_map
           (fun p -> List.map (fun s -> s *. 1e3) p.p_samples)
           passes)
    in
    let ms = ms_of kept and ms_all = ms_of every in
    let good_rate ps =
      List.fold_left (fun acc p -> acc +. p.p_good) 0. ps
      /. List.fold_left (fun acc p -> acc +. p.p_clock) 0. ps
    in
    say "kept the faster %d of %d timed passes; over all of them \
         compile_ms_p99 %.4f ms (%d beyond), goodput_rps %.2f/s"
      (List.length kept) (List.length !timed)
      (Option.value ~default:Float.nan (Stats.percentile ms_all 0.99))
      (Stats.beyond ~n:(Array.length ms_all) 0.99)
      (good_rate every);
    metric "setup_s" "s"
      (med
         (Stats.faster_half
            (List.map (fun su -> (su.su_seconds, su.su_seconds)) setups)));
    percentile_metric "compile_ms_p50" ~unit:"ms" ms 0.5;
    percentile_metric "compile_ms_p99" ~unit:"ms" ms 0.99;
    metric "src_kb_per_s" "KB/s" (med (List.map (fun p -> p.p_kb_rate) kept));
    metric "gg_pcc_ratio" "ratio" (Stats.paired_ratio_median pairs);
    metric "sim_cycles" "cycles/kstep"
      (sim_cycles
         (Array.to_list (Array.map (fun r -> (r.r_cycles, r.r_steps)) refs)));
    metric "asm_bytes" "bytes" (float_of_int (sum_refs (fun r -> r.r_bytes)));
    (* in process, one request is one compile *)
    percentile_metric "req_ms_p50" ~unit:"ms" ms 0.5;
    percentile_metric "req_ms_p99" ~unit:"ms" ms 0.99;
    metric "goodput_rps" "1/s" (good_rate kept);
    metric "peak_rss_mb" "MB" rss
  end
  else begin
    let tr = traced in
    let per_pass v = v /. float_of_int (max 1 tr.passes) in
    let layer l =
      per_pass (Option.value ~default:0. (Hashtbl.find_opt tr.layer l))
    in
    let sum_layers ls = List.fold_left (fun acc l -> acc +. layer l) 0. ls in
    let codegen = sum_layers codegen_layers in
    let total = per_pass tr.total in
    let named = sum_layers compile_layers in
    let remainder = total -. named in
    say "layer sum over %d traced passes (seconds per pass):" tr.passes;
    List.iter (fun l -> say "  %-34s %10.6f" l (layer l)) compile_layers;
    say "  %-34s %10.6f" "remainder (per-function set-up)" remainder;
    say "  %-34s %10.6f  (bench clock %.6f)" "= traced compile total" total
      (per_pass tr.clock);
    (* the self times of every span under the roots, whether a layer
       claims it or not, must add up to the roots' total; the remainder no
       layer claims must stay small; and the traced total must be the
       time the bench clock saw *)
    let all_self = per_pass tr.all_self in
    check
      (Float.abs (all_self -. total) <= 1e-6 *. total
      && remainder <= max_remainder_pct /. 100. *. total
      && Float.abs (total -. per_pass tr.clock) <= 0.05 *. total)
      (lazy
        (Fmt.str "self times %.6f vs traced total %.6f; remainder %.6f over \
                  %g%%; clock %.6f"
           all_self total remainder max_remainder_pct (per_pass tr.clock)));
    let overhead = ((med !traced_s /. med !untraced_s) -. 1.) *. 100. in
    say "trace.overhead_pct: traced compile_ms_p50 %.4f vs untraced %.4f"
      (med !traced_s *. 1e3) (med !untraced_s *. 1e3);
    let trees = float_of_int tr.matched /. float_of_int tr.passes in
    say "workload split: regalloc %.1f%% and match %.1f%% of codegen self time"
      (100. *. layer "regalloc" /. codegen) (100. *. layer "match" /. codegen);
    metric "tablegen.build_s" "s" (of_setups (fun su -> su.su_build));
    metric "tablegen.file_kb" "KB" (of_setups (fun su -> su.su_kb));
    metric "specialize.build_s" "s" (of_setups (fun su -> su.su_specialize));
    metric "tablegen.load_ms" "ms" 0.;
    metric "frontc.parse_s" "s/pass" (layer "frontc.parse");
    metric "frontc.sema_s" "s/pass" (layer "frontc.sema");
    metric "frontc.trees" "count"
      (float_of_int
         (Array.fold_left (fun acc (p : program) -> acc + p.trees) 0 progs));
    metric "transform.s" "s/pass" (layer "transform");
    metric "match.s" "s/pass" (layer "match");
    metric "match.trees" "count" trees;
    metric "match.us_per_tree" "us" (layer "match" *. 1e6 /. trees);
    metric "match.reductions_per_tree" "count"
      (float_of_int tr.reduces /. float_of_int tr.matched);
    metric "match.codegen_share" "fraction" (layer "match" /. codegen);
    metric "matcher.probe_hot_frac" "fraction"
      (if tr.hot + tr.cold = 0 then 0.
       else float_of_int tr.hot /. float_of_int (tr.hot + tr.cold));
    metric "codegen.render_s" "s/pass" (layer "codegen.render");
    metric "codegen.insns" "count" (float_of_int (sum_refs (fun r -> r.r_insns)));
    metric "regalloc.s" "s/pass" (layer "regalloc");
    metric "regalloc.codegen_share" "fraction" (layer "regalloc" /. codegen);
    metric "regalloc.spills" "count" (per_pass (float_of_int tr.spills));
    metric "regalloc.reloads" "count" (per_pass (float_of_int tr.reloads));
    metric "pcc.s" "s/pass" (layer "pcc");
    metric "sim.insns" "count" (float_of_int (sum_refs (fun r -> r.r_sim_insns)));
    metric "layers.remainder_pct" "%" (100. *. remainder /. total);
    metric "trace.overhead_pct" "%" overhead;
    List.iter (fun (nm, u) -> metric nm u 0.) serve_only_layers
  end
