open Import

type regalloc_sel = Rstack | Rcolor | Rboth

type config = {
  seed_lo : int;
  seed_hi : int;
  gen : Treegen.config;
  regalloc : regalloc_sel;
  targets : Backend.target list;
  straight_line : bool;
  corpus_dir : string;
  max_shrink_checks : int;
  jobs : int;
  log : string Fmt.t option;
}

let default_config =
  {
    seed_lo = 0;
    seed_hi = 100;
    gen = Treegen.default_config;
    regalloc = Rstack;
    targets = [ Backend.Vax ];
    straight_line = false;
    corpus_dir = "fuzz-corpus";
    max_shrink_checks = 2000;
    jobs = 1;
    log = None;
  }

type divergence = {
  seed : int;
  failure : Oracle.failure;
  shrunk : Tree.program;
  shrunk_stmts : int;
  dump : string option;
}

type result = {
  programs : int;
  divergences : divergence list;
  fired : int list;
  seconds : float;
}

(* one engine per target and selected allocator *)
let engines_of ~targets ~regalloc =
  List.concat_map
    (fun target ->
      match regalloc with
      | Rstack -> [ Oracle.engine_for target ]
      | Rcolor -> [ Oracle.color_engine_for target ]
      | Rboth -> [ Oracle.engine_for target; Oracle.color_engine_for target ])
    targets

let program_of_seed cfg seed =
  if cfg.straight_line then Treegen.program ~seed ~stmts:cfg.gen.Treegen.stmts
  else Treegen.control_program ~seed cfg.gen

let log cfg fmt = Fmt.kstr (fun s -> Option.iter (fun l -> l Fmt.stderr s) cfg.log) fmt

(* the PCC baseline emits VAX assembly, so it only joins the oracle
   when the VAX is among the fuzzed targets *)
let pcc_of_targets targets = List.mem Backend.Vax targets

(* a shrink step must preserve *which* backend fails, not merely that
   something fails — otherwise a cross-backend campaign can shrink a
   RISC divergence into an unrelated (pre-existing) VAX one and the
   reproducer stops witnessing the bug it was filed for *)
let still_fails ~pcc ~backend engines prog =
  match Oracle.check ~pcc ~engines prog with
  | Ok _ -> false
  | Error f -> f.Oracle.backend = backend
  | exception Oracle.Invalid _ -> false

let handle_divergence cfg engines seed prog (failure : Oracle.failure) =
  log cfg "seed %d: %a; shrinking@." seed Oracle.pp_failure failure;
  let pcc = pcc_of_targets cfg.targets in
  let shrunk, stats =
    Shrink.run ~max_checks:cfg.max_shrink_checks
      ~check:
        (Shrink.valid_and
           (still_fails ~pcc ~backend:failure.Oracle.backend engines))
      prog
  in
  log cfg "seed %d: shrunk %d -> %d statements (%d oracle checks)@." seed
    stats.Shrink.stmts_before stats.Shrink.stmts_after stats.Shrink.checks;
  let dump =
    match cfg.corpus_dir with
    | "" -> None
    | dir ->
      let path = Dump.save ~dir ~name:(Fmt.str "seed-%d" seed) shrunk in
      log cfg "seed %d: reproducer saved to %s@." seed path;
      Some path
  in
  { seed; failure; shrunk; shrunk_stmts = stats.Shrink.stmts_after; dump }

let run cfg : result =
  let t0 = Unix.gettimeofday () in
  let engines = engines_of ~targets:cfg.targets ~regalloc:cfg.regalloc in
  let pcc = pcc_of_targets cfg.targets in
  let divergences = ref [] in
  let programs = ref 0 in
  let (), fired =
    Coverage.with_fired (fun () ->
        for seed = cfg.seed_lo to cfg.seed_hi do
          let prog = program_of_seed cfg seed in
          incr programs;
          (* shrinking re-checks tiny programs where domain-spawn
             overhead dominates, so only the main check runs parallel *)
          match Oracle.check ~pcc ~jobs:cfg.jobs ~engines prog with
          | Ok _ -> ()
          | Error failure ->
            divergences :=
              handle_divergence cfg engines seed prog failure :: !divergences
          | exception Oracle.Invalid m ->
            (* a generator bug: surface it like a divergence, unshrunk *)
            divergences :=
              {
                seed;
                failure =
                  {
                    Oracle.backend = "interp";
                    reason = Oracle.Crash (Fmt.str "generator produced invalid program: %s" m);
                  };
                shrunk = prog;
                shrunk_stmts = Shrink.program_stmts prog;
                dump = None;
              }
              :: !divergences
        done)
  in
  {
    programs = !programs;
    divergences = List.rev !divergences;
    fired;
    seconds = Unix.gettimeofday () -. t0;
  }

let replay ?(regalloc = Rstack) ?(targets = [ Backend.Vax ]) path =
  let prog = Dump.load_ir path in
  Oracle.check ~pcc:(pcc_of_targets targets)
    ~engines:(engines_of ~targets ~regalloc)
    prog
