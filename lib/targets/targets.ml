module Backend = Gg_codegen.Backend
module Driver = Gg_codegen.Driver
module Interp = Gg_ir.Interp
module Dtype = Gg_ir.Dtype
module Simout = Gg_ir.Simout

let backend_of = function
  | Backend.Vax -> Backend.vax
  | Backend.Risc -> Gg_risc.Target.backend

let of_string s = Backend.target_of_string s
let name = Backend.target_name
let all = Backend.all_targets

(* one set of default tables per target, built on first use *)
let default_vax_tables = Driver.default_tables

let default_risc_tables =
  lazy
    (Driver.build_tables ~backend:Gg_risc.Target.backend
       Gg_risc.Grammar_def.default)

let default_tables = function
  | Backend.Vax -> Lazy.force default_vax_tables
  | Backend.Risc -> Lazy.force default_risc_tables

let build_tables target gopts =
  Driver.build_tables ~backend:(backend_of target) gopts

let cached_tables ?dir target gopts =
  Driver.cached_tables ?dir ~backend:(backend_of target) gopts

(* Profile-guided layout (Gg_tablegen.Packed ~profile): the auto
   profile is the firing heat of the fixed mini-C corpus compiled with
   this target's own tables — each grammar numbers its productions
   differently, so a profile is grammar-specific and must be collected
   per target. *)
let heat_profile target =
  let saved = !Gg_profile.Profile.coverage_enabled in
  Gg_profile.Profile.coverage_enabled := true;
  Gg_profile.Profile.reset_coverage ();
  let tables = default_tables target in
  List.iter
    (fun (_, src) ->
      ignore
        (Driver.compile_program ~tables (Gg_frontc.Sema.compile src)
          : Driver.output))
    Gg_frontc.Corpus.fixed_programs;
  let counts = Gg_profile.Profile.production_counts () in
  Gg_profile.Profile.reset_coverage ();
  Gg_profile.Profile.coverage_enabled := saved;
  Gg_tablegen.Heat.of_counts counts

let specialized_tables ?dir ?(use_cache = true) ~profile target =
  let b = backend_of target in
  let g = Lazy.force b.Backend.default_grammar in
  let packed =
    if use_cache then
      Gg_tablegen.Cache.load_or_build ?dir ~target:(name target) ~profile g
    else Gg_tablegen.Cache.build ~profile g
  in
  Driver.of_engine ~backend:b
    (Gg_matcher.Matcher.packed_engine ~grammar:g packed)

(* the (target name, grammar) pairs a cache eviction must keep *)
let live_cache_entries gopts =
  List.map
    (fun t ->
      let b = backend_of t in
      let g =
        if gopts = Gg_vax.Grammar_def.default then
          Lazy.force b.Backend.default_grammar
        else b.Backend.grammar_of gopts
      in
      (Backend.target_name t, g))
    all

exception Sim_error of string
exception Parse_error of int * string

let run_text ~target ?max_steps ?global_types ?ret_type assembly ~entry args :
    Simout.t =
  match target with
  | Backend.Vax -> (
    try
      Gg_vaxsim.Machine.run_text ?max_steps ?global_types ?ret_type assembly
        ~entry args
    with
    | Gg_vaxsim.Machine.Sim_error m -> raise (Sim_error m)
    | Gg_vaxsim.Asmparse.Parse_error (l, m) -> raise (Parse_error (l, m)))
  | Backend.Risc -> (
    try
      Gg_riscsim.Machine.run_text ?max_steps ?global_types ?ret_type assembly
        ~entry args
    with
    | Gg_riscsim.Machine.Sim_error m -> raise (Sim_error m)
    | Gg_riscsim.Asmparse.Parse_error (l, m) -> raise (Parse_error (l, m)))
