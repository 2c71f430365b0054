open Import

type reason = Diverged of string | Crash of string
type failure = { backend : string; reason : reason }

exception Invalid of string

let pp_failure ppf f =
  match f.reason with
  | Diverged d -> Fmt.pf ppf "%s: observable state differs: %s" f.backend d
  | Crash m -> Fmt.pf ppf "%s: crash: %s" f.backend m

let pp_v = Interp.pp_value

let compare_observations ~(reference : Interp.outcome) (s : Simout.t) =
  if not (Interp.value_equal s.Simout.return_value reference.Interp.return_value)
  then
    Error
      (Fmt.str "return value %a, expected %a" pp_v s.Simout.return_value pp_v
         reference.Interp.return_value)
  else if s.Simout.output <> reference.Interp.output then
    Error
      (Fmt.str "print output %a, expected %a"
         Fmt.(Dump.list string)
         s.Simout.output
         Fmt.(Dump.list string)
         reference.Interp.output)
  else
    (* match globals by name so that a missing or extra one is named
       rather than surfacing as an opaque length mismatch *)
    let rec walk gs is =
      match (gs, is) with
      | [], [] -> Ok ()
      | (n, _) :: _, [] -> Error (Fmt.str "extra global %s" n)
      | [], (n, _) :: _ -> Error (Fmt.str "global %s missing" n)
      | (n1, v1) :: gs', (n2, v2) :: is' ->
        if n1 <> n2 then Error (Fmt.str "global order differs: %s vs %s" n1 n2)
        else if not (Interp.value_equal v1 v2) then
          Error (Fmt.str "global %s = %a, expected %a" n1 pp_v v1 pp_v v2)
        else walk gs' is'
    in
    walk s.Simout.globals reference.Interp.globals

let default_grammar () = Lazy.force Gg_vax.Grammar_def.default_grammar

type engine = {
  e_name : string;
  e_tables : Driver.tables;
  e_options : Driver.options option;
      (* per-engine override of [check]'s ~options; this is how one
         oracle run becomes differential over the register allocator *)
}

type engines = engine list

let engine ?options e_name e_tables = { e_name; e_tables; e_options = options }

(* engines for an arbitrary target, named after it so a failure pins
   down the machine description *)
let engine_for target =
  engine (Targets.name target) (Targets.default_tables target)

(* the same tables, but allocating with the graph colorer: in a mixed
   engine list the oracle pits stack against color through the shared
   interpreter reference *)
let color_engine_for target =
  engine
    ~options:
      { Driver.default_options with Driver.regalloc = Driver.Color }
    (Targets.name target ^ "-color")
    (Targets.default_tables target)

let check ?(options = Driver.default_options) ?(pcc = true) ?(jobs = 1)
    ?(max_steps = 10_000_000) ~(engines : engines) (prog : Tree.program) =
  let reference =
    try Interp.run ~max_steps prog ~entry:"main" []
    with Interp.Runtime_error m -> raise (Invalid m)
  in
  let run_assembly ~target backend assembly =
    match
      Targets.run_text ~target ~max_steps:(4 * max_steps) assembly
        ~global_types:prog.Tree.globals ~entry:"main" []
    with
    | out -> (
      match compare_observations ~reference out with
      | Ok () -> None
      | Error detail -> Some { backend; reason = Diverged detail })
    | exception Targets.Sim_error m ->
      Some { backend; reason = Crash (Fmt.str "simulator: %s" m) }
    | exception Targets.Parse_error (l, m) ->
      Some { backend; reason = Crash (Fmt.str "asm parse error line %d: %s" l m) }
  in
  let check_gg e =
    let tables = e.e_tables in
    let options = Option.value e.e_options ~default:options in
    let target = (Driver.backend tables).Backend.target in
    match Driver.compile_program ~options ~tables ~jobs prog with
    | out -> run_assembly ~target e.e_name out.Driver.assembly
    | exception Matcher.Reject err ->
      Some
        { backend = e.e_name; reason = Crash (Fmt.str "%a" Matcher.pp_error err) }
    | exception Failure m -> Some { backend = e.e_name; reason = Crash m }
  in
  let check_pcc () =
    if not pcc then None
    else
      match Pcc.compile_program ~peephole:options.Driver.peephole prog with
      | out -> run_assembly ~target:Backend.Vax "pcc" out.Pcc.assembly
      | exception Failure m -> Some { backend = "pcc"; reason = Crash m }
  in
  let rec first = function
    | [] -> Ok reference
    | f :: rest -> ( match f () with Some fl -> Error fl | None -> first rest)
  in
  first (List.map (fun e () -> check_gg e) engines @ [ check_pcc ])
