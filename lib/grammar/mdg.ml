open Import

type production = {
  line : int;
  guard : (string * bool) option;
  schema : Schema.t;
}

type t = {
  start : string;
  start_line : int;
  classes : (string * Dtype.t list) list;
  productions : production list;
}

exception Mdg_error of int * string

let error line fmt = Fmt.kstr (fun s -> raise (Mdg_error (line, s))) fmt

let split_ws s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (fun w -> w <> "")

let suffixes_of line words =
  List.map
    (fun w ->
      match Dtype.of_suffix w with
      | Some ty -> ty
      | None -> error line "unknown type suffix %s" w)
    words

(* split "... [action] ..." into before, action-words, after *)
let extract_bracketed line s =
  match (String.index_opt s '[', String.index_opt s ']') with
  | Some i, Some j when i < j ->
    ( String.sub s 0 i,
      split_ws (String.sub s (i + 1) (j - i - 1)),
      String.sub s (j + 1) (String.length s - j - 1) )
  | _ -> error line "production needs an [action]"

let parse_action line = function
  | [ "chain" ] -> Action.Chain
  | [ "mode"; name ] -> Action.Mode name
  | [ "emit"; name ] -> Action.Emit name
  | ws -> error line "bad action [%s]" (String.concat " " ws)

let after_prefix prefix s =
  let n = String.length prefix in
  String.sub s n (String.length s - n)

(* every "$x" in the production must be a variable its replication
   binds: none for a literal, [$t]/[$c] for %over, [$f]/[$t] for %pairs *)
let check_vars line (sch : Schema.t) =
  let bound =
    match sch.Schema.over with
    | Schema.Literal -> []
    | Schema.Types _ -> [ 't'; 'c' ]
    | Schema.Pairs _ -> [ 'f'; 't' ]
  in
  let check s =
    String.iteri
      (fun i ch ->
        if ch = '$' && i + 1 < String.length s && not (List.mem s.[i + 1] bound)
        then error line "unbound variable $%c in %s" s.[i + 1] s)
      s
  in
  check sch.Schema.lhs;
  List.iter check sch.Schema.rhs;
  Option.iter check (Action.payload sch.Schema.action);
  check sch.Schema.note

let parse text =
  let start = ref None in
  let classes = ref [] in
  let productions = ref [] in
  let class_named line name =
    match List.assoc_opt name !classes with
    | Some tys -> tys
    | None -> error line "unknown class %s" name
  in
  let directive line s =
    match split_ws s with
    | [ "%start"; name ] ->
      if !start <> None then error line "second %%start declaration";
      if Symtab.is_terminal_name name then
        error line "start symbol %s is a terminal" name;
      start := Some (name, line)
    | "%start" :: _ -> error line "%%start takes one symbol"
    | "%class" :: _ -> (
      let body = after_prefix "%class" s in
      match String.index_opt body '=' with
      | None -> error line "bad %%class: missing ="
      | Some j -> (
        match split_ws (String.sub body 0 j) with
        | [ name ] ->
          if List.mem_assoc name !classes then
            error line "class %s is already defined" name;
          let tys =
            suffixes_of line
              (split_ws (String.sub body (j + 1) (String.length body - j - 1)))
          in
          classes := (name, tys) :: !classes
        | _ -> error line "bad %%class: expected %%class NAME = SUFFIXES"))
    | word :: _ -> error line "unknown directive %s" word
    | [] -> ()
  in
  (* a production line: lhs <- rhs [action] (%over C | %pairs A B)? (%if [!]FLAG)? (; note)? *)
  let production line s =
    let s, note =
      match String.index_opt s ';' with
      | Some j ->
        ( String.sub s 0 j,
          String.trim (String.sub s (j + 1) (String.length s - j - 1)) )
      | None -> (s, "")
    in
    let before, action_words, after = extract_bracketed line s in
    let action = parse_action line action_words in
    let rec clauses over guard = function
      | [] -> (Option.value over ~default:Schema.Literal, guard)
      | "%over" :: c :: rest when over = None ->
        clauses (Some (Schema.Types (class_named line c))) guard rest
      | "%pairs" :: a :: b :: rest when over = None ->
        let ca = class_named line a and cb = class_named line b in
        let ps =
          List.concat_map
            (fun x ->
              List.filter_map
                (fun y -> if Dtype.equal x y then None else Some (x, y))
                cb)
            ca
        in
        clauses (Some (Schema.Pairs ps)) guard rest
      | "%if" :: flag :: rest when guard = None ->
        let name, value =
          if String.length flag > 1 && flag.[0] = '!' then
            (after_prefix "!" flag, false)
          else (flag, true)
        in
        clauses over (Some (name, value)) rest
      | ws -> error line "unexpected trailing tokens: %s" (String.concat " " ws)
    in
    let over, guard = clauses None None (split_ws after) in
    match split_ws before with
    | lhs :: "<-" :: rhs when rhs <> [] ->
      if Symtab.is_terminal_name lhs then
        error line "terminal %s used as a left-hand side" lhs;
      let schema = { Schema.lhs; rhs; action; note; over } in
      check_vars line schema;
      productions := { line; guard; schema } :: !productions
    | _ -> error line "expected: lhs <- rhs ... [action]"
  in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let s =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      let s = String.trim s in
      if s = "" then ()
      else if s.[0] = '%' then directive line s
      else production line s)
    (String.split_on_char '\n' text);
  match !start with
  | None -> error 0 "missing %%start declaration"
  | Some (start, start_line) ->
    {
      start;
      start_line;
      classes = List.rev !classes;
      productions = List.rev !productions;
    }

(* the productions whose guard holds, with every class cut down to
   [types]; a production left with no type is dropped *)
let select ~flags ~types t =
  let allowed ty = List.exists (Dtype.equal ty) types in
  List.filter_map
    (fun p ->
      let on =
        match p.guard with
        | None -> true
        | Some (name, want) -> (
          match List.assoc_opt name flags with
          | Some v -> v = want
          | None -> error p.line "unknown flag %s" name)
      in
      let with_over over = Some { p with schema = { p.schema with Schema.over } } in
      if not on then None
      else
        match p.schema.Schema.over with
        | Schema.Literal -> Some p
        | Schema.Types tys -> (
          match List.filter allowed tys with
          | [] -> None
          | tys -> with_over (Schema.Types tys))
        | Schema.Pairs ps -> (
          match List.filter (fun (a, b) -> allowed a && allowed b) ps with
          | [] -> None
          | ps -> with_over (Schema.Pairs ps)))
    t.productions

let schemas ~flags ~types t =
  List.map (fun p -> p.schema) (select ~flags ~types t)

let to_grammar ~flags ~types t =
  let selected = select ~flags ~types t in
  if not (List.exists (fun p -> p.schema.Schema.lhs = t.start) selected) then
    error t.start_line "start symbol %s has no productions" t.start;
  let specs =
    List.concat_map
      (fun p -> List.map (fun spec -> (p.line, spec)) (Schema.expand p.schema))
      selected
  in
  match Grammar.make ~start:t.start (List.map snd specs) with
  | Ok g -> g
  | Error msg ->
    (* the start symbol and every left-hand side are non-terminals
       ([parse] checked), so [Grammar.make] found a duplicate production
       or, failing that, an undefined non-terminal: find its line *)
    let seen = Hashtbl.create 512 and defined = Hashtbl.create 64 in
    List.iter (fun (_, (lhs, _, _, _)) -> Hashtbl.replace defined lhs ()) specs;
    let duplicate (_, (lhs, rhs, _, _)) =
      Hashtbl.mem seen (lhs, rhs) || (Hashtbl.replace seen (lhs, rhs) (); false)
    in
    let undefined (_, (_, rhs, _, _)) =
      List.exists
        (fun sym -> not (Symtab.is_terminal_name sym || Hashtbl.mem defined sym))
        rhs
    in
    let line =
      match List.find_opt duplicate specs with
      | Some (line, _) -> line
      | None -> (
        match List.find_opt undefined specs with
        | Some (line, _) -> line
        | None -> t.start_line)
    in
    error line "%s" msg
