open Import

type item =
  | Globl of string
  | Comm of string * int
  | Deflabel of string
  | Locallabel of Label.t
  | Instruction of Insn.t

type program = { items : item list; text : string }

type syntax = {
  call : string;
  branch : char;
  check_operand : string -> Mode.t -> unit;
}

exception Parse_error of int * string

let error line fmt = Fmt.kstr (fun s -> raise (Parse_error (line, s))) fmt

let is_digit c = c >= '0' && c <= '9'

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || is_digit c || c = '_' || c = '.'

(* Local labels look like L<number>; everything else is a symbol. *)
let local_label_of name =
  if
    String.length name >= 2
    && name.[0] = 'L'
    && String.for_all is_digit (String.sub name 1 (String.length name - 1))
  then int_of_string_opt (String.sub name 1 (String.length name - 1))
  else None

(* -- operand parsing ------------------------------------------------------ *)

let parse_register s =
  match Regconv.of_name s with
  | Some r -> r
  | None -> failwith ("not a register: " ^ s)

(* s.[i] .. s.[j - 1] *)
let slice s i j = String.sub s i (j - i)
let last s = s.[String.length s - 1]

(* a numeral inside [operand]; a bad one is reported with its operand *)
let number operand of_string s =
  match of_string s with
  | Some n -> n
  | None -> failwith (Fmt.str "bad number %S in operand %s" s operand)

(* Grammar of operands we emit:
     $<int>            immediate
     $0f<float>        float literal
     rn | ap | fp | sp register
     (rn)+             autoincrement
     -(rn)             autodecrement
     [body][rx]        indexed
     body := [sym][+|-disp][(rn)]  memory reference
   The syntax's [check_operand] then rejects the modes its machine lacks. *)
let parse_operand syntax str =
  let str = String.trim str in
  let fail () = failwith ("bad operand: " ^ str) in
  let n = String.length str in
  if n = 0 then fail ();
  let mode =
    if str.[0] = '$' then
      if n >= 3 && str.[1] = '0' && str.[2] = 'f' then
        Mode.Fimm (number str float_of_string_opt (slice str 3 n))
      else Mode.Imm (number str Int64.of_string_opt (slice str 1 n))
    else
      match Regconv.of_name str with
      | Some r -> Mode.Reg r
      | None ->
        (* strip an index suffix [rx] *)
        let body, index =
          if last str = ']' then
            match String.rindex_opt str '[' with
            | Some i ->
              (slice str 0 i, Some (parse_register (slice str (i + 1) (n - 1))))
            | None -> fail ()
          else (str, None)
        in
        let len = String.length body in
        let m =
          if body = "" then fail ()
          else if String.starts_with ~prefix:"-(" body then begin
            if last body <> ')' then fail ();
            Mode.autodec (parse_register (slice body 2 (len - 1)))
          end
          else if last body = '+' then begin
            if len < 4 || body.[0] <> '(' || body.[len - 2] <> ')' then fail ();
            Mode.autoinc (parse_register (slice body 1 (len - 2)))
          end
          else begin
            let body, base =
              if last body = ')' then
                match String.rindex_opt body '(' with
                | Some i ->
                  ( slice body 0 i,
                    Some (parse_register (slice body (i + 1) (len - 1))) )
                | None -> fail ()
              else (body, None)
            in
            (* split symbolic and numeric parts *)
            let n = String.length body in
            let sym, disp =
              if body = "" then (None, 0L)
              else if is_digit body.[0] || body.[0] = '-' then
                (None, number str Int64.of_string_opt body)
              else begin
                (* symbol, optionally +n or -n *)
                let rec find_split i =
                  if i >= n || body.[i] = '+' || (body.[i] = '-' && i > 0) then i
                  else find_split (i + 1)
                in
                let cut = find_split 0 in
                let rest = if cut < n && body.[cut] = '+' then cut + 1 else cut in
                ( Some (slice body 0 cut),
                  if cut >= n then 0L
                  else number str Int64.of_string_opt (slice body rest n) )
              end
            in
            Mode.Mem { base; sym; disp; index = None; auto = None }
          end
        in
        match (index, m) with
        | None, _ -> m
        | Some _, Mode.Mem ({ auto = None; _ } as m) -> Mode.Mem { m with index }
        | Some _, _ -> fail ()
  in
  syntax.check_operand str mode;
  mode

(* -- line parsing ---------------------------------------------------------- *)

let split_operands s =
  (* operands are comma separated; commas never occur inside the operand
     syntax we emit *)
  if String.trim s = "" then []
  else String.split_on_char ',' s |> List.map String.trim

let parse_line syntax lineno line : item list =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let trimmed = String.trim line in
  if trimmed = "" then []
  else if trimmed.[0] = '.' then begin
    (* directive *)
    match String.split_on_char '\t' trimmed with
    | ".globl" :: rest -> [ Globl (String.trim (String.concat "" rest)) ]
    | ".comm" :: rest -> (
      match String.split_on_char ',' (String.concat "" rest) with
      | [ name; size ] -> (
        match int_of_string_opt (String.trim size) with
        | Some n -> [ Comm (String.trim name, n) ]
        | None -> error lineno "bad .comm size")
      | _ -> error lineno "bad .comm")
    | d :: _ -> error lineno "unknown directive %s" d
    | [] -> []
  end
  else if last trimmed = ':' then begin
    let name = String.sub trimmed 0 (String.length trimmed - 1) in
    if not (String.for_all is_ident_char name) then
      error lineno "bad label %s" name;
    match local_label_of name with
    | Some l -> [ Locallabel l ]
    | None -> [ Deflabel name ]
  end
  else begin
    (* instruction: mnemonic [TAB operands] *)
    let mnemonic, rest =
      match String.index_opt trimmed '\t' with
      | Some i ->
        (slice trimmed 0 i, slice trimmed (i + 1) (String.length trimmed))
      | None -> (trimmed, "")
    in
    let mnemonic = String.trim mnemonic in
    if not (String.for_all is_ident_char mnemonic) || mnemonic = "" then
      error lineno "bad mnemonic %S" mnemonic;
    match mnemonic with
    | "ret" -> [ Instruction Insn.Ret ]
    | _ when mnemonic = syntax.call -> (
      match split_operands rest with
      | [ n; f ] when String.length n > 1 && n.[0] = '$' -> (
        match int_of_string_opt (String.sub n 1 (String.length n - 1)) with
        | Some argc -> [ Instruction (Insn.Call (f, argc)) ]
        | None -> error lineno "bad %s argument count" syntax.call)
      | _ -> error lineno "bad %s operands" syntax.call)
    | _ when mnemonic.[0] = syntax.branch -> (
      match split_operands rest with
      | [ target ] -> (
        match local_label_of target with
        | Some l -> [ Instruction (Insn.Branch (mnemonic, l)) ]
        | None -> error lineno "branch to non-local label %s" target)
      | _ -> error lineno "bad branch operands")
    | _ -> (
      match List.map (parse_operand syntax) (split_operands rest) with
      | operands -> [ Instruction (Insn.insn mnemonic operands) ]
      | exception Failure msg -> error lineno "%s" msg)
  end

let parse syntax text =
  let lines = String.split_on_char '\n' text in
  let items =
    List.concat (List.mapi (fun i l -> parse_line syntax (i + 1) l) lines)
  in
  { items; text }
