(* A minimal JSON reader/writer for the telemetry sidecars.

   The ops tooling (mdgtool top, trace-merge) consumes documents this
   repo itself produces — admin stats, Chrome traces, flight-recorder
   dumps — so a small recursive-descent parser over the full JSON
   grammar is enough; no external dependency, no streaming.  Numbers
   are floats (Chrome trace timestamps are fractional microseconds);
   object member order is preserved so printing is stable. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* -- parsing -------------------------------------------------------------- *)

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    c.pos <- c.pos + 1;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some got when got = ch -> c.pos <- c.pos + 1
  | got ->
    fail "expected '%c' at offset %d, got %s" ch c.pos
      (match got with Some g -> Fmt.str "'%c'" g | None -> "end of input")

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail "bad literal at offset %d" c.pos

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail "bad hex digit '%c'" ch

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
      c.pos <- c.pos + 1;
      (match peek c with
      | Some '"' -> Buffer.add_char b '"'
      | Some '\\' -> Buffer.add_char b '\\'
      | Some '/' -> Buffer.add_char b '/'
      | Some 'b' -> Buffer.add_char b '\b'
      | Some 'f' -> Buffer.add_char b '\012'
      | Some 'n' -> Buffer.add_char b '\n'
      | Some 'r' -> Buffer.add_char b '\r'
      | Some 't' -> Buffer.add_char b '\t'
      | Some 'u' ->
        if c.pos + 4 >= String.length c.s then fail "truncated \\u escape";
        let v =
          (hex_digit c.s.[c.pos + 1] lsl 12)
          lor (hex_digit c.s.[c.pos + 2] lsl 8)
          lor (hex_digit c.s.[c.pos + 3] lsl 4)
          lor hex_digit c.s.[c.pos + 4]
        in
        c.pos <- c.pos + 4;
        (* encode the code point as UTF-8; surrogate pairs in the
           telemetry documents do not occur (we only escape control
           characters), so a lone surrogate is kept as-is *)
        if v < 0x80 then Buffer.add_char b (Char.chr v)
        else if v < 0x800 then begin
          Buffer.add_char b (Char.chr (0xc0 lor (v lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (v land 0x3f)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xe0 lor (v lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((v lsr 6) land 0x3f)));
          Buffer.add_char b (Char.chr (0x80 lor (v land 0x3f)))
        end
      | _ -> fail "bad escape at offset %d" c.pos);
      c.pos <- c.pos + 1;
      go ()
    | Some ch when Char.code ch < 0x20 -> fail "control character in string"
    | Some ch ->
      Buffer.add_char b ch;
      c.pos <- c.pos + 1;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let consume_while pred =
    let rec go () =
      match peek c with
      | Some ch when pred ch ->
        c.pos <- c.pos + 1;
        go ()
      | _ -> ()
    in
    go ()
  in
  (match peek c with Some '-' -> c.pos <- c.pos + 1 | _ -> ());
  consume_while (function '0' .. '9' -> true | _ -> false);
  (match peek c with
  | Some '.' ->
    c.pos <- c.pos + 1;
    consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  (match peek c with
  | Some ('e' | 'E') ->
    c.pos <- c.pos + 1;
    (match peek c with Some ('+' | '-') -> c.pos <- c.pos + 1 | _ -> ());
    consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  if c.pos = start then fail "expected a number at offset %d" start;
  match float_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some v -> v
  | None -> fail "bad number at offset %d" start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          members ((k, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}' at offset %d" c.pos
      in
      Obj (members [])
    end
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          elements (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List.rev (v :: acc)
        | _ -> fail "expected ',' or ']' at offset %d" c.pos
      in
      Arr (elements [])
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let parse s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then
    fail "%d trailing bytes after the document" (String.length s - c.pos);
  v

let parse_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse s

(* -- printing ------------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_number b v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" v)
  else Buffer.add_string b (Printf.sprintf "%.6g" v)

let rec print_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v -> print_number b v
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        print_value b v)
      vs;
    Buffer.add_char b ']'
  | Obj ms ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\":";
        print_value b v)
      ms;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  print_value b v;
  Buffer.contents b

(* Crash-safe: the whole document goes to a temp sibling in the target's
   directory and is renamed into place, so a reader (or a crash
   mid-write) never sees a torn document — the previous complete one
   survives until the new one is durable. *)
let write_atomic path doc =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp in
  (match output_string oc doc with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

(* -- accessors ------------------------------------------------------------ *)

let member k = function
  | Obj ms -> List.assoc_opt k ms
  | _ -> None

let to_float = function
  | Num v -> Some v
  | _ -> None

let to_int v = Option.map int_of_float (to_float v)

let to_str = function
  | Str s -> Some s
  | _ -> None

let to_list = function
  | Arr vs -> Some vs
  | _ -> None
