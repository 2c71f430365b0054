type token =
  | INT of int64
  | FLOAT of float
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

exception Lex_error of int * string

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable tok : token;
  mutable tok_line : int;
}

let error t fmt = Fmt.kstr (fun s -> raise (Lex_error (t.line, s))) fmt

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_ws t =
  if t.pos < String.length t.src then
    match t.src.[t.pos] with
    | ' ' | '\t' | '\r' ->
      t.pos <- t.pos + 1;
      skip_ws t
    | '\n' ->
      t.pos <- t.pos + 1;
      t.line <- t.line + 1;
      skip_ws t
    | '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '*' ->
      let rec close i =
        if i + 1 >= String.length t.src then error t "unterminated comment"
        else if t.src.[i] = '*' && t.src.[i + 1] = '/' then i + 2
        else begin
          if t.src.[i] = '\n' then t.line <- t.line + 1;
          close (i + 1)
        end
      in
      t.pos <- close (t.pos + 2);
      skip_ws t
    | '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '/' ->
      while t.pos < String.length t.src && t.src.[t.pos] <> '\n' do
        t.pos <- t.pos + 1
      done;
      skip_ws t
    | _ -> ()

(* Keywords resolve with one string match; the returned tokens are
   static constants, so no keyword or punctuator allocates. *)
let word = function
  | "char" -> KW "char"
  | "short" -> KW "short"
  | "int" -> KW "int"
  | "long" -> KW "long"
  | "unsigned" -> KW "unsigned"
  | "float" -> KW "float"
  | "double" -> KW "double"
  | "void" -> KW "void"
  | "if" -> KW "if"
  | "else" -> KW "else"
  | "while" -> KW "while"
  | "do" -> KW "do"
  | "for" -> KW "for"
  | "return" -> KW "return"
  | "break" -> KW "break"
  | "continue" -> KW "continue"
  | "register" -> KW "register"
  | s -> IDENT s

let char_at t k =
  if t.pos + k < String.length t.src then t.src.[t.pos + k] else '\000'

let take t n tok =
  t.pos <- t.pos + n;
  tok

(* Punctuators dispatch on their first two or three characters, longest
   match first (maximal munch): [a+++b] is [a ++ + b]. *)
let punct t c =
  match (c, char_at t 1) with
  | '<', '<' ->
    if char_at t 2 = '=' then take t 3 (PUNCT "<<=") else take t 2 (PUNCT "<<")
  | '>', '>' ->
    if char_at t 2 = '=' then take t 3 (PUNCT ">>=") else take t 2 (PUNCT ">>")
  | '=', '=' -> take t 2 (PUNCT "==")
  | '!', '=' -> take t 2 (PUNCT "!=")
  | '<', '=' -> take t 2 (PUNCT "<=")
  | '>', '=' -> take t 2 (PUNCT ">=")
  | '&', '&' -> take t 2 (PUNCT "&&")
  | '|', '|' -> take t 2 (PUNCT "||")
  | '+', '+' -> take t 2 (PUNCT "++")
  | '-', '-' -> take t 2 (PUNCT "--")
  | '+', '=' -> take t 2 (PUNCT "+=")
  | '-', '=' -> take t 2 (PUNCT "-=")
  | '*', '=' -> take t 2 (PUNCT "*=")
  | '/', '=' -> take t 2 (PUNCT "/=")
  | '%', '=' -> take t 2 (PUNCT "%=")
  | '&', '=' -> take t 2 (PUNCT "&=")
  | '|', '=' -> take t 2 (PUNCT "|=")
  | '^', '=' -> take t 2 (PUNCT "^=")
  | '+', _ -> take t 1 (PUNCT "+")
  | '-', _ -> take t 1 (PUNCT "-")
  | '*', _ -> take t 1 (PUNCT "*")
  | '/', _ -> take t 1 (PUNCT "/")
  | '%', _ -> take t 1 (PUNCT "%")
  | '&', _ -> take t 1 (PUNCT "&")
  | '|', _ -> take t 1 (PUNCT "|")
  | '^', _ -> take t 1 (PUNCT "^")
  | '~', _ -> take t 1 (PUNCT "~")
  | '!', _ -> take t 1 (PUNCT "!")
  | '<', _ -> take t 1 (PUNCT "<")
  | '>', _ -> take t 1 (PUNCT ">")
  | '=', _ -> take t 1 (PUNCT "=")
  | '(', _ -> take t 1 (PUNCT "(")
  | ')', _ -> take t 1 (PUNCT ")")
  | '{', _ -> take t 1 (PUNCT "{")
  | '}', _ -> take t 1 (PUNCT "}")
  | '[', _ -> take t 1 (PUNCT "[")
  | ']', _ -> take t 1 (PUNCT "]")
  | ';', _ -> take t 1 (PUNCT ";")
  | ',', _ -> take t 1 (PUNCT ",")
  | '?', _ -> take t 1 (PUNCT "?")
  | ':', _ -> take t 1 (PUNCT ":")
  | _ -> error t "unexpected character %c" c

let is_hex c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let skip t p =
  while t.pos < String.length t.src && p t.src.[t.pos] do
    t.pos <- t.pos + 1
  done

(* Decimal literals up to 2^63-1 and hexadecimal ones up to 2^64-1
   (wrapping, as in C); anything wider is a lexical error. *)
let int_literal t s =
  match Int64.of_string s with
  | n -> INT n
  | exception Failure _ -> error t "integer literal out of range"

let number t =
  let start = t.pos in
  skip t is_digit;
  let c = char_at t 0 in
  if (c = 'x' || c = 'X') && t.pos = start + 1 && t.src.[start] = '0' then begin
    t.pos <- t.pos + 1;
    let hstart = t.pos in
    skip t is_hex;
    if hstart = t.pos then error t "bad hex literal";
    int_literal t ("0x" ^ String.sub t.src hstart (t.pos - hstart))
  end
  else if c = '.' then begin
    t.pos <- t.pos + 1;
    skip t is_digit;
    FLOAT (float_of_string (String.sub t.src start (t.pos - start)))
  end
  else int_literal t (String.sub t.src start (t.pos - start))

let scan t =
  skip_ws t;
  t.tok_line <- t.line;
  if t.pos >= String.length t.src then EOF
  else
    let c = t.src.[t.pos] in
    if is_digit c then number t
    else if is_alpha c then begin
      let start = t.pos in
      skip t is_alnum;
      word (String.sub t.src start (t.pos - start))
    end
    else punct t c

let create src =
  let t = { src; pos = 0; line = 1; tok = EOF; tok_line = 1 } in
  t.tok <- scan t;
  t

let peek t = t.tok

let next t =
  let tok = t.tok in
  t.tok <- scan t;
  tok

let line t = t.tok_line

let pp_token ppf = function
  | INT n -> Fmt.pf ppf "%Ld" n
  | FLOAT f -> Fmt.pf ppf "%g" f
  | IDENT s -> Fmt.string ppf s
  | KW s -> Fmt.string ppf s
  | PUNCT s -> Fmt.pf ppf "'%s'" s
  | EOF -> Fmt.string ppf "<eof>"
