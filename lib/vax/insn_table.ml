open Import

type entry = {
  print : string;
  nops : int;
  binding : bool;
  commutes : bool;
  range : string option;
  swapped : bool;
  sfx : string;
}

type cluster = entry list

let range_matches key operand =
  match (key, Mode.immediate operand) with
  | "$one", Some 1L -> true
  | "$zero", Some 0L -> true
  | _, _ -> false

(* The range idioms proper: "implemented by functions written in C;
   these functions follow a relatively straightforward coding style"
   (section 5.3.2).  Given the idiom key, the type suffix and the
   remaining source operand, return the replacement one-operand
   mnemonic. *)
let range_apply key sfx operand =
  match (key, Mode.immediate operand) with
  | "$add", Some 1L -> Some ("inc" ^ sfx)
  | "$add", Some (-1L) -> Some ("dec" ^ sfx)
  | "$sub", Some 1L -> Some ("dec" ^ sfx)
  | "$sub", Some (-1L) -> Some ("inc" ^ sfx)
  | "$mov", Some 0L -> Some ("clr" ^ sfx)
  | "$cmp", Some 0L -> Some ("tst" ^ sfx)
  | _, _ -> None

(* VAX spells "dif = min - sub" as [sub3 sub,min,dif] and division
   likewise, so the two sources swap in the assembly for those rows. *)
let swaps print =
  String.length print >= 3
  && match String.sub print 0 3 with "sub" | "div" -> true | _ -> false

(* the type suffix of a mnemonic like "addl2" or "movb" *)
let suffix_of print =
  let n = String.length print in
  let c =
    if n > 1 && (print.[n - 1] = '2' || print.[n - 1] = '3') then print.[n - 2]
    else print.[n - 1]
  in
  String.make 1 c

let entry ?(binding = false) ?(commutes = false) ?range print nops =
  {
    print;
    nops;
    binding;
    commutes;
    range;
    swapped = swaps print;
    sfx = suffix_of print;
  }

(* Split "add.l" into ("add", Long). *)
let parse_key key =
  match String.rindex_opt key '.' with
  | None -> None
  | Some i ->
    let op = String.sub key 0 i in
    let sfx = String.sub key (i + 1) (String.length key - i - 1) in
    (match Dtype.of_suffix sfx with
    | Some ty -> Some (op, ty, sfx)
    | None ->
      (* conversion keys carry two suffix letters, e.g. "cvt.bl" *)
      if op = "cvt" && String.length sfx = 2 then
        match
          ( Dtype.of_suffix (String.make 1 sfx.[0]),
            Dtype.of_suffix (String.make 1 sfx.[1]) )
        with
        | Some _, Some to_ -> Some ("cvt", to_, sfx)
        | _ -> None
      else None)

let pseudo_keys = [ "mod"; "udiv"; "umod"; "and"; "lsh"; "rsh"; "push_wide" ]

let is_pseudo key =
  match parse_key key with
  | Some (op, _, _) -> List.mem op pseudo_keys
  | None -> false

let cluster_of op ty sfx : cluster option =
  let is_int = Dtype.is_integer ty in
  match op with
  | "add" ->
    Some
      (entry ~binding:true ~commutes:true ("add" ^ sfx ^ "3") 3
      ::
      (if is_int then
         [ entry ~range:"$add" ("add" ^ sfx ^ "2") 2; entry ("inc" ^ sfx) 1 ]
       else [ entry ("add" ^ sfx ^ "2") 2 ]))
  | "sub" ->
    (* subl3 sub,min,dif computes min - sub: sources arrive as
       (minuend, subtrahend) and the emitter swaps them into VAX order *)
    Some
      (entry ~binding:true ("sub" ^ sfx ^ "3") 3
      ::
      (if is_int then
         [ entry ~range:"$sub" ("sub" ^ sfx ^ "2") 2; entry ("dec" ^ sfx) 1 ]
       else [ entry ("sub" ^ sfx ^ "2") 2 ]))
  | "mul" ->
    Some
      [
        entry ~binding:true ~commutes:true ("mul" ^ sfx ^ "3") 3;
        entry ("mul" ^ sfx ^ "2") 2;
      ]
  | "div" ->
    Some
      [
        entry ~binding:true ("div" ^ sfx ^ "3") 3; entry ("div" ^ sfx ^ "2") 2;
      ]
  | "or" when is_int ->
    Some
      [
        entry ~binding:true ~commutes:true ("bis" ^ sfx ^ "3") 3;
        entry ("bis" ^ sfx ^ "2") 2;
      ]
  | "xor" when is_int ->
    Some
      [
        entry ~binding:true ~commutes:true ("xor" ^ sfx ^ "3") 3;
        entry ("xor" ^ sfx ^ "2") 2;
      ]
  | "and" when is_int ->
    (* pseudo: expanded to bic with a complemented mask *)
    Some [ entry ("_and" ^ sfx) 3 ]
  | "mod" when is_int -> Some [ entry ("_mod" ^ sfx) 3 ]
  | "udiv" when is_int -> Some [ entry ("_udiv" ^ sfx) 3 ]
  | "umod" when is_int -> Some [ entry ("_umod" ^ sfx) 3 ]
  | "lsh" when ty = Dtype.Long -> Some [ entry "_lshl" 3 ]
  | "rsh" when ty = Dtype.Long -> Some [ entry "_rshl" 3 ]
  | "neg" -> Some [ entry ("mneg" ^ sfx) 2 ]
  | "com" when is_int -> Some [ entry ("mcom" ^ sfx) 2 ]
  | "mov" | "mov_r" ->
    Some
      (entry ~range:"$mov" ("mov" ^ sfx) 2 :: [ entry ("clr" ^ sfx) 1 ])
  | "cvt" -> Some [ entry ("cvt" ^ sfx) 2 ]
  | "mova" -> Some [ entry ("mova" ^ sfx) 2 ]
  | "push" when ty = Dtype.Long -> Some [ entry "pushl" 1 ]
  | "push" when ty = Dtype.Dbl -> Some [ entry "_pushd" 1 ]
  | "cmpbr" ->
    Some
      (entry ~range:"$cmp" ("cmp" ^ sfx) 2 :: [ entry ("tst" ^ sfx) 1 ])
  | "tstbr" | "tstbr_reg" -> Some [ entry ("tst" ^ sfx) 1 ]
  | "ccbr" -> Some []
  | _ -> None

let find key =
  match parse_key key with
  | None -> None
  | Some (op, ty, sfx) -> cluster_of op ty sfx

let find_exn key =
  match find key with
  | Some c -> c
  | None -> Fmt.invalid_arg "Insn_table.find_exn: unknown cluster %s" key

let known_keys () =
  let ints = [ "b"; "w"; "l" ] in
  let all = [ "b"; "w"; "l"; "f"; "d" ] in
  let keys = ref [] in
  let add op sfxs = List.iter (fun s -> keys := (op ^ "." ^ s) :: !keys) sfxs in
  add "add" all;
  add "sub" all;
  add "mul" all;
  add "div" all;
  add "or" ints;
  add "xor" ints;
  add "and" ints;
  add "mod" ints;
  add "udiv" [ "l" ];
  add "umod" [ "l" ];
  add "lsh" [ "l" ];
  add "rsh" [ "l" ];
  add "neg" all;
  add "com" ints;
  add "mov" all;
  add "mov_r" all;
  add "mova" all;
  add "push" [ "l"; "d" ];
  add "cmpbr" all;
  add "tstbr" ints;
  add "tstbr_reg" ints;
  add "ccbr" ints;
  (* conversions: all ordered pairs over b w l f d *)
  List.iter
    (fun f ->
      List.iter (fun t -> if f <> t then keys := ("cvt." ^ f ^ t) :: !keys) all)
    all;
  List.rev !keys
