open Import
open Machine

(* every VAX operation sets N and Z from its result and clears C *)
let result_flags st v =
  set_flags st ~n:(Int64.compare v 0L < 0) ~z:(Int64.equal v 0L) ~c:false

let result_flags_float st f = set_flags st ~n:(f < 0.0) ~z:(f = 0.0) ~c:false

(* effective address of a memory operand; performs auto side effects and
   scales an index by the operand width *)
let effective_addr st (m : Mode.mem) width =
  match (m.Mode.auto, m.Mode.base) with
  | Some `Inc, Some base ->
    let addr = Int64.to_int (reg_get st base) in
    reg_set st base (Int64.add (reg_get st base) (Int64.of_int width));
    addr
  | Some `Dec, Some base ->
    reg_set st base (Int64.sub (reg_get st base) (Int64.of_int width));
    Int64.to_int (reg_get st base)
  | Some _, None -> error "auto without base"
  | None, _ ->
    let index =
      match m.Mode.index with
      | Some rx -> Int64.to_int (reg_get st rx) * width
      | None -> 0
    in
    displacement_addr st m + index

(* __udivl/__umodl: the unsigned division support routines the idiom
   recogniser calls; they modify no register but r0 (paper section
   5.3.2) *)
let udiv ~rem st =
  let sp = Int64.to_int (reg_get st Regconv.sp) in
  let b = load_bytes st (sp + 4) 4 in
  reg_set st Regconv.r0 (unsigned_divide ~rem (load_bytes st sp 4) b)

let is prefix m = String.starts_with ~prefix m

(* 2-operand: dst := dst OP src; 3-operand: dst := a OP b.  VAX operand
   order: add2 src,dst / add3 a,b,dst, where for sub/div the instruction
   computes (second OP first). *)
let arith st m operands f_int f_float =
  match operands with
  | [ src; dst ] -> binary st (type_at m 3) f_int f_float dst src dst
  | [ x; y; dst ] -> binary st (type_at m 3) f_int f_float y x dst
  | _ -> error "%s: bad operand count" m

let exec st m operands =
  let n = String.length m in
  match operands with
  | [ src; dst ] when is "mov" m && n = 4 ->
    unary st (type_at m 3) Fun.id Fun.id src dst
  | [ Mode.Mem a; dst ] when is "mova" m ->
    (* address of the operand, scaled for its datatype *)
    let addr = Int64.of_int (effective_addr st a (Dtype.size (type_at m 4))) in
    write_int st dst 4 addr;
    result_flags st (sign_extend 4 addr)
  | [ dst ] when is "clr" m ->
    write_int st dst (Dtype.size (type_at m 3)) 0L;
    result_flags st 0L
  | [ src ] when is "push" m ->
    let v = read_int st src 4 in
    push_long st v;
    result_flags st v
  | [ src; dst ] when is "mneg" m ->
    unary st (type_at m 4) Int64.neg Float.neg src dst
  | [ src; dst ] when is "mcom" m ->
    unary st (type_at m 4) Int64.lognot (fun _ -> error "mcom on float") src dst
  | [ dst ] when is "inc" m ->
    unary st (type_at m 3) Int64.succ (fun _ -> error "inc on float") dst dst
  | [ dst ] when is "dec" m ->
    unary st (type_at m 3) Int64.pred (fun _ -> error "dec on float") dst dst
  | _ when is "add" m -> arith st m operands Int64.add ( +. )
  | _ when is "sub" m -> arith st m operands Int64.sub ( -. )
  | _ when is "mul" m -> arith st m operands Int64.mul ( *. )
  | _ when is "div" m ->
    arith st m operands
      (fun a b ->
        if Int64.equal b 0L then error "division by zero";
        Int64.div a b)
      ( /. )
  | _ when is "bis" m ->
    arith st m operands Int64.logor (fun _ _ -> error "bis on float")
  | _ when is "xor" m ->
    arith st m operands Int64.logxor (fun _ _ -> error "xor on float")
  | _ when is "bic" m ->
    (* dst = second AND NOT first; arith applies (second OP first) *)
    arith st m operands
      (fun b a -> Int64.logand b (Int64.lognot a))
      (fun _ _ -> error "bic on float")
  | [ cnt; src; dst ] when m = "ashl" ->
    binary st Dtype.Long ash (fun _ _ -> error "ashl on float") src cnt dst
  | [ src; dst ] when is "cvt" m && n = 5 ->
    convert st (type_at m 3) (type_at m 4) src dst
  | [ src ] when is "tst" m -> compare st (type_at m 3) src (Mode.Imm 0L)
  | [ x; y ] when is "cmp" m -> compare st (type_at m 3) x y
  | _ -> error "unimplemented instruction or bad operands: %s" m

let isa =
  {
    syntax = { call = "calls"; branch = 'j'; check_operand = (fun _ _ -> ()) };
    cycles_of = Insn.cycles;
    branches =
      [ ("jbr", Always); ("jeql", Eq); ("jneq", Ne); ("jlss", Lt);
        ("jleq", Le); ("jgtr", Gt); ("jgeq", Ge); ("jlssu", Ltu);
        ("jlequ", Leu); ("jgtru", Gtu); ("jgequ", Geu) ];
    builtins = [ ("__udivl", udiv ~rem:false); ("__umodl", udiv ~rem:true) ];
    effective_addr;
    result_flags;
    result_flags_float;
    exec;
  }
