open Import
open Machine

(* The load/store discipline, enforced: every operand position states
   which kinds it accepts, and anything else is a simulator error.
   This is the executable form of the machine's operand constraints —
   a code-generator bug that leaks a memory operand into an ALU
   position fails loudly here instead of silently computing. *)

let require_reg what (operand : Mode.t) =
  match operand with
  | Mode.Reg _ -> ()
  | o -> error "%s must be a register, got %s" what (Mode.assembly o)

let require_mem what (operand : Mode.t) =
  match operand with
  | Mode.Mem m -> m
  | o -> error "%s must be a memory reference, got %s" what (Mode.assembly o)

let require_reg_or_imm what (operand : Mode.t) =
  match operand with
  | Mode.Reg _ | Mode.Imm _ -> ()
  | o ->
    error "%s must be a register or immediate, got %s" what (Mode.assembly o)

(* The VAX-only modes — autoincrement (rn)+, autodecrement -(rn) and
   indexing [rx] — are rejected at parse time: if the code generator
   ever emitted one the simulator would refuse to run it, which is the
   regression guard for the load/store discipline. *)
let check_operand str (operand : Mode.t) =
  match operand with
  | Mode.Mem { index = Some _; _ } ->
    failwith ("indexed mode is not a RISC operand: " ^ str)
  | Mode.Mem { auto = Some `Dec; _ } ->
    failwith ("autodecrement is not a RISC operand: " ^ str)
  | Mode.Mem { auto = Some `Inc; _ } ->
    failwith ("autoincrement is not a RISC operand: " ^ str)
  | _ -> ()

let is prefix m = String.starts_with ~prefix m

(* three-address dst := x OP y, register sources (y may be an immediate
   for the integer forms); the type is mnemonic character [i] *)
let arith3 st m i f_int f_float operands =
  match operands with
  | [ x; y; dst ] ->
    let ty = type_at m i in
    require_reg "alu destination" dst;
    if Dtype.is_float ty then begin
      require_reg "float alu source" x;
      require_reg "float alu source" y
    end
    else begin
      require_reg "alu source" x;
      require_reg_or_imm "alu source" y
    end;
    binary st ty f_int f_float x y dst
  | _ -> error "%s: bad operand count" m

let exec st m operands =
  let n = String.length m in
  match operands with
  | [ src; dst ] when m = "la" ->
    let a = require_mem "la source" src in
    require_reg "la destination" dst;
    write_int st dst 4 (Int64.of_int (displacement_addr st a))
  | _ when m = "slll" ->
    arith3 st m 3 ash (fun _ _ -> error "slll on float") operands
  | _ when m = "sral" ->
    (* a right shift is a left shift by the negated count *)
    arith3 st m 3
      (fun v c -> ash v (Int64.neg c))
      (fun _ _ -> error "sral on float")
      operands
  | _ when m = "divul" ->
    arith3 st m 4
      (fun a b -> unsigned_divide ~rem:false a b)
      (fun _ _ -> error "divul on float")
      operands
  | _ when m = "remul" ->
    arith3 st m 4
      (fun a b -> unsigned_divide ~rem:true a b)
      (fun _ _ -> error "remul on float")
      operands
  | [ src; dst ] when is "li" m && n = 3 -> (
    let ty = type_at m 2 in
    match (src, Dtype.is_float ty) with
    | (Mode.Fimm _, true | Mode.Imm _, _) ->
      require_reg "li destination" dst;
      unary st ty Fun.id Fun.id src dst
    | o, _ -> error "li source must be a literal, got %s" (Mode.assembly o))
  | [ src; dst ] when is "ld" m && n = 3 ->
    ignore (require_mem "ld source" src);
    require_reg "ld destination" dst;
    unary st (type_at m 2) Fun.id Fun.id src dst
  | [ src; dst ] when is "st" m && n = 3 ->
    require_reg "st source" src;
    ignore (require_mem "st destination" dst);
    unary st (type_at m 2) Fun.id Fun.id src dst
  | [ src; dst ] when is "mv" m && n = 3 ->
    require_reg "mv source" src;
    require_reg "mv destination" dst;
    unary st (type_at m 2) Fun.id Fun.id src dst
  | [ src; dst ] when is "neg" m && n = 4 ->
    require_reg "neg source" src;
    require_reg "neg destination" dst;
    unary st (type_at m 3) Int64.neg Float.neg src dst
  | [ src; dst ] when is "not" m && n = 4 ->
    require_reg "not source" src;
    require_reg "not destination" dst;
    unary st (type_at m 3) Int64.lognot (fun _ -> error "not on float") src dst
  | [ src; dst ] when is "cvt" m && n = 5 ->
    require_reg "cvt source" src;
    require_reg "cvt destination" dst;
    convert st (type_at m 3) (type_at m 4) src dst
  | [ x; y ] when is "cmp" m && n = 4 ->
    let ty = type_at m 3 in
    require_reg "cmp source" x;
    if Dtype.is_float ty then require_reg "cmp source" y
    else require_reg_or_imm "cmp source" y;
    compare st ty x y
  | _ when is "add" m && n = 4 -> arith3 st m 3 Int64.add ( +. ) operands
  | _ when is "sub" m && n = 4 -> arith3 st m 3 Int64.sub ( -. ) operands
  | _ when is "mul" m && n = 4 -> arith3 st m 3 Int64.mul ( *. ) operands
  | _ when is "div" m && n = 4 ->
    arith3 st m 3
      (fun a b ->
        if Int64.equal b 0L then error "division by zero";
        Int64.div a b)
      ( /. ) operands
  | _ when is "rem" m && n = 4 ->
    arith3 st m 3
      (fun a b ->
        if Int64.equal b 0L then error "remainder by zero";
        Int64.rem a b)
      (fun _ _ -> error "rem on float")
      operands
  | _ when is "and" m && n = 4 ->
    arith3 st m 3 Int64.logand (fun _ _ -> error "and on float") operands
  | _ when is "or" m && n = 3 ->
    arith3 st m 2 Int64.logor (fun _ _ -> error "or on float") operands
  | _ when is "xor" m && n = 4 ->
    arith3 st m 3 Int64.logxor (fun _ _ -> error "xor on float") operands
  | _ -> error "unimplemented instruction or bad operands: %s" m

(* flags are set only by cmp *)
let isa =
  {
    syntax = { call = "call"; branch = 'b'; check_operand };
    cycles_of = Gg_risc.Insn_table.cycles;
    branches =
      [ ("b", Always); ("beq", Eq); ("bne", Ne); ("blt", Lt); ("ble", Le);
        ("bgt", Gt); ("bge", Ge); ("bltu", Ltu); ("bleu", Leu);
        ("bgtu", Gtu); ("bgeu", Geu) ];
    builtins = [];
    effective_addr = (fun st m _ -> displacement_addr st m);
    result_flags = (fun _ _ -> ());
    result_flags_float = (fun _ _ -> ());
    exec;
  }
