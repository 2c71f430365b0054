open Import

type outcome = Gg_ir.Simout.t = {
  return_value : Interp.value;
  globals : (string * Interp.value) list;
  output : string list;
  insns_executed : int;
  cycles : int;
}

exception Sim_error of string

let error fmt = Fmt.kstr (fun s -> raise (Sim_error s)) fmt

let mem_size = 1 lsl 20
let globals_base = 0x100

(* -- loaded program ------------------------------------------------------- *)

type image = {
  code : Insn.t array;
  func_of_pc : string array;  (** enclosing function of each instruction *)
  entries : (string, int) Hashtbl.t;  (** global label -> code index *)
  labels : (string * Label.t, int) Hashtbl.t;  (** (function, L) -> index *)
  symbols : (string, int) Hashtbl.t;  (** global name -> address *)
}

let load (p : Asmparse.program) =
  let code = ref [] in
  let n = ref 0 in
  let func_of = ref [] in
  let entries = Hashtbl.create 16 in
  let labels = Hashtbl.create 64 in
  let symbols = Hashtbl.create 16 in
  let current = ref "?" in
  let next_addr = ref globals_base in
  List.iter
    (fun (item : Asmparse.item) ->
      match item with
      | Asmparse.Globl _ -> ()
      | Asmparse.Comm (name, size) ->
        let align =
          if size mod 8 = 0 then 8
          else if size mod 4 = 0 then 4
          else if size mod 2 = 0 then 2
          else 1
        in
        next_addr := (!next_addr + align - 1) / align * align;
        Hashtbl.replace symbols name !next_addr;
        next_addr := !next_addr + size
      | Asmparse.Deflabel name ->
        current := name;
        Hashtbl.replace entries name !n
      | Asmparse.Locallabel l -> Hashtbl.replace labels (!current, l) !n
      | Asmparse.Instruction i ->
        code := i :: !code;
        func_of := !current :: !func_of;
        incr n)
    p.Asmparse.items;
  {
    code = Array.of_list (List.rev !code);
    func_of_pc = Array.of_list (List.rev !func_of);
    entries;
    labels;
    symbols;
  }

(* -- machine state -------------------------------------------------------- *)

type cond = Always | Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu

type state = {
  isa : isa;
  image : image;
  mem : Bytes.t;
  regs : int64 array;  (** 32-bit values, sign-extended into int64 *)
  mutable flag_n : bool;
  mutable flag_z : bool;
  mutable flag_c : bool;
  out : Buffer.t;
  mutable pc : int;
  mutable depth : int;  (** call depth; ret at depth 0 stops execution *)
  mutable steps : int;
  mutable cycles : int;
  max_steps : int;
}

and isa = {
  syntax : Asmparse.syntax;
  cycles_of : Insn.t -> int;
  branches : (string * cond) list;
  builtins : (string * (state -> unit)) list;
  effective_addr : state -> Mode.mem -> int -> int;
  result_flags : state -> int64 -> unit;
  result_flags_float : state -> float -> unit;
  exec : state -> string -> Mode.t list -> unit;
}

let wrap32 n = Int64.of_int32 (Int64.to_int32 n)

let reg_get st r = st.regs.(r)
let reg_set st r v = st.regs.(r) <- wrap32 v

let set_flags st ~n ~z ~c =
  st.flag_n <- n;
  st.flag_z <- z;
  st.flag_c <- c

(* written so that no [addr] near [max_int] can overflow past the check *)
let check_addr st addr size =
  if addr < 0 || size > Bytes.length st.mem - addr then
    error "memory access out of range: %d" addr

let load_bytes st addr size =
  check_addr st addr size;
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (Int64.logor (Int64.shift_left acc 8)
           (Int64.of_int (Char.code (Bytes.get st.mem (addr + i)))))
  in
  go (size - 1) 0L

let store_bytes st addr size v =
  check_addr st addr size;
  for i = 0 to size - 1 do
    Bytes.set st.mem (addr + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let push_long st v =
  reg_set st Regconv.sp (Int64.sub (reg_get st Regconv.sp) 4L);
  store_bytes st (Int64.to_int (reg_get st Regconv.sp)) 4 v

let pop_long st =
  let v = load_bytes st (Int64.to_int (reg_get st Regconv.sp)) 4 in
  reg_set st Regconv.sp (Int64.add (reg_get st Regconv.sp) 4L);
  Tree.wrap Dtype.Long v

(* -- operand access ------------------------------------------------------- *)

let symbol_addr st s =
  match Hashtbl.find_opt st.image.symbols s with
  | Some a -> a
  | None -> error "undefined symbol %s" s

let displacement_addr st (m : Mode.mem) =
  let base =
    match m.Mode.base with
    | Some b -> Int64.to_int (reg_get st b)
    | None -> 0
  in
  let sym = match m.Mode.sym with Some s -> symbol_addr st s | None -> 0 in
  base + sym + Int64.to_int m.Mode.disp

let sign_extend width v =
  match width with
  | 1 -> Tree.wrap Dtype.Byte v
  | 2 -> Tree.wrap Dtype.Word v
  | 4 -> Tree.wrap Dtype.Long v
  | 8 -> v
  | _ -> assert false

let unsigned_of_width width n =
  match width with
  | 1 -> Int64.logand n 0xffL
  | 2 -> Int64.logand n 0xffffL
  | 4 -> Int64.logand n 0xffffffffL
  | _ -> n

(* a width-8 register operand is the pair rn/rn+1 *)
let check_pair st r =
  if r + 1 >= Array.length st.regs then
    error "no register pair at %s" (Regconv.name r)

(* widths are 1, 2, 4 or 8 bytes *)
let read_int st (operand : Mode.t) width =
  match operand with
  | Mode.Imm n -> sign_extend width n
  | Mode.Fimm _ -> error "float literal in integer context"
  | Mode.Reg r ->
    if width = 8 then begin
      (* register pair rn/rn+1: rn low half, rn+1 high half *)
      check_pair st r;
      Int64.logor
        (Int64.logand (reg_get st r) 0xffffffffL)
        (Int64.shift_left (reg_get st (r + 1)) 32)
    end
    else sign_extend width (reg_get st r)
  | Mode.Mem m ->
    sign_extend width (load_bytes st (st.isa.effective_addr st m width) width)

let write_int st (operand : Mode.t) width v =
  match operand with
  | Mode.Imm _ | Mode.Fimm _ -> error "store to an immediate"
  | Mode.Reg r ->
    if width = 8 then begin
      check_pair st r;
      reg_set st r (Int64.logand v 0xffffffffL);
      reg_set st (r + 1) (Int64.shift_right v 32)
    end
    else reg_set st r (sign_extend width v)
  | Mode.Mem m -> store_bytes st (st.isa.effective_addr st m width) width v

let float_of_bits width bits =
  if width = 4 then Int32.float_of_bits (Int64.to_int32 bits)
  else Int64.float_of_bits bits

let read_float st (operand : Mode.t) width =
  match operand with
  | Mode.Fimm f -> f
  | Mode.Imm n -> Int64.to_float n
  | Mode.Reg _ | Mode.Mem _ -> float_of_bits width (read_int st operand width)

let write_float st operand width f =
  let bits =
    if width = 4 then Int64.of_int32 (Int32.bits_of_float f)
    else Int64.bits_of_float f
  in
  write_int st operand width bits

(* -- operations shared by both instruction sets ----------------------------- *)

(* the datatype named by mnemonic character [i] *)
let type_at mnemonic i =
  if i >= String.length mnemonic then
    error "unimplemented instruction %s" mnemonic;
  match mnemonic.[i] with
  | 'b' -> Dtype.Byte
  | 'w' -> Dtype.Word
  | 'l' -> Dtype.Long
  | 'f' -> Dtype.Flt
  | 'd' -> Dtype.Dbl
  | c -> error "unknown type suffix %c" c

let result st v = st.isa.result_flags st v
let result_float st f = st.isa.result_flags_float st f

(* [(a, dst)] for an instruction that reads [a] and writes [dst].  When
   they are one operand ([a == dst]: the [dst] of [incl dst] or
   [addl2 src,dst]) it is a modify operand and names one location, as
   on a VAX: a memory operand's address is resolved once, so an
   auto-increment or -decrement steps its register once, by the operand
   width, and the write goes where the read came from. *)
let modify_pair st (a : Mode.t) dst width =
  match dst with
  | Mode.Mem m when a == dst ->
    let addr = st.isa.effective_addr st m width in
    let at =
      Mode.Mem
        { base = None; sym = None; disp = Int64.of_int addr; index = None;
          auto = None }
    in
    (at, at)
  | _ -> (a, dst)

(* dst := f src *)
let unary st ty f_int f_float src dst =
  let w = Dtype.size ty in
  let src, dst = modify_pair st src dst w in
  if Dtype.is_float ty then begin
    let v = f_float (read_float st src w) in
    write_float st dst w v;
    result_float st v
  end
  else begin
    let v = sign_extend w (f_int (read_int st src w)) in
    write_int st dst w v;
    result st v
  end

(* dst := a OP b; [b] is read first, which orders auto side effects,
   then a modify operand [a == dst] is resolved *)
let binary st ty f_int f_float a b dst =
  let w = Dtype.size ty in
  if Dtype.is_float ty then begin
    let y = read_float st b w in
    let a, dst = modify_pair st a dst w in
    let v = f_float (read_float st a w) y in
    write_float st dst w v;
    result_float st v
  end
  else begin
    let y = read_int st b w in
    let a, dst = modify_pair st a dst w in
    let v = sign_extend w (f_int (read_int st a w) y) in
    write_int st dst w v;
    result st v
  end

let convert st fty tty src dst =
  let fw = Dtype.size fty and tw = Dtype.size tty in
  if Dtype.is_float tty then begin
    let v =
      if Dtype.is_float fty then read_float st src fw
      else Int64.to_float (read_int st src fw)
    in
    write_float st dst tw v;
    result_float st v
  end
  else begin
    let v =
      if Dtype.is_float fty then Int64.of_float (read_float st src fw)
      else read_int st src fw
    in
    let v = sign_extend tw v in
    write_int st dst tw v;
    result st v
  end

(* [v] shifted left by [c], right for a negative [c] *)
let ash v c =
  let c = Int64.to_int c in
  if c >= 0 then Int64.shift_left v (min c 63)
  else Int64.shift_right v (min (-c) 63)

let unsigned_divide ~rem a b =
  let a = unsigned_of_width 4 a and b = unsigned_of_width 4 b in
  if Int64.equal b 0L then error "unsigned division by zero";
  if rem then Int64.unsigned_rem a b else Int64.unsigned_div a b

(* sets the flags from x - y; [y] is read first *)
let compare st ty x y =
  let w = Dtype.size ty in
  if Dtype.is_float ty then begin
    let b = read_float st y w in
    let a = read_float st x w in
    set_flags st ~n:(a < b) ~z:(a = b) ~c:false
  end
  else begin
    let b = read_int st y w in
    let a = read_int st x w in
    set_flags st ~n:(Int64.compare a b < 0) ~z:(Int64.equal a b)
      ~c:
        (Int64.unsigned_compare (unsigned_of_width w a) (unsigned_of_width w b)
        < 0)
  end

let taken st = function
  | Always -> true
  | Eq -> st.flag_z
  | Ne -> not st.flag_z
  | Lt -> st.flag_n
  | Le -> st.flag_n || st.flag_z
  | Gt -> not (st.flag_n || st.flag_z)
  | Ge -> not st.flag_n
  | Ltu -> st.flag_c
  | Leu -> st.flag_c || st.flag_z
  | Gtu -> not (st.flag_c || st.flag_z)
  | Geu -> not st.flag_c

(* -- calls ------------------------------------------------------------------- *)

let print st argc =
  let sp = Int64.to_int (reg_get st Regconv.sp) in
  let line =
    if argc = 2 then Fmt.str "%g" (Int64.float_of_bits (load_bytes st sp 8))
    else Fmt.str "%Ld" (Tree.wrap Dtype.Long (load_bytes st sp 4))
  in
  Buffer.add_string st.out (line ^ "\n")

let builtin st fname argc =
  if fname = "print" then (print st argc; true)
  else
    match List.assoc fname st.isa.builtins with
    | f -> f st; true
    | exception Not_found -> false

(* saved state layout pushed by a call (beyond the argument list):
   argc, return pc, saved fp, saved ap, saved r2..r11 *)
let do_call st fname argc ret_pc =
  if builtin st fname argc then begin
    reg_set st Regconv.sp
      (Int64.add (reg_get st Regconv.sp) (Int64.of_int (4 * argc)));
    st.pc <- ret_pc
  end
  else
    match Hashtbl.find_opt st.image.entries fname with
    | None -> error "call to undefined function %s" fname
    | Some target ->
      push_long st (Int64.of_int argc);
      push_long st (Int64.of_int ret_pc);
      push_long st (reg_get st Regconv.fp);
      push_long st (reg_get st Regconv.ap);
      for r = 2 to 11 do
        push_long st (reg_get st r)
      done;
      (* ap points at the argument count; 4(ap) is the first argument *)
      reg_set st Regconv.ap
        (Int64.add (reg_get st Regconv.sp) (Int64.of_int (4 * 13)));
      reg_set st Regconv.fp (reg_get st Regconv.sp);
      st.depth <- st.depth + 1;
      st.pc <- target

let do_ret st =
  reg_set st Regconv.sp (reg_get st Regconv.fp);
  for r = 11 downto 2 do
    reg_set st r (pop_long st)
  done;
  let ap = pop_long st in
  let fp = pop_long st in
  let ret_pc = pop_long st in
  let argc = pop_long st in
  reg_set st Regconv.ap ap;
  reg_set st Regconv.fp fp;
  reg_set st Regconv.sp (Int64.add (reg_get st Regconv.sp) (Int64.mul 4L argc));
  st.depth <- st.depth - 1;
  st.pc <- Int64.to_int ret_pc

(* -- execution --------------------------------------------------------------- *)

(* straight-line flow may not run out of the function it is in; [load]
   gives each function's instructions one shared name string, so a
   physical difference marks a function boundary *)
let fall_through st =
  let f = st.image.func_of_pc and next = st.pc + 1 in
  if next < Array.length f && f.(next) != f.(st.pc) then
    error "%s falls through into %s (missing ret?)" f.(st.pc) f.(next);
  st.pc <- next

let step st =
  if st.steps >= st.max_steps then
    error "step budget exceeded (infinite loop?)";
  if st.pc < 0 || st.pc >= Array.length st.image.code then
    error "pc %d is outside the code (missing ret?)" st.pc;
  st.steps <- st.steps + 1;
  let insn = st.image.code.(st.pc) in
  st.cycles <- st.cycles + st.isa.cycles_of insn;
  match insn with
  | Insn.Lab _ | Insn.Comment _ -> fall_through st
  | Insn.Insn (m, ops) ->
    st.isa.exec st m ops;
    fall_through st
  | Insn.Branch (cc, l) ->
    let cond =
      match List.assoc cc st.isa.branches with
      | c -> c
      | exception Not_found -> error "unknown branch %s" cc
    in
    if taken st cond then begin
      let f = st.image.func_of_pc.(st.pc) in
      match Hashtbl.find_opt st.image.labels (f, l) with
      | Some target -> st.pc <- target
      | None -> error "undefined label L%d in %s" l f
    end
    else fall_through st
  | Insn.Call (f, argc) -> do_call st f argc (st.pc + 1)
  | Insn.Ret -> do_ret st

let run isa ?(max_steps = 2_000_000) ?(global_types = []) ?(ret_type = Dtype.Long)
    (p : Asmparse.program) ~entry args =
  let image = load p in
  let st =
    {
      isa;
      image;
      mem = Bytes.make mem_size '\000';
      regs = Array.make 16 0L;
      flag_n = false;
      flag_z = false;
      flag_c = false;
      out = Buffer.create 256;
      pc = 0;
      depth = 0;
      steps = 0;
      cycles = 0;
      max_steps;
    }
  in
  reg_set st Regconv.sp (Int64.of_int mem_size);
  reg_set st Regconv.fp (Int64.of_int mem_size);
  (* push the entry arguments like a caller would *)
  let slots = ref 0 in
  List.iter
    (fun v ->
      match v with
      | Interp.VInt n ->
        push_long st n;
        incr slots
      | Interp.VFloat f ->
        let bits = Int64.bits_of_float f in
        push_long st (Int64.shift_right_logical bits 32);
        push_long st bits;
        slots := !slots + 2)
    (List.rev args);
  do_call st entry !slots (-1);
  if st.pc < 0 then error "entry %s is a builtin" entry;
  st.depth <- 1;
  while st.depth > 0 do
    step st
  done;
  let read_global (name, ty, total) =
    match Hashtbl.find_opt image.symbols name with
    | Some addr when total = Dtype.size ty ->
      let w = Dtype.size ty in
      let bits = load_bytes st addr w in
      Some
        ( name,
          if Dtype.is_float ty then Interp.VFloat (float_of_bits w bits)
          else Interp.VInt (sign_extend w bits) )
    | _ -> None
  in
  let return_value =
    let w = Dtype.size ret_type in
    if Dtype.is_float ret_type then
      Interp.VFloat (read_float st (Mode.Reg Regconv.r0) w)
    else Interp.VInt (read_int st (Mode.Reg Regconv.r0) w)
  in
  {
    return_value;
    globals = List.filter_map read_global global_types;
    output =
      Buffer.contents st.out |> String.split_on_char '\n'
      |> List.filter (fun s -> s <> "");
    insns_executed = st.steps;
    cycles = st.cycles;
  }

let run_text isa ?max_steps ?global_types ?ret_type text ~entry args =
  run isa ?max_steps ?global_types ?ret_type
    (Asmparse.parse isa.syntax text)
    ~entry args
