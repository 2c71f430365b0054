open Import
module S = Gg_codegen.Semantics

(* The RISC semantic dispatchers.

   The callback skeleton (shift/reduce/choose), the mode builder (the
   RISC's addressing repertoire is a subset of the VAX's), the register
   manager, the output buffer and the provenance bookkeeping are all the
   shared {!Gg_codegen.Semantics} machinery; this module supplies only
   the Emit dispatcher that spells out load/store instruction sequences,
   with its resolution of the grammar's Emit keys, plus the operand
   mover the register manager uses for spills and reloads. *)

(* [typed "ld"] spells [ldb], [ldw], [ldl], ... once, not per use *)
let typed base =
  let spelled = List.map (fun ty -> (ty, base ^ Dtype.suffix ty)) Dtype.all in
  fun ty -> List.assq ty spelled

let li = typed "li"
let ld = typed "ld"
let mv = typed "mv"
let st = typed "st"

(* -- the operand mover --------------------------------------------------- *)

(* Moving a value is not one instruction on a load/store machine: the
   mnemonic depends on where the value comes from and goes to.  The
   register manager calls this for spill stores, reloads and
   materialisations; the store dispatcher reuses it. *)
let move ty ~(src : Mode.t) ~(dst : Mode.t) =
  match dst with
  | Mode.Reg _ ->
    let m =
      match src with
      | Mode.Imm _ | Mode.Fimm _ -> li ty
      | Mode.Mem _ -> ld ty
      | Mode.Reg _ -> mv ty
    in
    [ Insn.insn m [ src; dst ] ]
  | Mode.Mem _ -> (
    match src with
    | Mode.Reg _ -> [ Insn.insn (st ty) [ src; dst ] ]
    | _ ->
      Fmt.failwith "risc mover: store source %s is not a register"
        (Mode.assembly src))
  | Mode.Imm _ | Mode.Fimm _ ->
    Fmt.failwith "risc mover: immediate destination"

(* -- the Emit dispatcher -------------------------------------------------- *)

type kind =
  | Li
  | Ld
  | Ldinc
  | Lddec
  | St
  | St_r
  | Stinc
  | Stdec
  | Unary
  | Cvt
  | Cmpbr
  | Push
  | La
  | Other

(* [mn] is the one mnemonic the production prints, spelled once here:
   [addl] for ["add.l"], [cvtbl] for ["cvt.bl"], [cmpl] for
   ["cmpbr.l"], [stl] for ["push.l"] *)
type emit = { kind : kind; mn : string }

let resolve_emit ~key:_ ~base ~suffix =
  let spell b = b ^ Option.value suffix ~default:"" in
  match base with
  | "li" -> { kind = Li; mn = "" }
  | "ld" -> { kind = Ld; mn = "" }
  | "ldinc" -> { kind = Ldinc; mn = "" }
  | "lddec" -> { kind = Lddec; mn = "" }
  | "st" -> { kind = St; mn = "" }
  | "st_r" -> { kind = St_r; mn = "" }
  | "stinc" -> { kind = Stinc; mn = "" }
  | "stdec" -> { kind = Stdec; mn = "" }
  | "neg" | "not" -> { kind = Unary; mn = spell base }
  | "cvt" -> { kind = Cvt; mn = spell "cvt" }
  | "cmpbr" -> { kind = Cmpbr; mn = spell "cmp" }
  | "push" -> { kind = Push; mn = spell "st" }
  | "la" -> { kind = La; mn = "la" }
  | _ -> { kind = Other; mn = spell base }

let resolution = Grammar.derive (S.resolve ~emit:resolve_emit)
let actions g = Grammar.derived g resolution

let emit_insn t _g (r : emit S.resolved) (e : emit) (args : Desc.sval array) :
    Desc.sval =
  let regs = S.regmgr t in
  let emit i = S.emit t i in
  let release d = Regmgr.release regs d in
  let as_register d = Regmgr.as_register regs d in
  (* a source that may stay an immediate in the instruction *)
  let as_source d =
    match d.Desc.operand with
    | Mode.Imm _ | Mode.Fimm _ -> d
    | _ -> as_register d
  in
  let ty_of_suffix () = S.ty_of_suffix r in
  match (e.kind, args) with
  (* ---- loads into registers ---- *)
  | Li, [| Node (Tree.Fconst (fty, f)) |] ->
    let d = Regmgr.alloc regs fty in
    emit (Insn.insn (li fty) [ Mode.Fimm f; d.Desc.operand ]);
    Desc.D d
  | Ld, [| D src |] ->
    release src;
    let ty = ty_of_suffix () in
    let d = Regmgr.alloc regs ty in
    List.iter emit (move ty ~src:src.Desc.operand ~dst:d.Desc.operand);
    Desc.D d
  | Ldinc, [| Node (Tree.Autoinc (aty, r)) |] ->
    let d = Regmgr.alloc regs aty in
    emit (Insn.insn (ld aty) [ Mode.mem_deferred r; d.Desc.operand ]);
    emit
      (Insn.insn "addl"
         [ Mode.Reg r; Mode.Imm (Int64.of_int (Dtype.size aty)); Mode.Reg r ]);
    Desc.D d
  | Lddec, [| Node (Tree.Autodec (aty, r)) |] ->
    emit
      (Insn.insn "subl"
         [ Mode.Reg r; Mode.Imm (Int64.of_int (Dtype.size aty)); Mode.Reg r ]);
    let d = Regmgr.alloc regs aty in
    emit (Insn.insn (ld aty) [ Mode.mem_deferred r; d.Desc.operand ]);
    Desc.D d
  (* ---- stores ---- *)
  | St, [| Node _; D dst; D src |] | St_r, [| Node _; D src; D dst |] ->
    let ty = ty_of_suffix () in
    let src =
      match dst.Desc.operand with
      | Mode.Mem _ -> as_register src
      | _ -> src
    in
    List.iter emit (move ty ~src:src.Desc.operand ~dst:dst.Desc.operand);
    release src;
    release dst;
    Desc.Done
  | Stinc, [| Node _; Node (Tree.Autoinc (aty, r)); D src |]
  | Stinc, [| Node _; D src; Node (Tree.Autoinc (aty, r)) |] ->
    let src = as_register src in
    emit (Insn.insn (st aty) [ src.Desc.operand; Mode.mem_deferred r ]);
    emit
      (Insn.insn "addl"
         [ Mode.Reg r; Mode.Imm (Int64.of_int (Dtype.size aty)); Mode.Reg r ]);
    release src;
    Desc.Done
  | Stdec, [| Node _; Node (Tree.Autodec (aty, r)); D src |]
  | Stdec, [| Node _; D src; Node (Tree.Autodec (aty, r)) |] ->
    let src = as_register src in
    emit
      (Insn.insn "subl"
         [ Mode.Reg r; Mode.Imm (Int64.of_int (Dtype.size aty)); Mode.Reg r ]);
    emit (Insn.insn (st aty) [ src.Desc.operand; Mode.mem_deferred r ]);
    release src;
    Desc.Done
  (* ---- unary operators ---- *)
  | Unary, [| Node _; D src |] ->
    let src = as_register src in
    release src;
    let ty = ty_of_suffix () in
    let d = Regmgr.alloc regs ty in
    emit (Insn.insn e.mn [ src.Desc.operand; d.Desc.operand ]);
    Desc.D d
  (* ---- conversions ---- *)
  | Cvt, [| Node _; D src |] ->
    let src = as_register src in
    release src;
    let to_ty =
      match r.S.sfx with
      | Some ty -> ty
      | None -> Fmt.failwith "cvt key %s" (S.key r)
    in
    let d = Regmgr.alloc regs to_ty in
    emit (Insn.insn e.mn [ src.Desc.operand; d.Desc.operand ]);
    Desc.D d
  (* ---- compare and branch ---- *)
  | Cmpbr, [| Node cb; Node _; D a; D b; Node _ |] ->
    let rel, sg, bty, label = S.branch_of_node cb in
    let a = as_register a in
    Regmgr.pin regs a;
    let b = as_source b in
    Regmgr.unpin regs a;
    ignore (ty_of_suffix () : Dtype.t);
    emit (Insn.insn e.mn [ a.Desc.operand; b.Desc.operand ]);
    release a;
    release b;
    emit (Insn.Branch (Insn_table.bcc rel sg bty, label));
    Desc.Done
  (* ---- argument pushes ---- *)
  | Push, [| Node _; D v |] ->
    let ty = ty_of_suffix () in
    let v = as_register v in
    emit
      (Insn.insn "subl"
         [
           Mode.Reg Regconv.sp;
           Mode.Imm (Int64.of_int (Dtype.size ty));
           Mode.Reg Regconv.sp;
         ]);
    emit (Insn.insn e.mn [ v.Desc.operand; Mode.mem_deferred Regconv.sp ]);
    release v;
    Desc.Done
  (* ---- address-of ---- *)
  | La, [| Node _; Node leaf |] ->
    let operand =
      match leaf with
      | Tree.Name (_, s) -> Mode.mem_sym s
      | Tree.Temp (tty, i) -> Frame.temp_mode (S.frame t) i tty
      | _ -> Fmt.failwith "la of unexpected leaf"
    in
    let d = Regmgr.alloc regs Dtype.Long in
    emit (Insn.insn "la" [ operand; d.Desc.operand ]);
    Desc.D d
  | La, [| Node _; Node _; D ea |] ->
    release ea;
    let d = Regmgr.alloc regs Dtype.Long in
    emit (Insn.insn "la" [ ea.Desc.operand; d.Desc.operand ]);
    Desc.D d
  (* ---- three-address arithmetic ---- *)
  | _, [| Node opnode; D a; D b |] ->
    let op = S.binop_of_node opnode in
    let ty = ty_of_suffix () in
    (* reverse operators carry their operands in evaluation order *)
    let s1, s2 = if Op.is_reverse op then (b, a) else (a, b) in
    (* pin the first source while the second is materialised: its
       reload may otherwise spill the register we just ensured *)
    let s1 = as_register s1 in
    Regmgr.pin regs s1;
    let s2 = as_source s2 in
    Regmgr.unpin regs s1;
    release s1;
    release s2;
    let d = Regmgr.alloc regs ty in
    emit (Insn.insn e.mn [ s1.Desc.operand; s2.Desc.operand; d.Desc.operand ]);
    Desc.D d
  | _, _ ->
    Fmt.failwith "emit %s: unexpected production shape (%d args)" (S.key r)
      (Array.length args)

(* -- matcher callbacks ---------------------------------------------------- *)

let callbacks t g =
  S.make_callbacks t ~mode:S.build_mode ~emit:emit_insn g (actions g)
