open Import

type t = {
  regs : Regmgr.t;
  frame : Frame.t;
  mutable out_rev : Insn.t list;
  idioms : bool;
  explain : bool;
  mutable line : int;
  mutable prov_last : int;
  mutable prov_pending : int list;
  mutable prov_override : ((int * int list) * string) option;
  mutable prov_rev : (int * int list * string) list;
}

let current_prov t =
  if not t.explain then (0, [])
  else
    let pids =
      match t.prov_pending with
      | [] -> if t.prov_last >= 0 then [ t.prov_last ] else []
      | ps -> List.rev ps
    in
    (t.line, pids)

(* Spill stores and reloads describe a value allocated earlier, not the
   production being reduced right now; the register manager replays the
   value's own provenance (plus a marker) around their emission. *)
let with_mark t ~mark ~prov f =
  if not t.explain then f ()
  else begin
    t.prov_override <- Some (prov, mark);
    Fun.protect ~finally:(fun () -> t.prov_override <- None) f
  end

let emit t i =
  t.out_rev <- i :: t.out_rev;
  if t.explain then begin
    (* instructions emitted between reductions (register-manager
       spills, cluster tails) inherit the production that triggered
       the most recent reduction *)
    let entry =
      match t.prov_override with
      | Some ((line, pids), mark) -> (line, pids, mark)
      | None ->
        let line, pids = current_prov t in
        (line, pids, "")
    in
    t.prov_rev <- entry :: t.prov_rev
  end

let create ?(idioms = true) ?explain ?reserved ?allocatable ?move ?vreg_base
    frame =
  let explain =
    match explain with Some e -> e | None -> !Profile.provenance_enabled
  in
  let rec t =
    lazy
      {
        regs =
          Regmgr.create ?reserved ?allocatable ?move ?vreg_base
            ~prov_of:(fun () -> current_prov (Lazy.force t))
            ~marked:(fun ~mark ~prov f -> with_mark (Lazy.force t) ~mark ~prov f)
            ~emit:(fun i -> emit (Lazy.force t) i)
            frame;
        frame;
        out_rev = [];
        idioms;
        explain;
        line = 0;
        prov_last = -1;
        prov_pending = [];
        prov_override = None;
        prov_rev = [];
      }
  in
  Lazy.force t

let output t = List.rev t.out_rev
let regmgr t = t.regs
let frame t = t.frame
let idioms_enabled t = t.idioms
let set_line t n = t.line <- n

let end_tree t =
  t.prov_pending <- [];
  t.prov_last <- -1

let provenance t = List.rev t.prov_rev

let sfx ty = Dtype.suffix ty

(* -- semantic actions resolved once per production ----------------------- *)

(* A production's action names its routine by a string: the mode name,
   or the Emit key with its base and type suffix; its lhs carries a type
   suffix too, and on the VAX the key names an instruction-table
   cluster.  All of these are taken apart here, once per production of a
   grammar, so a reduction matches on variants and does no string work. *)

type mode =
  | Imm
  | Fimm
  | Name
  | Temp
  | Dreg
  | Autoinc
  | Autodec
  | Indir
  | Deferred
  | Absolute
  | Disp
  | Symdisp
  | Index
  | Dispindex
  | Symindex
  | Unknown_mode

type 'e action = Pass | Mode of mode | Emit of 'e

type 'e resolved = {
  prod : Grammar.production;
  action : 'e action;
  base : string;
  sfx : Dtype.t option;
  lhs : Dtype.t option;
}

let mode_of_name = function
  | "imm" -> Imm
  | "fimm" -> Fimm
  | "name" -> Name
  | "temp" -> Temp
  | "dreg" -> Dreg
  | "autoinc" -> Autoinc
  | "autodec" -> Autodec
  | "indir" -> Indir
  | "deferred" -> Deferred
  | "absolute" -> Absolute
  | "disp" -> Disp
  | "symdisp" -> Symdisp
  | "index" -> Index
  | "dispindex" -> Dispindex
  | "symindex" -> Symindex
  | _ -> Unknown_mode

(* "st.l" -> ("st", Some "l"); "bridge_ixmul" -> ("bridge_ixmul", None) *)
let split_key key =
  match String.rindex_opt key '.' with
  | None -> (key, None)
  | Some i ->
    ( String.sub key 0 i,
      Some (String.sub key (i + 1) (String.length key - i - 1)) )

(* the type a key suffix names; a conversion's two letters name its
   source and result, and the result is the type of the reduction *)
let key_type base suffix =
  match (base, suffix) with
  | "cvt", Some s when String.length s = 2 ->
    Dtype.of_suffix (String.make 1 s.[1])
  | "cvt", _ -> None
  | _, Some s -> Dtype.of_suffix s
  | _, None -> None

let resolve ~emit (g : Grammar.t) =
  let symtab = g.Grammar.symtab in
  Array.map
    (fun (p : Grammar.production) ->
      let lhs = snd (split_key (Symtab.nonterm_name symtab p.lhs)) in
      let lhs = Option.bind lhs Dtype.of_suffix in
      match p.action with
      | Action.Chain | Action.Start ->
        { prod = p; action = Pass; base = ""; sfx = None; lhs }
      | Action.Mode name ->
        { prod = p; action = Mode (mode_of_name name); base = name; sfx = None; lhs }
      | Action.Emit key ->
        let base, suffix = split_key key in
        let sfx = key_type base suffix in
        { prod = p; action = Emit (emit ~key ~base ~suffix); base; sfx; lhs })
    g.Grammar.prods

let key (r : _ resolved) =
  match r.prod.Grammar.action with
  | Action.Emit k | Action.Mode k -> k
  | Action.Chain | Action.Start -> ""

let ty_of_suffix r =
  match r.sfx with
  | Some ty -> ty
  | None ->
    if String.contains (key r) '.' then
      Fmt.failwith "emit key %s: bad type suffix" (key r)
    else Fmt.failwith "emit key %s: missing type suffix" (key r)

(* -- small helpers ------------------------------------------------------- *)

let has_auto (m : Mode.t) =
  match m with Mode.Mem { auto = Some _; _ } -> true | _ -> false

(* Descriptors whose operands carry autoincrement side effects must not
   be referenced twice (paper section 6.1); materialise them before a
   multi-use expansion. *)
let stable t (d : Desc.t) =
  if has_auto d.Desc.operand then Regmgr.as_register t.regs d else d

let immediate_value (d : Desc.t) = Mode.immediate d.Desc.operand

(* -- idiom-driven cluster emission (paper Fig. 3, section 5.3.2) -------- *)

(* Walk the cluster rows applying binding and range idioms, then emit.
   [sources] has one entry fewer than the first row's operand count
   (the destination is separate). *)
let apply_cluster t (cluster : Insn_table.cluster) ~(dst : Mode.t)
    (sources : Mode.t list) =
  let rec go rows sources =
    match (rows, sources) with
    | [], _ -> ()
    | [ row ], _ -> emit_row row sources
    | row :: rest, [ s1; s2 ] when row.Insn_table.nops = 3 ->
      if
        t.idioms && row.Insn_table.binding && Mode.equal s1 dst
        && not (has_auto s1)
      then go rest [ s2 ]
      else if
        t.idioms && row.Insn_table.binding && row.Insn_table.commutes
        && Mode.equal s2 dst
        && not (has_auto s2)
      then go rest [ s1 ]
      else emit_row row sources
    | row :: _, [ s ] -> (
      match row.Insn_table.range with
      | Some key when t.idioms -> (
        (* the range idiom function picks the final instruction *)
        match Insn_table.range_apply key row.Insn_table.sfx s with
        | Some replacement -> emit t (Insn.insn replacement [ dst ])
        | None -> emit_row row sources)
      | Some _ | None -> emit_row row sources)
    | row :: _, _ -> emit_row row sources
  and emit_row (row : Insn_table.entry) sources =
    let operands =
      match (row.Insn_table.nops, sources) with
      | 3, [ s1; s2 ] ->
        if row.Insn_table.swapped then [ s2; s1; dst ] else [ s1; s2; dst ]
      | 2, [ s ] -> [ s; dst ]
      | 1, [] -> [ dst ]
      | _, _ ->
        Fmt.failwith "instruction table: row %s expects %d operands"
          row.Insn_table.print row.Insn_table.nops
    in
    emit t (Insn.insn row.Insn_table.print operands)
  in
  go cluster sources

(* -- pseudo-instruction expansion (paper section 5.3.2) ------------------ *)

type pseudo = P_and | P_mod | P_udiv | P_umod | P_lsh | P_rsh | P_unknown of string

let pseudo_of_mnemonic m =
  let starts p = String.length m >= 4 && String.sub m 0 4 = p in
  if starts "_and" then P_and
  else if starts "_mod" then P_mod
  else
    match m with
    | "_udivl" -> P_udiv
    | "_umodl" -> P_umod
    | "_lshl" -> P_lsh
    | "_rshl" -> P_rsh
    | _ -> P_unknown m

(* [expand_pseudo] emits the multi-instruction sequences for operators
   the VAX lacks.  It owns the release discipline for its sources. *)
let expand_pseudo t pseudo ty ~alloc_dst (s1 : Desc.t) (s2 : Desc.t) :
    Mode.t =
  let s = sfx ty in
  match pseudo with
  | P_and -> (
    (* x & y: bic with a complemented mask *)
    match (immediate_value s1, immediate_value s2) with
    | _, Some k ->
      Regmgr.release t.regs s1;
      Regmgr.release t.regs s2;
      let dst = alloc_dst () in
      emit t
        (Insn.insn ("bic" ^ s ^ "3")
           [ Mode.Imm (Tree.wrap ty (Int64.lognot k)); s1.Desc.operand; dst ]);
      dst
    | Some k, _ ->
      Regmgr.release t.regs s1;
      Regmgr.release t.regs s2;
      let dst = alloc_dst () in
      emit t
        (Insn.insn ("bic" ^ s ^ "3")
           [ Mode.Imm (Tree.wrap ty (Int64.lognot k)); s2.Desc.operand; dst ]);
      dst
    | None, None ->
      let s1 = stable t s1 in
      let rt = Regmgr.alloc t.regs ty in
      emit t (Insn.insn ("mcom" ^ s) [ s2.Desc.operand; rt.Desc.operand ]);
      Regmgr.release t.regs s2;
      Regmgr.release t.regs s1;
      Regmgr.release t.regs rt;
      let dst = alloc_dst () in
      emit t
        (Insn.insn ("bic" ^ s ^ "3")
           [ rt.Desc.operand; s1.Desc.operand; dst ]);
      dst)
  | P_mod ->
    (* signed modulus "requires a register to hold an intermediate
       result": q = s1 / s2; q *= s2; dst = s1 - q *)
    let s1 = stable t s1 in
    let s2 = stable t s2 in
    let rt = Regmgr.alloc t.regs ty in
    emit t
      (Insn.insn ("div" ^ s ^ "3")
         [ s2.Desc.operand; s1.Desc.operand; rt.Desc.operand ]);
    emit t (Insn.insn ("mul" ^ s ^ "2") [ s2.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs s2;
    Regmgr.release t.regs s1;
    Regmgr.release t.regs rt;
    let dst = alloc_dst () in
    emit t
      (Insn.insn ("sub" ^ s ^ "3") [ rt.Desc.operand; s1.Desc.operand; dst ]);
    dst
  | (P_udiv | P_umod) as p ->
    (* unsigned division "requires a call to a library function that is
       known not to modify any registers" *)
    let fn = if p = P_udiv then "__udivl" else "__umodl" in
    emit t (Insn.insn "pushl" [ s2.Desc.operand ]);
    emit t (Insn.insn "pushl" [ s1.Desc.operand ]);
    emit t (Insn.Call (fn, 2));
    Regmgr.release t.regs s1;
    Regmgr.release t.regs s2;
    let dst = alloc_dst () in
    emit t (Insn.insn "movl" [ Mode.Reg Regconv.r0; dst ]);
    dst
  | P_lsh ->
    Regmgr.release t.regs s1;
    Regmgr.release t.regs s2;
    let dst = alloc_dst () in
    emit t (Insn.insn "ashl" [ s2.Desc.operand; s1.Desc.operand; dst ]);
    dst
  | P_rsh -> (
    match immediate_value s2 with
    | Some k ->
      Regmgr.release t.regs s1;
      Regmgr.release t.regs s2;
      let dst = alloc_dst () in
      emit t
        (Insn.insn "ashl" [ Mode.Imm (Int64.neg k); s1.Desc.operand; dst ]);
      dst
    | None ->
      let s1 = stable t s1 in
      let rt = Regmgr.alloc t.regs Dtype.Long in
      emit t (Insn.insn "mnegl" [ s2.Desc.operand; rt.Desc.operand ]);
      Regmgr.release t.regs s2;
      Regmgr.release t.regs s1;
      Regmgr.release t.regs rt;
      let dst = alloc_dst () in
      emit t (Insn.insn "ashl" [ rt.Desc.operand; s1.Desc.operand; dst ]);
      dst)
  | P_unknown m -> Fmt.failwith "unknown pseudo-instruction %s" m

(* -- mode builders (paper phase 2 encapsulation) ------------------------- *)

let compose_mem t ~owned ty operand =
  Regmgr.compose t.regs (Desc.make ~owned ty operand)

let build_mode t g (r : _ resolved) mode (args : Desc.sval array) :
    Desc.sval =
  let ty () =
    match r.lhs with
    | Some ty -> ty
    | None -> Fmt.failwith "mode %s on untyped non-terminal" r.base
  in
  let as_reg i =
    let d = Regmgr.as_register t.regs (Desc.desc args.(i)) in
    match d.Desc.operand with
    | Mode.Reg r -> (r, d)
    | _ -> assert false
  in
  match (mode, args) with
  | Imm, [| Node (Tree.Const (cty, n)) |] ->
    Desc.D (Desc.make cty (Mode.Imm n))
  | Fimm, [| Node (Tree.Fconst (fty, f)) |] ->
    Desc.D (Desc.make fty (Mode.Fimm f))
  | Name, [| Node (Tree.Name (nty, s)) |] ->
    Desc.D (Desc.make nty (Mode.mem_sym s))
  | Temp, [| Node (Tree.Temp (tty, i)) |] ->
    Desc.D (Desc.make tty (Frame.temp_mode t.frame i tty))
  | Dreg, [| Node (Tree.Dreg (rty, r)) |] ->
    Desc.D (Desc.make rty (Mode.Reg r))
  | Autoinc, [| Node (Tree.Autoinc (aty, r)) |] ->
    Desc.D (Desc.make aty (Mode.autoinc r))
  | Autodec, [| Node (Tree.Autodec (aty, r)) |] ->
    Desc.D (Desc.make aty (Mode.autodec r))
  | Indir, [| Node (Tree.Indir (ity, _)); D ea |] ->
    Desc.D (compose_mem t ~owned:ea.Desc.owned ity ea.Desc.operand)
  | Deferred, [| D _ |] ->
    let r, d = as_reg 0 in
    Desc.D (compose_mem t ~owned:d.Desc.owned (ty ()) (Mode.mem_deferred r))
  | Absolute, [| Node (Tree.Const (_, n)) |] ->
    Desc.D
      (Desc.make (ty ())
         (Mode.Mem
            { base = None; sym = None; disp = n; index = None; auto = None }))
  | Disp, [| Node _; Node (Tree.Const (_, d)); D _ |] ->
    let r, rd = as_reg 2 in
    Desc.D
      (compose_mem t ~owned:rd.Desc.owned (ty ()) (Mode.mem_disp d r))
  | Symdisp, [| Node _; Node _; Node (Tree.Name (_, s)); D _ |] ->
    let r, rd = as_reg 3 in
    Desc.D
      (compose_mem t ~owned:rd.Desc.owned (ty ()) (Mode.mem_disp ~sym:s 0L r))
  | Index, [| Node _; D _; Node _; Node _; D _ |] ->
    let rb, db = as_reg 1 in
    let rx, dx = as_reg 4 in
    Desc.D
      (compose_mem t
         ~owned:(db.Desc.owned @ dx.Desc.owned)
         (ty ())
         (Mode.with_index (Mode.mem_deferred rb) rx))
  | Index, [| Node _; D _; D _ |] ->
    let rb, db = as_reg 1 in
    let rx, dx = as_reg 2 in
    Desc.D
      (compose_mem t
         ~owned:(db.Desc.owned @ dx.Desc.owned)
         (ty ())
         (Mode.with_index (Mode.mem_deferred rb) rx))
  | Dispindex, [| Node _; Node (Tree.Const (_, d)); Node _; D _; Node _; Node _; D _ |]
    ->
    let rb, db = as_reg 3 in
    let rx, dx = as_reg 6 in
    Desc.D
      (compose_mem t
         ~owned:(db.Desc.owned @ dx.Desc.owned)
         (ty ())
         (Mode.with_index (Mode.mem_disp d rb) rx))
  | Dispindex, [| Node _; Node (Tree.Const (_, d)); Node _; D _; D _ |] ->
    let rb, db = as_reg 3 in
    let rx, dx = as_reg 4 in
    Desc.D
      (compose_mem t
         ~owned:(db.Desc.owned @ dx.Desc.owned)
         (ty ())
         (Mode.with_index (Mode.mem_disp d rb) rx))
  | Symindex, [| Node _; Node _; Node (Tree.Name (_, s)); Node _; Node _; D _ |]
    ->
    let rx, dx = as_reg 5 in
    Desc.D
      (compose_mem t ~owned:dx.Desc.owned (ty ())
         (Mode.with_index (Mode.mem_sym s) rx))
  | _, _ ->
    Fmt.failwith "mode builder %s: unexpected production %s <- ... (%d args)"
      r.base
      (Symtab.nonterm_name g.Grammar.symtab r.prod.Grammar.lhs)
      (Array.length args)

(* -- branches ------------------------------------------------------------ *)

let branch_of_node (node : Tree.t) =
  match node with
  | Tree.Cbranch (rel, sg, ty, _, _, label) -> (rel, sg, ty, label)
  | _ -> invalid_arg "branch pattern without a Cbranch node"

let jcc rel sg ty =
  if Dtype.is_float ty then "j" ^ Op.relop_vax rel
  else
    match sg with
    | Dtype.Signed -> "j" ^ Op.relop_vax rel
    | Dtype.Unsigned -> "j" ^ Op.relop_vax_unsigned rel

(* -- the Emit dispatcher -------------------------------------------------- *)

(* how a binary-operator production computes its result: by a cluster of
   the instruction table, or by a pseudo-instruction expansion (a
   cluster whose one row starts with '_') *)
type binop_impl = Cluster of Insn_table.cluster | Pseudo of pseudo

type emit_kind =
  | Bridge_ixmul
  | Bridge_dxmul
  | Bridge_symmul
  | Cmpbr
  | Tstbr
  | Tstbr_reg
  | Ccbr
  | Push
  | Mova
  | Mov
  | Mov_r
  | Cvt
  | Unary
  | Class of (Op.binop * binop_impl) list
  | Other

type vax_emit = {
  kind : emit_kind;
  cluster : Insn_table.cluster option;
  impl : binop_impl option;
}

let impl_of_cluster (cluster : Insn_table.cluster) =
  match cluster with
  | row :: _
    when String.length row.Insn_table.print > 0
         && row.Insn_table.print.[0] = '_' ->
    Pseudo (pseudo_of_mnemonic row.Insn_table.print)
  | _ -> Cluster cluster

let cluster_for_op op suffix = Grammar_def.cluster_of_binop op ^ "." ^ suffix

let class_ops =
  Op.[ Plus; Minus; Mul; Div; Mod; And; Or; Xor; Lsh; Rsh; Udiv; Umod ]

let vax_emit ~key ~base ~suffix =
  let cluster = Insn_table.find key in
  let kind =
    match base with
    | "bridge_ixmul" -> Bridge_ixmul
    | "bridge_dxmul" -> Bridge_dxmul
    | "bridge_symmul" -> Bridge_symmul
    | "cmpbr" -> Cmpbr
    | "tstbr" -> Tstbr
    | "tstbr_reg" -> Tstbr_reg
    | "ccbr" -> Ccbr
    | "push" -> Push
    | "mova" -> Mova
    | "mov" -> Mov
    | "mov_r" -> Mov_r
    | "cvt" -> Cvt
    | "neg" | "com" -> Unary
    | "class" ->
      (* the over-factored operator class: one cluster per operator the
         class non-terminal may stand for *)
      let suffix = Option.value suffix ~default:"" in
      Class
        (List.filter_map
           (fun op ->
             Option.map
               (fun c -> (op, impl_of_cluster c))
               (Insn_table.find (cluster_for_op op suffix)))
           class_ops)
    | _ -> Other
  in
  { kind; cluster; impl = Option.map impl_of_cluster cluster }

let vax_actions = Grammar.derive (resolve ~emit:vax_emit)
let actions g = Grammar.derived g vax_actions

(* The instruction-table lookups below run once per production, in
   [vax_emit]; a reduction whose key has no cluster fails here with
   the table's own message. *)
let cluster_exn r e =
  match e.cluster with Some c -> c | None -> Insn_table.find_exn (key r)

(* the first row's mnemonic, e.g. [tstl] for [tstbr.l]; a bad type
   suffix is reported as such before the missing cluster *)
let mnemonic r e =
  if Option.is_none e.cluster then ignore (ty_of_suffix r : Dtype.t);
  match cluster_exn r e with
  | row :: _ -> row.Insn_table.print
  | [] -> assert false

let binop_impl r e op ty =
  match e.kind with
  | Class impls -> (
    match List.assq_opt (Op.unreverse op) impls with
    | Some impl -> impl
    | None -> impl_of_cluster (Insn_table.find_exn (cluster_for_op op (sfx ty))))
  | _ -> (
    match e.impl with
    | Some impl -> impl
    | None -> impl_of_cluster (Insn_table.find_exn (key r)))

(* Emit a binary operation.  [dst] is [`Alloc] for register-destination
   productions or [`Into of Desc.t] for memory destinations. *)
let emit_binop t impl op ty (a : Desc.t) (b : Desc.t) dst : Desc.sval =
  (* reverse operators carry their operands in evaluation order: the
     first evaluated child is the original right operand *)
  let s1, s2 = if Op.is_reverse op then (b, a) else (a, b) in
  match impl with
  | Pseudo pseudo -> (
    match dst with
    | `Alloc ->
      let result = ref None in
      let alloc_dst () =
        let d = Regmgr.alloc t.regs ty in
        result := Some d;
        d.Desc.operand
      in
      ignore (expand_pseudo t pseudo ty ~alloc_dst s1 s2);
      Desc.D (Option.get !result)
    | `Into d ->
      let alloc_dst () = d.Desc.operand in
      ignore (expand_pseudo t pseudo ty ~alloc_dst s1 s2);
      Regmgr.release t.regs d;
      Desc.Done)
  | Cluster cluster -> (
    match dst with
    | `Alloc ->
      Regmgr.release t.regs s1;
      Regmgr.release t.regs s2;
      let d = Regmgr.alloc t.regs ty in
      apply_cluster t cluster ~dst:d.Desc.operand
        [ s1.Desc.operand; s2.Desc.operand ];
      Desc.D d
    | `Into d ->
      apply_cluster t cluster ~dst:d.Desc.operand
        [ s1.Desc.operand; s2.Desc.operand ];
      Regmgr.release t.regs s1;
      Regmgr.release t.regs s2;
      Regmgr.release t.regs d;
      Desc.Done)

let binop_of_node (node : Tree.t) =
  match node with
  | Tree.Binop (op, _, _, _) -> op
  | _ -> invalid_arg "operator pattern without a Binop node"

let emit_insn t g (r : vax_emit resolved) (e : vax_emit)
    (args : Desc.sval array) : Desc.sval =
  match (e.kind, args) with
  (* ---- bridges: multi-instruction address repairs (section 6.2.2) ---- *)
  | Bridge_ixmul, [| Node _; D base_d; Node _; D a; D b |] ->
    let a = stable t a and b = stable t b in
    let rbase = Regmgr.as_register t.regs base_d in
    let rt = Regmgr.alloc t.regs Dtype.Long in
    emit t
      (Insn.insn "mull3" [ a.Desc.operand; b.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs a;
    Regmgr.release t.regs b;
    emit t (Insn.insn "addl2" [ rbase.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs rbase;
    Desc.D
      (compose_mem t ~owned:rt.Desc.owned
         (Option.value r.lhs ~default:Dtype.Long)
         (Mode.mem_deferred
            (match rt.Desc.operand with Mode.Reg r -> r | _ -> assert false)))
  | Bridge_dxmul, [| Node _; Node (Tree.Const (_, d)); Node _; D base_d; Node _; D a; D b |]
    ->
    let a = stable t a and b = stable t b in
    let rbase = Regmgr.as_register t.regs base_d in
    let rt = Regmgr.alloc t.regs Dtype.Long in
    emit t
      (Insn.insn "mull3" [ a.Desc.operand; b.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs a;
    Regmgr.release t.regs b;
    emit t (Insn.insn "addl2" [ rbase.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs rbase;
    let rr = match rt.Desc.operand with Mode.Reg r -> r | _ -> assert false in
    Desc.D
      (compose_mem t ~owned:rt.Desc.owned
         (Option.value r.lhs ~default:Dtype.Long)
         (Mode.mem_disp d rr))
  | Bridge_symmul, [| Node _; Node _; Node (Tree.Name (_, s)); Node _; D a; D b |]
    ->
    let a = stable t a and b = stable t b in
    let rt = Regmgr.alloc t.regs Dtype.Long in
    emit t
      (Insn.insn "mull3" [ a.Desc.operand; b.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs a;
    Regmgr.release t.regs b;
    let rr = match rt.Desc.operand with Mode.Reg r -> r | _ -> assert false in
    Desc.D
      (compose_mem t ~owned:rt.Desc.owned
         (Option.value r.lhs ~default:Dtype.Long)
         (Mode.mem_disp ~sym:s 0L rr))
  (* ---- branches (section 6.1) ---- *)
  | Cmpbr, [| Node cb; Node _; D a; D b; Node _ |] ->
    let rel, sg, bty, label = branch_of_node cb in
    (match cluster_exn r e with
    | [ cmp_row; _tst_row ] ->
      let replaced =
        if not t.idioms then None
        else
          match cmp_row.Insn_table.range with
          | Some k -> Insn_table.range_apply k cmp_row.Insn_table.sfx b.Desc.operand
          | None -> None
      in
      (match replaced with
      | Some tst -> emit t (Insn.insn tst [ a.Desc.operand ])
      | None ->
        emit t
          (Insn.insn cmp_row.Insn_table.print
             [ a.Desc.operand; b.Desc.operand ]))
    | _ -> assert false);
    Regmgr.release t.regs a;
    Regmgr.release t.regs b;
    emit t (Insn.Branch (jcc rel sg bty, label));
    Desc.Done
  | Tstbr, [| Node cb; Node _; D a; Node _; Node _ |] ->
    let rel, sg, bty, label = branch_of_node cb in
    emit t (Insn.insn (mnemonic r e) [ a.Desc.operand ]);
    Regmgr.release t.regs a;
    emit t (Insn.Branch (jcc rel sg bty, label));
    Desc.Done
  | Tstbr_reg, [| Node cb; Node _; Node (Tree.Dreg (_, reg)); Node _; Node _ |]
    ->
    let rel, sg, bty, label = branch_of_node cb in
    emit t (Insn.insn (mnemonic r e) [ Mode.Reg reg ]);
    emit t (Insn.Branch (jcc rel sg bty, label));
    Desc.Done
  | Ccbr, [| Node cb; Node _; D a; Node _; Node _ |] ->
    (* the instruction that computed [a] into a register has just been
       emitted and set the condition codes: no test needed *)
    let rel, sg, bty, label = branch_of_node cb in
    Regmgr.release t.regs a;
    emit t (Insn.Branch (jcc rel sg bty, label));
    Desc.Done
  (* ---- pushes and address-of ---- *)
  | Push, [| Node _; D v |] -> (
    match ty_of_suffix r with
    | Dtype.Long ->
      emit t (Insn.insn "pushl" [ v.Desc.operand ]);
      Regmgr.release t.regs v;
      Desc.Done
    | Dtype.Dbl ->
      emit t (Insn.insn "movd" [ v.Desc.operand; Mode.autodec Regconv.sp ]);
      Regmgr.release t.regs v;
      Desc.Done
    | _ -> Fmt.failwith "push of unexpected type")
  | Mova, [| Node _; Node leaf |] ->
    let operand =
      match leaf with
      | Tree.Name (_, s) -> Mode.mem_sym s
      | Tree.Temp (tty, i) -> Frame.temp_mode t.frame i tty
      | _ -> Fmt.failwith "mova of unexpected leaf"
    in
    let d = Regmgr.alloc t.regs Dtype.Long in
    emit t (Insn.insn (mnemonic r e) [ operand; d.Desc.operand ]);
    Desc.D d
  | Mova, [| Node _; Node _; D ea |] ->
    Regmgr.release t.regs ea;
    let d = Regmgr.alloc t.regs Dtype.Long in
    emit t (Insn.insn (mnemonic r e) [ ea.Desc.operand; d.Desc.operand ]);
    Desc.D d
  (* ---- moves (including conversions) ---- *)
  | Mov, [| D src |] ->
    (* load into a register *)
    Regmgr.release t.regs src;
    let d = Regmgr.alloc t.regs (ty_of_suffix r) in
    apply_cluster t (cluster_exn r e) ~dst:d.Desc.operand [ src.Desc.operand ];
    Desc.D d
  | Cvt, [| Node _; D src |] ->
    (* reg.t <- Cvt rval *)
    Regmgr.release t.regs src;
    let to_ty =
      match r.sfx with
      | Some ty -> ty
      | None -> Fmt.failwith "cvt key %s" (key r)
    in
    let d = Regmgr.alloc t.regs to_ty in
    apply_cluster t (cluster_exn r e) ~dst:d.Desc.operand [ src.Desc.operand ];
    Desc.D d
  | Mov, [| Node _; D dst; D src |] ->
    (* stmt <- Assign lval rval *)
    apply_cluster t (cluster_exn r e) ~dst:dst.Desc.operand [ src.Desc.operand ];
    Regmgr.release t.regs src;
    Regmgr.release t.regs dst;
    Desc.Done
  | Mov_r, [| Node _; D src; D dst |] ->
    (* the mov_r and mov clusters are one and the same *)
    apply_cluster t (cluster_exn r e) ~dst:dst.Desc.operand [ src.Desc.operand ];
    Regmgr.release t.regs src;
    Regmgr.release t.regs dst;
    Desc.Done
  | Cvt, [| Node _; D dst; Node _; D src |] ->
    (* stmt <- Assign lval Cvt rval *)
    apply_cluster t (cluster_exn r e) ~dst:dst.Desc.operand [ src.Desc.operand ];
    Regmgr.release t.regs src;
    Regmgr.release t.regs dst;
    Desc.Done
  (* ---- unary operators ---- *)
  | Unary, [| Node _; D src |] ->
    Regmgr.release t.regs src;
    let d = Regmgr.alloc t.regs (ty_of_suffix r) in
    apply_cluster t (cluster_exn r e) ~dst:d.Desc.operand [ src.Desc.operand ];
    Desc.D d
  | Unary, [| Node _; D dst; Node _; D src |] ->
    apply_cluster t (cluster_exn r e) ~dst:dst.Desc.operand [ src.Desc.operand ];
    Regmgr.release t.regs src;
    Regmgr.release t.regs dst;
    Desc.Done
  (* ---- binary operators ---- *)
  | _, [| Node opnode; D a; D b |] ->
    (* reg.t <- OP rval rval *)
    let op = binop_of_node opnode in
    let ty = ty_of_suffix r in
    emit_binop t (binop_impl r e op ty) op ty a b `Alloc
  | _, [| Node _; D dst; Node opnode; D a; D b |] ->
    (* stmt <- Assign lval OP rval rval *)
    let op = binop_of_node opnode in
    let ty = ty_of_suffix r in
    emit_binop t (binop_impl r e op ty) op ty a b (`Into dst)
  | _, [| Node _; Node opnode; D a; D b; D dst |] ->
    (* stmt <- Rassign OP rval rval lval *)
    let op = binop_of_node opnode in
    let ty = ty_of_suffix r in
    emit_binop t (binop_impl r e op ty) op ty a b (`Into dst)
  | _, _ ->
    Fmt.failwith "emit %s: unexpected production shape %s" (key r)
      (Fmt.str "%a" (Grammar.pp_production g) r.prod)

(* -- matcher callbacks ---------------------------------------------------- *)

let action_rank = function
  | Action.Mode _ -> 0
  | Action.Chain -> 1
  | Action.Emit _ -> 2
  | Action.Start -> 3

(* The callback skeleton is target-independent: shift wraps the node,
   reduce dispatches on the production's resolved action and keeps the
   provenance bookkeeping, choose ranks equal-length candidates.  Only
   the [mode] and [emit] dispatchers differ per target. *)
let make_callbacks t ~mode ~emit:emit_d g (actions : 'e resolved array) :
    Desc.sval Matcher.callbacks =
  let on_reduce (p : Grammar.production) args =
    if t.explain then begin
      t.prov_pending <- p.Grammar.id :: t.prov_pending;
      t.prov_last <- p.Grammar.id
    end;
    let r = actions.(p.Grammar.id) in
    let v =
      match r.action with
      | Pass -> args.(0)
      | Mode m -> mode t g r m args
      | Emit e -> emit_d t g r e args
    in
    (if t.explain then
       match r.action with
       | Emit _ -> t.prov_pending <- []
       | Pass | Mode _ -> ());
    v
  in
  Matcher.callbacks
    ~on_shift:(fun node -> Desc.Node node)
    ~on_reduce
    ~choose:(fun candidates _argss ->
      (* semantic choice among equal-length reductions: prefer
         encapsulation over glue over emission, then grammar order —
         this never re-enters the reg/rval chain cycle *)
      let best = ref 0 in
      Array.iteri
        (fun i p ->
          if
            action_rank p.Grammar.action
            < action_rank candidates.(!best).Grammar.action
          then best := i)
        candidates;
      !best)
    ()

let callbacks t g =
  make_callbacks t ~mode:build_mode ~emit:emit_insn g (actions g)
