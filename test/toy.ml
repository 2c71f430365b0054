(* A small machine-description grammar shared by the tablegen and
   matcher tests.  It is a single-type (long) slice of the VAX grammar
   with the shapes that matter: chain productions, a memory-destination
   add (so maximal munch has something longer to prefer), and a
   register-register fallback. *)

module Grammar = Gg_grammar.Grammar
module Action = Gg_grammar.Action

let specs : Grammar.spec list =
  [
    ("stmt", [ "Assign.l"; "lval.l"; "rval.l" ], Action.Emit "mov.l", "movl s,d");
    ( "stmt",
      [ "Assign.l"; "lval.l"; "Plus.l"; "rval.l"; "rval.l" ],
      Action.Emit "add.l",
      "addl3 a,b,d" );
    ("lval.l", [ "mem.l" ], Action.Chain, "");
    ("lval.l", [ "Dreg.l" ], Action.Mode "dreg", "");
    ("mem.l", [ "Name.l" ], Action.Mode "name", "");
    ("imm.l", [ "Const.l" ], Action.Mode "imm", "");
    ("rval.l", [ "imm.l" ], Action.Chain, "");
    ("rval.l", [ "mem.l" ], Action.Chain, "");
    ("rval.l", [ "reg.l" ], Action.Chain, "");
    ("reg.l", [ "Dreg.l" ], Action.Mode "dreg", "");
    ("reg.l", [ "rval.l" ], Action.Emit "mov.l", "movl s,r");
    ("reg.l", [ "Plus.l"; "rval.l"; "rval.l" ], Action.Emit "add.l", "addl3 a,b,r");
    ("reg.l", [ "Mul.l"; "rval.l"; "rval.l" ], Action.Emit "mul.l", "mull3 a,b,r");
  ]

let grammar = Grammar.make_exn ~start:"stmt" specs

(* a = c + b, all longs and globals *)
let assign_tree =
  let open Gg_ir in
  Tree.Assign
    ( Dtype.Long,
      Tree.Name (Dtype.Long, "a"),
      Tree.Binop
        ( Op.Plus,
          Dtype.Long,
          Tree.Name (Dtype.Long, "c"),
          Tree.Name (Dtype.Long, "b") ) )

(* a = (c * 3) + (b * 5) *)
let nested_tree =
  let open Gg_ir in
  let mul x k =
    Tree.Binop
      (Op.Mul, Dtype.Long, Tree.Name (Dtype.Long, x), Tree.Const (Dtype.Long, k))
  in
  Tree.Assign
    ( Dtype.Long,
      Tree.Name (Dtype.Long, "a"),
      Tree.Binop (Op.Plus, Dtype.Long, mul "c" 3L, mul "b" 5L) )

(* Semantic values for matcher tests: a printable trace of what each
   reduction produced. *)
let string_callbacks emitted =
  Gg_matcher.Matcher.callbacks
    ~on_shift:(fun node ->
        match node with
        | Gg_ir.Tree.Name (_, n) -> n
        | Gg_ir.Tree.Const (_, k) -> Fmt.str "$%Ld" k
        | Gg_ir.Tree.Dreg (_, r) -> Fmt.str "r%d" r
        | _ -> "_")
    ~on_reduce:(fun p args ->
        match p.Grammar.action with
        | Action.Chain -> (match args with [| v |] -> v | _ -> assert false)
        | Action.Mode _ -> args.(0)
        | Action.Start -> args.(0)
        | Action.Emit key ->
          let operands =
            Array.to_list args
            |> List.filter (fun s -> s <> "_")
            |> String.concat ","
          in
          let operands = if operands = "" then "?" else operands in
          let insn = Fmt.str "%s %s" key operands in
          emitted := insn :: !emitted;
          Fmt.str "t%d" (List.length !emitted))
    ~choose:(fun _ _ -> 0) ()
