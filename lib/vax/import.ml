(* Short aliases for modules used throughout this library. *)
module Dtype = Gg_ir.Dtype
module Op = Gg_ir.Op
module Tree = Gg_ir.Tree
module Label = Gg_ir.Label
module Regconv = Gg_ir.Regconv
module Termname = Gg_ir.Termname
module Mode = Gg_ir.Mode
module Insn = Gg_ir.Insn
module Treelang = Gg_ir.Treelang
module Grammar = Gg_grammar.Grammar
module Schema = Gg_grammar.Schema
module Mdg = Gg_grammar.Mdg
