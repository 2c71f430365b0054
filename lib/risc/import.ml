(* Short aliases for modules used throughout this library. *)
module Dtype = Gg_ir.Dtype
module Op = Gg_ir.Op
module Tree = Gg_ir.Tree
module Label = Gg_ir.Label
module Regconv = Gg_ir.Regconv
module Mode = Gg_ir.Mode
module Insn = Gg_ir.Insn
module Treelang = Gg_ir.Treelang
module Grammar = Gg_grammar.Grammar
module Symtab = Gg_grammar.Symtab
module Mdg = Gg_grammar.Mdg
module Matcher = Gg_matcher.Matcher
module Desc = Gg_codegen.Desc
module Frame = Gg_codegen.Frame
module Regmgr = Gg_codegen.Regmgr
module Backend = Gg_codegen.Backend
module Vax_options = Gg_vax.Grammar_def
