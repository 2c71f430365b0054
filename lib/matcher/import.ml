(* Short aliases for modules used throughout this library. *)
module Grammar = Gg_grammar.Grammar
module Symtab = Gg_grammar.Symtab
module Action = Gg_grammar.Action
module Termname = Gg_ir.Termname
module Tree = Gg_ir.Tree
