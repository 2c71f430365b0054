(* Short aliases for modules used throughout this library. *)
module Dtype = Gg_ir.Dtype
module Op = Gg_ir.Op
module Tree = Gg_ir.Tree
module Label = Gg_ir.Label
module Regconv = Gg_ir.Regconv
module Treegen = Gg_ir.Treegen
module Interp = Gg_ir.Interp
module Grammar = Gg_grammar.Grammar
module Symtab = Gg_grammar.Symtab
module Matcher = Gg_matcher.Matcher
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend
module Pcc = Gg_pcc.Pcc
module Simout = Gg_ir.Simout
module Targets = Gg_targets.Targets
module Profile = Gg_profile.Profile
