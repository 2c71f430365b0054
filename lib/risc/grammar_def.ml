open Import

(* The RISC machine description (the retargeting experiment): the text
   of risc.mdg, parsed anew for each grammar built, as the VAX one is.

   The options record is shared with the driver (it is the VAX module's
   type); the description's one %if flag is [reverse_ops], and
   [int_types]/[float_types] cut its classes down.  The VAX-specific
   knobs ([overfactored], [with_bridges], [condition_code_fix]) are
   ignored. *)
type options = Vax_options.options

let default = Vax_options.default

let schemas o =
  Mdg.schemas ~flags:(Vax_options.flags o) ~types:(Vax_options.types o)
    (Mdg.parse Risc_mdg.text)

let grammar o =
  Mdg.to_grammar ~flags:(Vax_options.flags o) ~types:(Vax_options.types o)
    (Mdg.parse Risc_mdg.text)

let default_grammar = lazy (grammar default)

let treelang (o : options) =
  Treelang.description ~int_types:o.Vax_options.int_types
    ~float_types:o.Vax_options.float_types
    ~reverse_ops:o.Vax_options.reverse_ops ()
