type production = {
  id : int;
  lhs : int;
  rhs : Symtab.sym array;
  action : Action.t;
  note : string;
}

type binding = Binding : 'a Type.Id.t * 'a -> binding

type t = {
  symtab : Symtab.t;
  start : int;
  prods : production array;
  by_lhs : int array array;
  derived : binding list Atomic.t;
}

type spec = string * string list * Action.t * string

let make ~start specs =
  let symtab = Symtab.create () in
  let exception Bad of string in
  let bad fmt = Fmt.kstr (fun s -> raise (Bad s)) fmt in
  try
    let start_idx =
      match Symtab.intern symtab start with
      | Symtab.N i -> i
      | Symtab.T _ -> bad "start symbol %s is a terminal" start
    in
    let seen = Hashtbl.create 512 in
    let prods =
      List.mapi
        (fun id (lhs, rhs, action, note) ->
          if rhs = [] then bad "production %d (%s): empty right-hand side" id lhs;
          let lhs_idx =
            match Symtab.intern symtab lhs with
            | Symtab.N i -> i
            | Symtab.T _ -> bad "terminal %s used as a left-hand side" lhs
          in
          let rhs = Array.of_list (List.map (Symtab.intern symtab) rhs) in
          let key = (lhs_idx, rhs) in
          if Hashtbl.mem seen key then
            bad "duplicate production: %s <- %s" lhs
              (String.concat " " (Array.to_list (Array.map (Symtab.name symtab) rhs)));
          Hashtbl.replace seen key ();
          { id; lhs = lhs_idx; rhs; action; note })
        specs
      |> Array.of_list
    in
    (* every non-terminal mentioned must have at least one production *)
    let defined = Array.make (Symtab.n_nonterms symtab) false in
    Array.iter (fun p -> defined.(p.lhs) <- true) prods;
    defined.(start_idx) <- true;
    Array.iter
      (fun p ->
        Array.iter
          (function
            | Symtab.N i when not defined.(i) ->
              bad "undefined non-terminal %s" (Symtab.nonterm_name symtab i)
            | Symtab.N _ | Symtab.T _ -> ())
          p.rhs)
      prods;
    let by_lhs =
      Array.init (Symtab.n_nonterms symtab) (fun n ->
          Array.of_seq
            (Seq.filter_map
               (fun p -> if p.lhs = n then Some p.id else None)
               (Array.to_seq prods)))
    in
    Ok { symtab; start = start_idx; prods; by_lhs; derived = Atomic.make [] }
  with Bad msg -> Error msg

let make_exn ~start specs =
  match make ~start specs with
  | Ok g -> g
  | Error msg -> invalid_arg ("Grammar.make: " ^ msg)

type 'a derived = { id : 'a Type.Id.t; compute : t -> 'a }

let derive compute = { id = Type.Id.make (); compute }

let rec lookup : type a. a Type.Id.t -> binding list -> a option =
 fun id -> function
  | [] -> None
  | Binding (id', v) :: rest -> (
    match Type.Id.provably_equal id id' with
    | Some Type.Equal -> Some v
    | None -> lookup id rest)

(* Domains that race on the first use may each compute the value; the
   first to publish wins and the others adopt its value, so every
   domain ends up with the same one. *)
let derived g d =
  match lookup d.id (Atomic.get g.derived) with
  | Some v -> v
  | None ->
    let v = d.compute g in
    let rec publish () =
      let seen = Atomic.get g.derived in
      match lookup d.id seen with
      | Some v' -> v'
      | None ->
        if Atomic.compare_and_set g.derived seen (Binding (d.id, v) :: seen)
        then v
        else publish ()
    in
    publish ()

let n_productions g = Array.length g.prods
let production g i = g.prods.(i)

let is_chain p =
  Array.length p.rhs = 1
  && match p.rhs.(0) with Symtab.N _ -> true | Symtab.T _ -> false

type report = { unreachable : string list; unproductive : string list }

let check g =
  let nn = Symtab.n_nonterms g.symtab in
  (* reachability from the start symbol *)
  let reachable = Array.make nn false in
  let rec reach n =
    if not reachable.(n) then begin
      reachable.(n) <- true;
      Array.iter
        (fun pid ->
          Array.iter
            (function Symtab.N m -> reach m | Symtab.T _ -> ())
            g.prods.(pid).rhs)
        g.by_lhs.(n)
    end
  in
  reach g.start;
  (* productivity: fixed point over "derives some terminal string" *)
  let productive = Array.make nn false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun p ->
        if not productive.(p.lhs) then
          let all_ok =
            Array.for_all
              (function Symtab.N m -> productive.(m) | Symtab.T _ -> true)
              p.rhs
          in
          if all_ok then begin
            productive.(p.lhs) <- true;
            changed := true
          end)
      g.prods
  done;
  let collect pred =
    List.filter_map
      (fun i -> if pred i then Some (Symtab.nonterm_name g.symtab i) else None)
      (List.init nn Fun.id)
  in
  {
    unreachable = collect (fun i -> not reachable.(i));
    unproductive = collect (fun i -> reachable.(i) && not productive.(i));
  }

type stats = {
  productions : int;
  terminals : int;
  nonterminals : int;
  chain_productions : int;
  max_rhs : int;
}

let stats g =
  {
    productions = Array.length g.prods;
    terminals = Symtab.n_terms g.symtab;
    nonterminals = Symtab.n_nonterms g.symtab;
    chain_productions =
      Array.fold_left (fun n p -> if is_chain p then n + 1 else n) 0 g.prods;
    max_rhs = Array.fold_left (fun n p -> max n (Array.length p.rhs)) 0 g.prods;
  }

let pp_production g ppf p =
  Fmt.pf ppf "%s <- %s  [%a]%s"
    (Symtab.nonterm_name g.symtab p.lhs)
    (String.concat " " (Array.to_list (Array.map (Symtab.name g.symtab) p.rhs)))
    Action.pp p.action
    (if p.note = "" then "" else "  ; " ^ p.note)

let pp_stats ppf s =
  Fmt.pf ppf
    "%d productions, %d terminals, %d nonterminals (%d chain productions, \
     longest rhs %d)"
    s.productions s.terminals s.nonterminals s.chain_productions s.max_rhs

let pp ppf g =
  Array.iter (fun p -> Fmt.pf ppf "%a@\n" (pp_production g) p) g.prods

let digest g =
  let buf = Buffer.create 8192 in
  (* the symbol tables, so renamings that keep the counts equal still
     change the digest *)
  Buffer.add_string buf "terms:";
  for a = 0 to Symtab.n_terms g.symtab - 1 do
    Buffer.add_string buf (Symtab.term_name g.symtab a);
    Buffer.add_char buf '\x00'
  done;
  Buffer.add_string buf "nonterms:";
  for n = 0 to Symtab.n_nonterms g.symtab - 1 do
    Buffer.add_string buf (Symtab.nonterm_name g.symtab n);
    Buffer.add_char buf '\x00'
  done;
  Buffer.add_string buf "start:";
  Buffer.add_string buf (string_of_int g.start);
  Buffer.add_char buf '\x00';
  (* every production in full: lhs, rhs, semantic action, and the note
     (the assembly template / cost annotation).  Raw fields, not the
     pretty-printer: [load] recomputes this on every cache hit, so it
     sits on the compiler's start-up path. *)
  Array.iter
    (fun p ->
      Buffer.add_string buf (string_of_int p.lhs);
      Buffer.add_string buf "<-";
      Array.iter
        (fun sym ->
          (match sym with
          | Symtab.T a ->
            Buffer.add_char buf 'T';
            Buffer.add_string buf (string_of_int a)
          | Symtab.N n ->
            Buffer.add_char buf 'N';
            Buffer.add_string buf (string_of_int n));
          Buffer.add_char buf ' ')
        p.rhs;
      (match p.action with
      | Action.Chain -> Buffer.add_string buf "chain"
      | Action.Start -> Buffer.add_string buf "accept"
      | Action.Mode m ->
        Buffer.add_string buf "mode:";
        Buffer.add_string buf m
      | Action.Emit e ->
        Buffer.add_string buf "emit:";
        Buffer.add_string buf e);
      Buffer.add_char buf ';';
      Buffer.add_string buf p.note;
      Buffer.add_char buf '\x00')
    g.prods;
  Digest.to_hex (Digest.string (Buffer.contents buf))
