open Import

type slot = {
  mutable owner : Desc.t;
  mutable pinned : bool;
  s_prov : int * int list;  (* provenance of the value at allocation *)
}

type vreg_kind = Vsingle | Vpair_base | Vpair_second

type vreg_summary = {
  vs_base : int;
  vs_types : Dtype.t array;
  vs_kinds : vreg_kind array;
  vs_prov : (int * int list) array;
}

type t = {
  slots : (int, slot) Hashtbl.t;  (* register number -> live slot *)
  allocatable : int list;  (* the target's register bank, allocation order *)
  vbase : int option;  (* Some b: virtual mode, fresh registers from b *)
  mutable next_vreg : int;
  (* virtual-register metadata, [next_vreg - vbase] entries, growing by
     doubling *)
  mutable vtypes : Dtype.t array;
  mutable vkinds : vreg_kind array;
  mutable vprovs : (int * int list) array;
  mutable stack : int list;  (* allocation order, most recent first *)
  mutable free : int list;  (* most recently freed first *)
  frame : Frame.t;
  emit : Insn.t -> unit;
  move : Dtype.t -> src:Mode.t -> dst:Mode.t -> Insn.t list;
  prov_of : unit -> int * int list;
  marked : mark:string -> prov:(int * int list) -> (unit -> unit) -> unit;
  mutable spill_modes : (Mode.t * (int * int list)) list;
      (* frame slots created by spills, so a later materialisation can
         be recognised (and tagged) as a reload *)
  mutable spills : int;
  mutable reloads : int;
}

let is_allocatable t r =
  match t.vbase with
  | Some b -> r >= b
  | None -> List.mem r t.allocatable

(* doubles and quads live in consecutive register pairs rn/rn+1 *)
let needs_pair ty = Dtype.size ty = 8

(* the VAX mover: one mov<sfx> handles any src/dst operand pair *)
let vax_move ty ~src ~dst = [ Insn.insn ("mov" ^ Dtype.suffix ty) [ src; dst ] ]

let default_move = vax_move

let create ?(reserved = []) ?(allocatable = Regconv.allocatable)
    ?(move = vax_move) ?vreg_base ?(prov_of = fun () -> (0, []))
    ?(marked = fun ~mark:_ ~prov:_ f -> f ()) ~emit frame =
  {
    slots = Hashtbl.create 16;
    allocatable;
    vbase = vreg_base;
    next_vreg = Option.value vreg_base ~default:0;
    vtypes = [||];
    vkinds = [||];
    vprovs = [||];
    stack = [];
    free =
      (match vreg_base with
      | Some _ -> []  (* virtual mode draws from the fresh counter *)
      | None -> List.filter (fun r -> not (List.mem r reserved)) allocatable);
    frame;
    emit;
    move;
    prov_of;
    marked;
    spill_modes = [];
    spills = 0;
    reloads = 0;
  }

let free_reg t r =
  Hashtbl.remove t.slots r;
  t.stack <- List.filter (fun x -> x <> r) t.stack;
  (* virtual registers are never recycled: reuse would glue two
     distinct live ranges into one and corrupt pair widths *)
  if t.vbase = None && not (List.mem r t.free) then t.free <- r :: t.free

let release t (d : Desc.t) =
  List.iter (fun r -> if is_allocatable t r then free_reg t r) d.Desc.owned;
  d.Desc.owned <- []

(* Spill the register nearest the bottom of the stack whose owner can be
   redirected (operand is exactly that register, not pinned inside a
   composite operand). *)
let spill_one t =
  let rec find = function
    | [] -> failwith "register manager: out of registers (all pinned)"
    | r :: rest -> (
      match Hashtbl.find_opt t.slots r with
      | Some { pinned = false; owner; _ }
        when owner.Desc.operand = Mode.Reg r ->
        (r, owner)
      | _ -> find rest)
  in
  (* bottom of the stack = least recently allocated = end of list *)
  let r, owner = find (List.rev t.stack) in
  let prov =
    match Hashtbl.find_opt t.slots r with
    | Some s -> s.s_prov
    | None -> (0, [])
  in
  let vslot = Frame.alloc_virtual t.frame owner.Desc.ty in
  t.spills <- t.spills + 1;
  if !Metrics.enabled then Metrics.incr "codegen.spills_total";
  t.spill_modes <- (vslot, prov) :: t.spill_modes;
  t.marked ~mark:"spill" ~prov (fun () ->
      List.iter t.emit (t.move owner.Desc.ty ~src:(Mode.Reg r) ~dst:vslot);
      t.emit (Insn.Comment (Fmt.str "spill %s" (Regconv.name r))));
  owner.Desc.operand <- vslot;
  release t owner

let take t r owner =
  Hashtbl.replace t.slots r { owner; pinned = false; s_prov = t.prov_of () };
  t.free <- List.filter (fun x -> x <> r) t.free;
  t.stack <- r :: t.stack

let fresh t ty kind =
  let r = t.next_vreg in
  t.next_vreg <- r + 1;
  let k = r - Option.get t.vbase in
  if k = Array.length t.vtypes then begin
    let grow a fill =
      let a' = Array.make ((2 * k) + 16) fill in
      Array.blit a 0 a' 0 k;
      a'
    in
    t.vtypes <- grow t.vtypes Dtype.Long;
    t.vkinds <- grow t.vkinds Vsingle;
    t.vprovs <- grow t.vprovs (0, [])
  end;
  t.vtypes.(k) <- ty;
  t.vkinds.(k) <- kind;
  t.vprovs.(k) <- t.prov_of ();
  r

let rec alloc t ty : Desc.t =
  if needs_pair ty then alloc_pair t ty
  else
    match t.vbase with
    | Some _ ->
      let r = fresh t ty Vsingle in
      let d = Desc.make ~owned:[ r ] ty (Mode.Reg r) in
      take t r d;
      d
    | None -> (
      match t.free with
      | r :: _ ->
        let d = Desc.make ~owned:[ r ] ty (Mode.Reg r) in
        take t r d;
        d
      | [] ->
        spill_one t;
        alloc t ty)

(* consecutive pair rn/rn+1, both allocatable and free *)
and alloc_pair t ty : Desc.t =
  match t.vbase with
  | Some _ ->
    let r = fresh t ty Vpair_base in
    let r2 = fresh t ty Vpair_second in
    assert (r2 = r + 1);
    let d = Desc.make ~owned:[ r; r + 1 ] ty (Mode.Reg r) in
    take t r d;
    take t (r + 1) d;
    d
  | None -> (
    let pair_free r =
      is_allocatable t r && is_allocatable t (r + 1)
      && List.mem r t.free && List.mem (r + 1) t.free
    in
    match List.find_opt pair_free t.allocatable with
    | Some r ->
      let d = Desc.make ~owned:[ r; r + 1 ] ty (Mode.Reg r) in
      take t r d;
      take t (r + 1) d;
      d
    | None ->
      spill_one t;
      alloc_pair t ty)

let as_register t (d : Desc.t) =
  match d.Desc.operand with
  | Mode.Reg _ -> d
  | operand ->
    let reload =
      List.find_opt (fun (m, _) -> Mode.equal m operand) t.spill_modes
    in
    release t d;
    let rd = alloc t d.Desc.ty in
    let emit_moves () =
      List.iter t.emit (t.move d.Desc.ty ~src:operand ~dst:rd.Desc.operand)
    in
    (match reload with
    | Some (_, prov) ->
      t.reloads <- t.reloads + 1;
      if !Metrics.enabled then Metrics.incr "codegen.reloads_total";
      t.marked ~mark:"reload" ~prov emit_moves
    | None -> emit_moves ());
    rd

let set_pinned t (d : Desc.t) flag =
  List.iter
    (fun r ->
      if is_allocatable t r then
        match Hashtbl.find_opt t.slots r with
        | Some s when s.owner == d -> s.pinned <- flag
        | _ -> ())
    d.Desc.owned

let pin t d = set_pinned t d true
let unpin t d = set_pinned t d false

let compose t (d : Desc.t) =
  List.iter
    (fun r ->
      if is_allocatable t r then
        match Hashtbl.find_opt t.slots r with
        | Some s ->
          s.owner <- d;
          s.pinned <- true
        | None ->
          (* ownership arrived from a descriptor already released; take
             the register back *)
          take t r d;
          (match Hashtbl.find_opt t.slots r with
          | Some s -> s.pinned <- true
          | None -> assert false))
    d.Desc.owned;
  d

let in_use t = List.length t.stack

let spills t = t.spills
let reloads t = t.reloads

let vreg_summary t =
  match t.vbase with
  | None -> None
  | Some vb ->
    let n = t.next_vreg - vb in
    Some
      {
        vs_base = vb;
        vs_types = Array.sub t.vtypes 0 n;
        vs_kinds = Array.sub t.vkinds 0 n;
        vs_prov = Array.sub t.vprovs 0 n;
      }

let assert_clean t =
  if t.stack <> [] then
    failwith
      (Fmt.str "register manager: registers %a still in use between statements"
         Fmt.(list ~sep:comma (of_to_string Regconv.name))
         t.stack)
