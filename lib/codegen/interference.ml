open Import

(* The interference graph over virtual registers, move-aware, with
   spill costs weighted by use count × loop depth × production heat.

   Nodes are virtual-register indices (0..nv-1, i.e. the liveness node
   minus {!Liveness.nphys}).  Physical registers never become nodes: a
   conflict between a virtual register and a machine register is
   recorded as a forbidden-color bit instead. *)

type t = {
  rows : Liveness.Bits.t array;  (* per node, its neighbours (symmetric) *)
  forbid : int array;  (* bitmask of conflicting physical registers *)
  moves : (int * int * int) list;
      (* coalescable reg-to-reg moves in stream order:
         (instruction index, source, destination) as liveness node
         indices — an end below Liveness.nphys is a physical register
         (a register variable, or r0/r1 holding a call result) *)
  weight : float array;  (* spill cost per node *)
  occurrences : int array;  (* def/use sites per node *)
}

let interferes t a b = a <> b && Liveness.Bits.get t.rows.(a) b

let add_edge t a b =
  if a <> b then begin
    Liveness.Bits.set t.rows.(a) b;
    Liveness.Bits.set t.rows.(b) a
  end

let rec pow10 n = if n <= 0 then 1.0 else 10.0 *. pow10 (n - 1)

(* [prov] is the per-instruction provenance (possibly shorter than the
   stream, possibly empty); [heat] is the production-id -> firing-count
   table from [mdgtool heat --json].  An instruction's heat factor is
   its productions' total count normalised by the hottest production,
   so heat scales costs by at most 2x and never overrides loop depth. *)
let heat_factor ~heat ~prov =
  match heat with
  | [] -> fun _ -> 0.0
  | heat ->
    let counts = Hashtbl.create 64 in
    List.iter (fun (pid, c) -> Hashtbl.replace counts pid c) heat;
    let hottest =
      float_of_int (List.fold_left (fun a (_, c) -> max a c) 1 heat)
    in
    fun i ->
      if i >= Array.length prov then 0.0
      else
        let _, pids, _ = prov.(i) in
        let total =
          List.fold_left
            (fun a pid ->
              a + Option.value (Hashtbl.find_opt counts pid) ~default:0)
            0 pids
        in
        min 1.0 (float_of_int total /. hottest)

let build ~(move_mnemonics : string list) ~(heat : (int * int) list)
    ~(prov : (int * int list * string) array) (lv : Liveness.t) =
  let nv = lv.Liveness.nnodes - Liveness.nphys in
  let t =
    {
      rows = Array.init nv (fun _ -> Liveness.Bits.make nv);
      forbid = Array.make nv 0;
      moves = [];
      weight = Array.make nv 0.0;
      occurrences = Array.make nv 0;
    }
  in
  let vnode r = Liveness.node_of lv r - Liveness.nphys in
  let conflict a b =
    (* liveness node indices: either side may be physical *)
    match (Liveness.is_virtual_node a, Liveness.is_virtual_node b) with
    | true, true -> add_edge t (a - Liveness.nphys) (b - Liveness.nphys)
    | true, false ->
      t.forbid.(a - Liveness.nphys) <- t.forbid.(a - Liveness.nphys) lor (1 lsl b)
    | false, true ->
      t.forbid.(b - Liveness.nphys) <- t.forbid.(b - Liveness.nphys) lor (1 lsl a)
    | false, false -> ()
  in
  let hf = heat_factor ~heat ~prov in
  let moves = ref [] in
  Array.iteri
    (fun b (blk : Liveness.block) ->
      ignore b;
      let live = Liveness.Bits.copy lv.Liveness.live_out.(b) in
      for i = blk.Liveness.last downto blk.Liveness.first do
        let defs, uses = lv.Liveness.def_use.(i) in
        (* a coalescable move: plain reg to reg, at least one end
           virtual; a physical end must be a general register (never
           ap/fp/sp/pc).  [move_src] is its source node, else -1. *)
        let move_src =
          let ok_end r = r >= lv.Liveness.vbase || r < 12 in
          match lv.Liveness.insns.(i) with
          | Insn.Insn (m, [ Mode.Reg a; Mode.Reg b ])
            when (a >= lv.Liveness.vbase || b >= lv.Liveness.vbase)
                 && ok_end a && ok_end b
                 && List.mem m move_mnemonics ->
            moves :=
              (i, Liveness.node_of lv a, Liveness.node_of lv b) :: !moves;
            Liveness.node_of lv a
          | _ -> -1
        in
        (* spill-cost weight of this site *)
        let w =
          (1.0 +. hf i) *. pow10 (min 8 (Liveness.depth_at lv i))
        in
        List.iter
          (fun r ->
            if r >= lv.Liveness.vbase then begin
              let v = vnode r in
              t.weight.(v) <- t.weight.(v) +. w;
              t.occurrences.(v) <- t.occurrences.(v) + 1
            end)
          (defs @ uses);
        (* the destination interferes with everything live across it,
           except the source of a move (they may share a register) *)
        let def_nodes = List.map (Liveness.node_of lv) defs in
        List.iter
          (fun dn ->
            Liveness.Bits.iter
              (fun l -> if l <> move_src then conflict dn l)
              live;
            List.iter (fun dn' -> conflict dn dn') def_nodes)
          def_nodes;
        List.iter (fun dn -> Liveness.Bits.clear live dn) def_nodes;
        List.iter (fun r -> Liveness.Bits.set live (Liveness.node_of lv r)) uses
      done)
    lv.Liveness.blocks;
  { t with moves = List.sort compare !moves }
