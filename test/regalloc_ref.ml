(* A list-based formulation of the register allocator's analysis, the
   test oracle for the one in lib/codegen (compressed rows, dataflow
   over the non-local names only, sparse live sets and adjacency
   rows): def/use as an [(int list * int list) array], basic blocks as
   records with successor and predecessor lists, live sets over every
   node and interference rows as one [Bits.t] per block or node, moves
   as a sorted triple list.  suite_regalloc checks the library's
   def/use, blocks, live-out sets and interference graph against it
   field for field. *)

module Backend = Gg_codegen.Backend
module Liveness = Gg_codegen.Liveness
module Insn = Gg_ir.Insn
module Mode = Gg_ir.Mode
module Regconv = Gg_ir.Regconv
module Bits = Liveness.Bits

let nphys = Liveness.nphys

type block = {
  first : int;  (* index of the block's first instruction *)
  last : int;  (* inclusive *)
  mutable succs : int list;
  mutable preds : int list;
  mutable depth : int;  (* loop nesting depth, 0 outside any loop *)
}

type t = {
  insns : Insn.t array;
  vbase : int;
  nnodes : int;
  blocks : block array;
  block_of : int array;  (* instruction index -> block index *)
  def_use : (int list * int list) array;  (* per instruction *)
  live_out : Bits.t array;  (* per block *)
}

let node_of t r = if r >= t.vbase then nphys + (r - t.vbase) else r
let is_virtual_node n = n >= nphys

(* Which registers an instruction reads and writes, given the backend's
   last-operand classifier.  Memory bases and indexes are always reads;
   an autoincrement/autodecrement base is written back as well.  A call
   clobbers the result registers r0/r1 (the bank registers are
   callee-preserved under the PCC conventions both targets follow, and
   in virtual mode no bank register appears in the stream anyway). *)
let insn_def_use (ra : Backend.regalloc_info) (i : Insn.t) =
  match i with
  | Insn.Insn (m, ops) ->
    let n = List.length ops in
    let kind = if n = 0 then Backend.Dst_none else ra.Backend.ra_dst m in
    let defs = ref [] and uses = ref [] in
    List.iteri
      (fun idx (o : Mode.t) ->
        let is_dst = idx = n - 1 && kind <> Backend.Dst_none in
        match o with
        | Mode.Reg r ->
          if is_dst then begin
            defs := r :: !defs;
            if kind = Backend.Dst_readwrite then uses := r :: !uses
          end
          else uses := r :: !uses
        | Mode.Imm _ | Mode.Fimm _ -> ()
        | Mode.Mem mem ->
          List.iter (fun r -> uses := r :: !uses) (Mode.registers o);
          (match (mem.Mode.auto, mem.Mode.base) with
          | Some _, Some b -> defs := b :: !defs
          | _ -> ()))
      ops;
    (!defs, !uses)
  | Insn.Call _ -> ([ Regconv.r0; Regconv.r1 ], [])
  | Insn.Ret -> ([], [ Regconv.r0 ])
  | Insn.Branch _ | Insn.Lab _ | Insn.Comment _ -> ([], [])

(* natural-loop depths from DFS back edges *)
let loop_depths blocks =
  let n = Array.length blocks in
  let color = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let back_edges = ref [] in
  let rec dfs b =
    color.(b) <- 1;
    List.iter
      (fun s ->
        if color.(s) = 0 then dfs s
        else if color.(s) = 1 then back_edges := (b, s) :: !back_edges)
      blocks.(b).succs;
    color.(b) <- 2
  in
  if n > 0 then dfs 0;
  List.iter
    (fun (tail, head) ->
      (* the natural loop of tail->head: head plus every block that
         reaches tail without passing through head *)
      let in_loop = Array.make n false in
      in_loop.(head) <- true;
      let rec add b =
        if not in_loop.(b) then begin
          in_loop.(b) <- true;
          List.iter add blocks.(b).preds
        end
      in
      add tail;
      Array.iteri
        (fun b inside -> if inside then blocks.(b).depth <- blocks.(b).depth + 1)
        in_loop)
    (List.rev !back_edges)

let analyze ~(ra : Backend.regalloc_info) ~(is_jump : string -> bool) ~vbase
    ~nvregs (insns : Insn.t array) =
  let n = Array.length insns in
  let nnodes = nphys + nvregs in
  let def_use = Array.map (insn_def_use ra) insns in
  (* leaders *)
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(0) <- true;
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun i insn ->
      match insn with
      | Insn.Lab l ->
        leader.(i) <- true;
        Hashtbl.replace labels l i
      | Insn.Branch _ | Insn.Ret -> if i + 1 < n then leader.(i + 1) <- true
      | _ -> ())
    insns;
  let block_of = Array.make (max n 1) 0 in
  let firsts = ref [] in
  for i = n - 1 downto 0 do
    if leader.(i) then firsts := i :: !firsts
  done;
  let firsts = Array.of_list !firsts in
  let nblocks = Array.length firsts in
  let blocks =
    Array.init nblocks (fun b ->
        let first = firsts.(b) in
        let last = if b + 1 < nblocks then firsts.(b + 1) - 1 else n - 1 in
        for i = first to last do
          block_of.(i) <- b
        done;
        { first; last; succs = []; preds = []; depth = 0 })
  in
  (* successors *)
  Array.iteri
    (fun b blk ->
      let fallthrough () = if b + 1 < nblocks then [ b + 1 ] else [] in
      blk.succs <-
        (match insns.(blk.last) with
        | Insn.Ret -> []
        | Insn.Branch (m, l) -> (
          let target =
            match Hashtbl.find_opt labels l with
            | Some i -> [ block_of.(i) ]
            | None -> []  (* label outside this stream *)
          in
          if is_jump m then target else target @ fallthrough ())
        | _ -> fallthrough ()))
    blocks;
  Array.iteri
    (fun b blk -> List.iter (fun s -> blocks.(s).preds <- b :: blocks.(s).preds) blk.succs)
    blocks;
  Array.iter (fun blk -> blk.preds <- List.rev blk.preds) blocks;
  loop_depths blocks;
  let t =
    {
      insns;
      vbase;
      nnodes;
      blocks;
      block_of;
      def_use;
      live_out = Array.init nblocks (fun _ -> Bits.make nnodes);
    }
  in
  (* per-block use (upward-exposed) and def sets *)
  let use_b = Array.init nblocks (fun _ -> Bits.make nnodes) in
  let def_b = Array.init nblocks (fun _ -> Bits.make nnodes) in
  Array.iteri
    (fun b blk ->
      for i = blk.first to blk.last do
        let defs, uses = def_use.(i) in
        List.iter
          (fun r ->
            let nd = node_of t r in
            if not (Bits.get def_b.(b) nd) then Bits.set use_b.(b) nd)
          uses;
        List.iter (fun r -> Bits.set def_b.(b) (node_of t r)) defs
      done)
    blocks;
  let live_in = Array.init nblocks (fun _ -> Bits.make nnodes) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nblocks - 1 downto 0 do
      let out = t.live_out.(b) in
      List.iter
        (fun s -> Bits.union_into ~src:live_in.(s) ~dst:out)
        t.blocks.(b).succs;
      (* in = use ∪ (out − def) *)
      let inb = Bits.copy out in
      Bits.diff_into ~src:def_b.(b) ~dst:inb;
      Bits.union_into ~src:use_b.(b) ~dst:inb;
      if not (Bits.equal inb live_in.(b)) then begin
        live_in.(b) <- inb;
        changed := true
      end
    done
  done;
  t

let depth_at t i = t.blocks.(t.block_of.(i)).depth

(* -- interference ------------------------------------------------------ *)

type graph = {
  rows : Bits.t array;  (* per node, its neighbours (symmetric) *)
  forbid : int array;  (* bitmask of conflicting physical registers *)
  moves : (int * int * int) list;
      (* coalescable reg-to-reg moves in stream order:
         (instruction index, source, destination) as liveness node
         indices — an end below nphys is a physical register
         (a register variable, or r0/r1 holding a call result) *)
  weight : float array;  (* spill cost per node *)
  occurrences : int array;  (* def/use sites per node *)
}

let add_edge (t : graph) a b =
  if a <> b then begin
    Bits.set t.rows.(a) b;
    Bits.set t.rows.(b) a
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
    ~(prov : (int * int list * string) array) (lv : t) =
  let nv = lv.nnodes - nphys in
  let t : graph =
    {
      rows = Array.init nv (fun _ -> Bits.make nv);
      forbid = Array.make nv 0;
      moves = [];
      weight = Array.make nv 0.0;
      occurrences = Array.make nv 0;
    }
  in
  let vnode r = node_of lv r - nphys in
  let conflict a b =
    (* liveness node indices: either side may be physical *)
    match (is_virtual_node a, is_virtual_node b) with
    | true, true -> add_edge t (a - nphys) (b - nphys)
    | true, false ->
      t.forbid.(a - nphys) <- t.forbid.(a - nphys) lor (1 lsl b)
    | false, true ->
      t.forbid.(b - nphys) <- t.forbid.(b - nphys) lor (1 lsl a)
    | false, false -> ()
  in
  let hf = heat_factor ~heat ~prov in
  let moves = ref [] in
  Array.iteri
    (fun b (blk : block) ->
      ignore b;
      let live = Bits.copy lv.live_out.(b) in
      for i = blk.last downto blk.first do
        let defs, uses = lv.def_use.(i) in
        (* a coalescable move: plain reg to reg, at least one end
           virtual; a physical end must be a general register (never
           ap/fp/sp/pc).  [move_src] is its source node, else -1. *)
        let move_src =
          let ok_end r = r >= lv.vbase || r < 12 in
          match lv.insns.(i) with
          | Insn.Insn (m, [ Mode.Reg a; Mode.Reg b ])
            when (a >= lv.vbase || b >= lv.vbase)
                 && ok_end a && ok_end b
                 && List.mem m move_mnemonics ->
            moves :=
              (i, node_of lv a, node_of lv b) :: !moves;
            node_of lv a
          | _ -> -1
        in
        (* spill-cost weight of this site *)
        let w =
          (1.0 +. hf i) *. pow10 (min 8 (depth_at lv i))
        in
        List.iter
          (fun r ->
            if r >= lv.vbase then begin
              let v = vnode r in
              t.weight.(v) <- t.weight.(v) +. w;
              t.occurrences.(v) <- t.occurrences.(v) + 1
            end)
          (defs @ uses);
        (* the destination interferes with everything live across it,
           except the source of a move (they may share a register) *)
        let def_nodes = List.map (node_of lv) defs in
        List.iter
          (fun dn ->
            Bits.iter
              (fun l -> if l <> move_src then conflict dn l)
              live;
            List.iter (fun dn' -> conflict dn dn') def_nodes)
          def_nodes;
        List.iter (fun dn -> Bits.clear live dn) def_nodes;
        List.iter (fun r -> Bits.set live (node_of lv r)) uses
      done)
    lv.blocks;
  { t with moves = List.sort compare !moves }
