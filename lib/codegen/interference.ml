open Import

(* The interference graph over virtual registers, move-aware, with
   spill costs weighted by use count × loop depth × production heat.

   Nodes are virtual-register indices (0..nv-1, i.e. the liveness node
   minus {!Liveness.nphys}).  Physical registers never become nodes: a
   conflict between a virtual register and a machine register is
   recorded as a forbidden-color bit instead.  The graph is built by
   one backward scan per block over a sparse live set (Briggs and
   Torczon's dense/sparse pair: constant-time insert, delete, test and
   clear, members listed without scanning a bit row), recording every
   conflict once as a pair, then kept as compressed adjacency rows, so
   its size follows the edges, not nv².  A row is in no order and may
   repeat a neighbour (a pair live across two definitions is recorded
   twice): the colorer collects neighbour classes through stamps, which
   drop repeats anyway. *)

type t = {
  nv : int;
  adj_off : int array;  (* nv + 1: node a's neighbours at adj_off.(a) .. *)
  adj : int array;  (* rows in no order, repeats kept *)
  forbid : int array;  (* bitmask of conflicting physical registers *)
  moves : int array;
      (* coalescable reg-to-reg moves in stream order, three ints each:
         instruction index, source, destination as liveness node
         indices — an end below Liveness.nphys is a physical register
         (a register variable, or r0/r1 holding a call result) *)
  weight : float array;  (* spill cost per node *)
  occurrences : int array;  (* def/use sites per node *)
}

let interferes t a b =
  let rec go e = e < t.adj_off.(a + 1) && (t.adj.(e) = b || go (e + 1)) in
  go t.adj_off.(a)

let nmoves t = Array.length t.moves / 3

let neighbours t a =
  let first = t.adj_off.(a) in
  List.sort_uniq compare
    (List.init (t.adj_off.(a + 1) - first) (fun k -> t.adj.(first + k)))

module Scratch = Liveness.Scratch

(* the scratch slots of one [build] *)
let s_move_src = 0
let s_moves = 1
let s_pairs = 2
let s_dense = 3
let s_pos = 4
let s_fill = 5

(* Compressed rows from the [np] conflicts in [p], two ints each: a
   count pass sizes every row, a fill pass puts each end in the
   other's row.  Linear in nodes plus conflicts. *)
let adjacency nv p np =
  let adj_off = Array.make (nv + 1) 0 in
  for k = 0 to (2 * np) - 1 do
    let a = Array.unsafe_get p k in
    adj_off.(a + 1) <- adj_off.(a + 1) + 1
  done;
  for a = 0 to nv - 1 do
    adj_off.(a + 1) <- adj_off.(a + 1) + adj_off.(a)
  done;
  let fill = Scratch.ints s_fill nv in
  Array.blit adj_off 0 fill 0 nv;
  let adj = Array.make (2 * np) 0 in
  for k = 0 to np - 1 do
    let a = Array.unsafe_get p (2 * k) in
    let b = Array.unsafe_get p ((2 * k) + 1) in
    adj.(fill.(a)) <- b;
    fill.(a) <- fill.(a) + 1;
    adj.(fill.(b)) <- a;
    fill.(b) <- fill.(b) + 1
  done;
  (adj_off, adj)

let bits = Liveness.Bits.bits

let rec pow10 n = if n <= 0 then 1.0 else 10.0 *. pow10 (n - 1)

(* [prov] is the per-instruction provenance (possibly shorter than the
   stream, possibly empty); [heat] is the production-id -> firing-count
   table from [mdgtool heat --json].  An instruction's heat factor is
   its productions' total count normalised by the hottest production,
   so heat scales costs by at most 2x and never overrides loop depth. *)
let heat_factor ~heat ~prov =
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

let build ~(heat : (int * int) list) ~(prov : (int * int list * string) array)
    (lv : Liveness.t) =
  let nphys = Liveness.nphys in
  let nv = lv.Liveness.nnodes - nphys in
  let forbid = Array.make nv 0 in
  let weight = Array.make nv 0.0 in
  let occurrences = Array.make nv 0 in
  let insns = lv.Liveness.insns and vbase = lv.Liveness.vbase in
  let n = Array.length insns in
  (* coalescable moves, in stream order: plain reg to reg, at least one
     end virtual; a physical end must be a general register (never
     ap/fp/sp/pc).  [move_src] is a move's source node, else -1. *)
  let move_src = Scratch.ints s_move_src n in
  let found = Scratch.ints s_moves (3 * n) and nm = ref 0 in
  let ok_end r = r >= vbase || r < 12 in
  for i = 0 to n - 1 do
    move_src.(i) <- -1;
    if Liveness.is_move_mnemonic lv i then
      match insns.(i) with
      | Insn.Insn (_, [ Mode.Reg a; Mode.Reg b ])
        when (a >= vbase || b >= vbase) && ok_end a && ok_end b ->
        let s = Liveness.node_of lv a in
        move_src.(i) <- s;
        found.(!nm) <- i;
        found.(!nm + 1) <- s;
        found.(!nm + 2) <- Liveness.node_of lv b;
        nm := !nm + 3
      | _ -> ()
  done;
  let moves = Array.sub found 0 !nm in
  (* without heat every site of a block weighs [w_depth] *)
  let hf = if heat = [] then None else Some (heat_factor ~heat ~prov) in
  let defs = lv.Liveness.defs and uses = lv.Liveness.uses in
  let def_off = lv.Liveness.def_off and use_off = lv.Liveness.use_off in
  let stride = lv.Liveness.stride and live_out = lv.Liveness.live_out in
  (* conflicts as (a, b) pairs *)
  let pairs = ref (Scratch.ints s_pairs 64) and np = ref 0 in
  let edge a b =
    if (2 * !np) + 2 > Array.length !pairs then
      pairs := Scratch.grow s_pairs !pairs (2 * !np);
    Array.unsafe_set !pairs (2 * !np) a;
    Array.unsafe_set !pairs ((2 * !np) + 1) b;
    incr np
  in
  (* a conflict between two liveness nodes, either of which may be
     physical *)
  let conflict a b =
    if a >= nphys then begin
      if b >= nphys then begin
        if a <> b then edge (a - nphys) (b - nphys)
      end
      else forbid.(a - nphys) <- forbid.(a - nphys) lor (1 lsl b)
    end
    else if b >= nphys then
      forbid.(b - nphys) <- forbid.(b - nphys) lor (1 lsl a)
  in
  (* the live set walking backwards through a block: the physical
     registers as a mask, the virtual ones as a sparse set — [dense]
     lists its [nlive] members, and [v] is a member iff
     [dense.(pos.(v)) = v] with [pos.(v) < nlive], whatever else the
     two arrays hold *)
  let phys = ref 0 in
  let dense = Scratch.ints s_dense nv and pos = Scratch.ints s_pos nv in
  let nlive = ref 0 in
  let mem v =
    let k = Array.unsafe_get pos v in
    k < !nlive && Array.unsafe_get dense k = v
  in
  let add n =
    if n < nphys then phys := !phys lor (1 lsl n)
    else
      let v = n - nphys in
      if not (mem v) then begin
        Array.unsafe_set pos v !nlive;
        Array.unsafe_set dense !nlive v;
        incr nlive
      end
  in
  let remove n =
    if n < nphys then phys := !phys land lnot (1 lsl n)
    else
      let v = n - nphys in
      if mem v then begin
        let k = Array.unsafe_get pos v in
        let last = Array.unsafe_get dense (!nlive - 1) in
        Array.unsafe_set dense k last;
        Array.unsafe_set pos last k;
        decr nlive
      end
  in
  for b = 0 to lv.Liveness.nblocks - 1 do
    let base = b * stride in
    phys := live_out.(base);
    nlive := 0;
    for wk = 1 to stride - 1 do
      let x = ref live_out.(base + wk) in
      while !x <> 0 do
        let low = !x land - !x in
        add lv.Liveness.glob.(((wk - 1) * bits) + Liveness.Bits.bit_index low);
        x := !x lxor low
      done
    done;
    let w_depth = pow10 (min 8 lv.Liveness.depth.(b)) in
    for i = lv.Liveness.blk_last.(b) downto lv.Liveness.blk_first.(b) do
      let d0 = def_off.(i) and d1 = def_off.(i + 1) in
      let u0 = use_off.(i) and u1 = use_off.(i + 1) in
      (* spill-cost weight of this site *)
      let w =
        match hf with None -> w_depth | Some hf -> (1.0 +. hf i) *. w_depth
      in
      for k = d0 to d1 - 1 do
        let v = Array.unsafe_get defs k - nphys in
        if v >= 0 then begin
          Array.unsafe_set weight v (Array.unsafe_get weight v +. w);
          Array.unsafe_set occurrences v (Array.unsafe_get occurrences v + 1)
        end
      done;
      for k = u0 to u1 - 1 do
        let v = Array.unsafe_get uses k - nphys in
        if v >= 0 then begin
          Array.unsafe_set weight v (Array.unsafe_get weight v +. w);
          Array.unsafe_set occurrences v (Array.unsafe_get occurrences v + 1)
        end
      done;
      (* the destination interferes with everything live across it,
         except the source of a move (they may share a register) *)
      let src = move_src.(i) in
      for k = d0 to d1 - 1 do
        let dn = Array.unsafe_get defs k in
        if dn >= nphys then begin
          let a = dn - nphys in
          (* the live physical registers are forbidden colors *)
          let live_phys =
            if src >= 0 && src < nphys then !phys land lnot (1 lsl src)
            else !phys
          in
          forbid.(a) <- forbid.(a) lor live_phys;
          (* the live virtual registers are neighbours; never a
             self-edge *)
          for j = 0 to !nlive - 1 do
            let l = Array.unsafe_get dense j in
            if l <> a && l + nphys <> src then edge a l
          done
        end
        else
          (* a physical definition: forbidden to every live virtual *)
          for j = 0 to !nlive - 1 do
            let l = Array.unsafe_get dense j in
            if l + nphys <> src then forbid.(l) <- forbid.(l) lor (1 lsl dn)
          done;
        (* the definitions of one instruction conflict pairwise *)
        for k' = d0 to d1 - 1 do
          conflict dn (Array.unsafe_get defs k')
        done
      done;
      for k = d0 to d1 - 1 do
        remove (Array.unsafe_get defs k)
      done;
      for k = u0 to u1 - 1 do
        add (Array.unsafe_get uses k)
      done
    done
  done;
  let adj_off, adj = adjacency nv !pairs !np in
  { nv; adj_off; adj; forbid; moves; weight; occurrences }
