open Import

(* The interference graph over virtual registers, move-aware, with
   spill costs weighted by use count × loop depth × production heat.

   Nodes are virtual-register indices (0..nv-1, i.e. the liveness node
   minus {!Liveness.nphys}).  Physical registers never become nodes: a
   conflict between a virtual register and a machine register is
   recorded as a forbidden-color bit instead.  The graph is one flat
   bit matrix, [words] ints per row, so a definition's conflicts with
   everything live across it are a word-wise OR of the live set into
   its row. *)

type t = {
  nv : int;
  words : int;
  rows : int array;  (* nv × words: node a's neighbours at a * words *)
  forbid : int array;  (* bitmask of conflicting physical registers *)
  moves : int array;
      (* coalescable reg-to-reg moves in stream order, three ints each:
         instruction index, source, destination as liveness node
         indices — an end below Liveness.nphys is a physical register
         (a register variable, or r0/r1 holding a call result) *)
  weight : float array;  (* spill cost per node *)
  occurrences : int array;  (* def/use sites per node *)
}

let bits = Liveness.Bits.bits

let interferes t a b =
  a <> b
  && Array.unsafe_get t.rows ((a * t.words) + (b / bits))
     land (1 lsl (b mod bits))
     <> 0

(* bit [b] of row [a] *)
let set_bit_in rows words a b =
  let k = (a * words) + (b / bits) in
  Array.unsafe_set rows k (Array.unsafe_get rows k lor (1 lsl (b mod bits)))

(* a conflict between two liveness nodes, either of which may be
   physical *)
let conflict rows words forbid a b =
  let nphys = Liveness.nphys in
  if a >= nphys then begin
    if b >= nphys then begin
      if a <> b then begin
        set_bit_in rows words (a - nphys) (b - nphys);
        set_bit_in rows words (b - nphys) (a - nphys)
      end
    end
    else forbid.(a - nphys) <- forbid.(a - nphys) lor (1 lsl b)
  end
  else if b >= nphys then
    forbid.(b - nphys) <- forbid.(b - nphys) lor (1 lsl a)

let nmoves t = Array.length t.moves / 3

let neighbours t a =
  let out = ref [] in
  for k = t.words - 1 downto 0 do
    let w = t.rows.((a * t.words) + k) in
    for j = bits - 1 downto 0 do
      if w land (1 lsl j) <> 0 then out := ((k * bits) + j) :: !out
    done
  done;
  !out

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

(* a coalescable move: plain reg to reg, at least one end virtual; a
   physical end must be a general register (never ap/fp/sp/pc) *)
let move_ends (lv : Liveness.t) i =
  if not (Liveness.is_move_mnemonic lv i) then None
  else
    match lv.Liveness.insns.(i) with
    | Insn.Insn (_, [ Mode.Reg a; Mode.Reg b ]) ->
      let vbase = lv.Liveness.vbase in
      let ok_end r = r >= vbase || r < 12 in
      if (a >= vbase || b >= vbase) && ok_end a && ok_end b then
        Some (Liveness.node_of lv a, Liveness.node_of lv b)
      else None
    | _ -> None

let build ~(heat : (int * int) list) ~(prov : (int * int list * string) array)
    (lv : Liveness.t) =
  let nphys = Liveness.nphys in
  let nv = lv.Liveness.nnodes - nphys in
  let words = (nv + bits - 1) / bits in
  let rows = Array.make (nv * words) 0 in
  let forbid = Array.make nv 0 in
  let weight = Array.make nv 0.0 in
  let occurrences = Array.make nv 0 in
  let insns = lv.Liveness.insns in
  let n = Array.length insns in
  (* moves, in stream order; [move_src] is a move's source node, else -1 *)
  let move_src = Array.make n (-1) in
  let nm = ref 0 in
  for i = 0 to n - 1 do
    match move_ends lv i with
    | Some (s, _) ->
      move_src.(i) <- s;
      incr nm
    | None -> ()
  done;
  let moves = Array.make (3 * !nm) 0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    match move_ends lv i with
    | Some (s, d) ->
      moves.(!m) <- i;
      moves.(!m + 1) <- s;
      moves.(!m + 2) <- d;
      m := !m + 3
    | None -> ()
  done;
  let hf = heat_factor ~heat ~prov in
  let defs = lv.Liveness.defs and uses = lv.Liveness.uses in
  let def_off = lv.Liveness.def_off and use_off = lv.Liveness.use_off in
  let stride = lv.Liveness.stride in
  (* the live set walking backwards through a block, in the liveness
     row layout: word 0 physical, word 1 + k = matrix word k *)
  let live = Array.make stride 0 in
  for b = 0 to lv.Liveness.nblocks - 1 do
    Array.blit lv.Liveness.live_out (b * stride) live 0 stride;
    let w_depth = pow10 (min 8 lv.Liveness.depth.(b)) in
    for i = lv.Liveness.blk_last.(b) downto lv.Liveness.blk_first.(b) do
      let d0 = def_off.(i) and d1 = def_off.(i + 1) in
      let u0 = use_off.(i) and u1 = use_off.(i + 1) in
      (* spill-cost weight of this site *)
      let w = (1.0 +. hf i) *. w_depth in
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
          let row = a * words in
          (* the live physical registers are forbidden colors *)
          let phys =
            if src >= 0 && src < nphys then live.(0) land lnot (1 lsl src)
            else live.(0)
          in
          forbid.(a) <- forbid.(a) lor phys;
          (* the live virtual registers are neighbours, both ways *)
          for wk = 0 to words - 1 do
            let x = Array.unsafe_get live (wk + 1) in
            if x <> 0 then begin
              let x =
                if src >= nphys && (src - nphys) / bits = wk then
                  x land lnot (1 lsl ((src - nphys) mod bits))
                else x
              in
              Array.unsafe_set rows (row + wk)
                (Array.unsafe_get rows (row + wk) lor x);
              let x = ref x in
              while !x <> 0 do
                let low = !x land - !x in
                set_bit_in rows words ((wk * bits) + Liveness.Bits.bit_index low) a;
                x := !x lxor low
              done
            end
          done;
          (* never a self-edge *)
          rows.(row + (a / bits)) <- rows.(row + (a / bits)) land lnot (1 lsl (a mod bits))
        end
        else begin
          (* a physical definition: forbidden to every live virtual *)
          for wk = 0 to words - 1 do
            let x = ref (Array.unsafe_get live (wk + 1)) in
            if src >= nphys && (src - nphys) / bits = wk then
              x := !x land lnot (1 lsl ((src - nphys) mod bits));
            while !x <> 0 do
              let low = !x land - !x in
              let l = (wk * bits) + Liveness.Bits.bit_index low in
              forbid.(l) <- forbid.(l) lor (1 lsl dn);
              x := !x lxor low
            done
          done
        end;
        (* the definitions of one instruction conflict pairwise *)
        for k' = d0 to d1 - 1 do
          let dn' = Array.unsafe_get defs k' in
          conflict rows words forbid dn dn'
        done
      done;
      for k = d0 to d1 - 1 do
        Liveness.clear_node live 0 (Array.unsafe_get defs k)
      done;
      for k = u0 to u1 - 1 do
        Liveness.set_node live 0 (Array.unsafe_get uses k)
      done
    done
  done;
  { nv; words; rows; forbid; moves; weight; occurrences }
