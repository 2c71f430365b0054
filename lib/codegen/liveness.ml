open Import

(* Def/use and liveness analysis over an emitted instruction stream
   (one function), for the graph-coloring register allocator.

   Registers — physical or virtual — are mapped to dense node indices:
   0..15 are the machine registers, 16.. are the virtual registers in
   allocation order.  Sets of nodes are word-packed bitsets, 63 nodes to
   an int: the colorer's interference rows are sets over thousands of
   virtual registers, and every neighbour walk, union and comparison
   costs one step per word rather than one per node. *)

module Bits = struct
  (* word [k] holds nodes 63k..63k+62, node [i] at bit [i mod 63];
     bits past the set's size are never set *)
  type t = int array

  let bits = 63  (* Sys.int_size: OCaml 5 runs on 64-bit platforms only *)

  let make n = Array.make ((n + bits - 1) / bits) 0

  let get b i =
    Array.unsafe_get b (i / bits) land (1 lsl (i mod bits)) <> 0

  let set b i =
    let k = i / bits in
    Array.unsafe_set b k (Array.unsafe_get b k lor (1 lsl (i mod bits)))

  let clear b i =
    let k = i / bits in
    Array.unsafe_set b k (Array.unsafe_get b k land lnot (1 lsl (i mod bits)))

  let copy = Array.copy

  let equal a b =
    let n = Array.length a in
    let rec go k =
      k >= n || (Array.unsafe_get a k = Array.unsafe_get b k && go (k + 1))
    in
    n = Array.length b && go 0

  (* dst <- dst ∪ src *)
  let union_into ~src ~dst =
    for k = 0 to Array.length src - 1 do
      Array.unsafe_set dst k (Array.unsafe_get dst k lor Array.unsafe_get src k)
    done

  (* dst <- dst − src *)
  let diff_into ~src ~dst =
    for k = 0 to Array.length src - 1 do
      Array.unsafe_set dst k
        (Array.unsafe_get dst k land lnot (Array.unsafe_get src k))
    done

  (* index of the single set bit of [x] (a power of two, possibly the
     sign bit), by binary search *)
  let bit_index x =
    let n = ref 0 and x = ref x in
    if !x land 0xFFFFFFFF = 0 then begin n := 32; x := !x lsr 32 end;
    if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
    if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
    if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
    if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
    if !x land 0x1 = 0 then incr n;
    !n

  let first b =
    let n = Array.length b in
    let rec go k =
      if k >= n then -1
      else
        let w = Array.unsafe_get b k in
        if w = 0 then go (k + 1) else (k * bits) + bit_index (w land -w)
    in
    go 0

  (* ascending, by lowest-set-bit stepping over a snapshot of each word *)
  let iter f b =
    for k = 0 to Array.length b - 1 do
      let w = ref (Array.unsafe_get b k) in
      while !w <> 0 do
        let low = !w land - !w in
        f ((k * bits) + bit_index low);
        w := !w lxor low
      done
    done
end

let nphys = 16

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
let reg_of t n = if n >= nphys then t.vbase + (n - nphys) else n
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
