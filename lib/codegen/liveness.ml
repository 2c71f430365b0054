open Import

(* Def/use and liveness analysis over an emitted instruction stream
   (one function), for the graph-coloring register allocator.

   Registers — physical or virtual — are mapped to dense node indices:
   0..15 are the machine registers, 16.. are the virtual registers in
   allocation order.  Every per-function structure is a flat,
   pointer-free int array: def/use lists and the control-flow graph in
   compressed-row form (an offset array into one node array), live sets
   as rows of one word matrix.  Large arrays of pointers cost a minor
   collection to create and promote whatever young values they point
   at; int arrays cost neither. *)

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
     sign bit): a de Bruijn multiply on whichever 32-bit half holds it *)
  let debruijn =
    [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
       31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

  let bit_index x =
    let lo = x land 0xFFFFFFFF in
    if lo <> 0 then
      Array.unsafe_get debruijn (((lo * 0x077CB531) land 0xFFFFFFFF) lsr 27)
    else
      32
      + Array.unsafe_get debruijn
          ((((x lsr 32) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

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

(* -- mnemonic classes ------------------------------------------------------ *)

(* A class packs what the allocator asks of a mnemonic: bits 0-1 the
   destination kind, bit 2 whether it is one of the mover's
   register-to-register spellings. *)
let dst_none = 0
let dst_write = 1
let dst_readwrite = 2
let move_bit = 4

let code_of_kind = function
  | Backend.Dst_none -> dst_none
  | Backend.Dst_write -> dst_write
  | Backend.Dst_readwrite -> dst_readwrite

module Stbl = Hashtbl.Make (String)

type mnemonics = {
  mn_ra : Backend.regalloc_info;
  mn_moves : string list;
  mn_is_jump : string -> bool;
  mn_class : int Stbl.t;
}

let mnemonics ~ra ~move_mnemonics ~is_jump =
  { mn_ra = ra; mn_moves = move_mnemonics; mn_is_jump = is_jump;
    mn_class = Stbl.create 64 }

let class_of mn m =
  match Stbl.find_opt mn.mn_class m with
  | Some c -> c
  | None ->
    let c =
      code_of_kind (mn.mn_ra.Backend.ra_dst m)
      lor if List.mem m mn.mn_moves then move_bit else 0
    in
    Stbl.add mn.mn_class m c;
    c

(* -- the analysis ---------------------------------------------------------- *)

type t = {
  insns : Insn.t array;
  vbase : int;
  nnodes : int;
  cls : int array;
  def_off : int array;
  defs : int array;
  use_off : int array;
  uses : int array;
  nblocks : int;
  blk_first : int array;
  blk_last : int array;
  succ_off : int array;
  succ : int array;
  pred_off : int array;
  pred : int array;
  depth : int array;
  block_of : int array;
  stride : int;
  live_out : int array;
}

let node_of t r = if r >= t.vbase then nphys + (r - t.vbase) else r
let reg_of t n = if n >= nphys then t.vbase + (n - nphys) else n

let dst_kind t i =
  match t.cls.(i) land 3 with
  | 0 -> Backend.Dst_none
  | 1 -> Backend.Dst_write
  | _ -> Backend.Dst_readwrite

let is_move_mnemonic t i = t.cls.(i) land move_bit <> 0

(* Live-set rows: word 0 is the mask of physical nodes, words 1.. hold
   virtual node [v + nphys] at bit [v mod 63] of word [1 + v / 63], so
   a row's virtual part lines up word for word with a row of the
   interference matrix. *)
let set_words nnodes = 1 + ((nnodes - nphys + Bits.bits - 1) / Bits.bits)

let set_node m base n =
  if n < nphys then
    Array.unsafe_set m base (Array.unsafe_get m base lor (1 lsl n))
  else
    let v = n - nphys in
    let k = base + 1 + (v / Bits.bits) in
    Array.unsafe_set m k (Array.unsafe_get m k lor (1 lsl (v mod Bits.bits)))

let clear_node m base n =
  if n < nphys then
    Array.unsafe_set m base (Array.unsafe_get m base land lnot (1 lsl n))
  else
    let v = n - nphys in
    let k = base + 1 + (v / Bits.bits) in
    Array.unsafe_set m k
      (Array.unsafe_get m k land lnot (1 lsl (v mod Bits.bits)))

let mem_node m base n =
  if n < nphys then Array.unsafe_get m base land (1 lsl n) <> 0
  else
    let v = n - nphys in
    Array.unsafe_get m (base + 1 + (v / Bits.bits))
    land (1 lsl (v mod Bits.bits))
    <> 0

let live_out_mem t b n = mem_node t.live_out (b * t.stride) n

(* a growable int buffer *)
type buf = { mutable a : int array; mutable len : int }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (2 * b.len + 16) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  Array.unsafe_set b.a b.len x;
  b.len <- b.len + 1

(* Which registers each instruction writes and reads, as node ids in
   compressed rows: instruction [i]'s defs are
   [defs.(def_off.(i)) .. defs.(def_off.(i+1) - 1)], its uses likewise
   (the buffers may run past the last offset).  Memory bases and
   indexes are always reads; an autoincrement/autodecrement base is
   written back as well.  A call clobbers the result registers r0/r1
   (the bank registers are callee-preserved under the PCC conventions
   both targets follow, and in virtual mode no bank register appears in
   the stream anyway). *)
let node ~vbase r = if r >= vbase then nphys + (r - vbase) else r

let use_mode ~vbase uses (o : Mode.t) =
  match o with
  | Mode.Reg r -> push uses (node ~vbase r)
  | Mode.Mem { Mode.base; index; _ } ->
    (match base with Some r -> push uses (node ~vbase r) | None -> ());
    (match index with Some r -> push uses (node ~vbase r) | None -> ())
  | Mode.Imm _ | Mode.Fimm _ -> ()

let def_auto ~vbase defs (o : Mode.t) =
  match o with
  | Mode.Mem { Mode.auto = Some _; base = Some b; _ } -> push defs (node ~vbase b)
  | _ -> ()

(* operands in order; the last one is the destination when [dst] is
   not [dst_none] *)
let rec operands ~vbase defs uses dst = function
  | [] -> ()
  | [ Mode.Reg r ] when dst <> dst_none ->
    push defs (node ~vbase r);
    if dst = dst_readwrite then push uses (node ~vbase r)
  | o :: rest ->
    use_mode ~vbase uses o;
    def_auto ~vbase defs o;
    operands ~vbase defs uses dst rest

let def_use mn ~vbase insns =
  let n = Array.length insns in
  let cls = Array.make n 0 in
  let def_off = Array.make (n + 1) 0 and use_off = Array.make (n + 1) 0 in
  let defs = { a = Array.make (n + 16) 0; len = 0 } in
  let uses = { a = Array.make ((2 * n) + 16) 0; len = 0 } in
  for i = 0 to n - 1 do
    def_off.(i) <- defs.len;
    use_off.(i) <- uses.len;
    match Array.unsafe_get insns i with
    | Insn.Insn (m, ops) ->
      let c = class_of mn m in
      cls.(i) <- c;
      operands ~vbase defs uses (c land 3) ops
    | Insn.Call _ ->
      push defs Regconv.r0;
      push defs Regconv.r1
    | Insn.Ret -> push uses Regconv.r0
    | Insn.Branch _ | Insn.Lab _ | Insn.Comment _ -> ()
  done;
  def_off.(n) <- defs.len;
  use_off.(n) <- uses.len;
  (cls, def_off, defs.a, use_off, uses.a)

(* natural-loop depths from DFS back edges *)
let loop_depths ~succ_off ~succ ~pred_off ~pred depth =
  let n = Array.length depth in
  let color = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let back = { a = [||]; len = 0 } in
  let rec dfs b =
    color.(b) <- 1;
    for e = succ_off.(b) to succ_off.(b + 1) - 1 do
      let s = succ.(e) in
      if color.(s) = 0 then dfs s
      else if color.(s) = 1 then begin
        push back b;
        push back s
      end
    done;
    color.(b) <- 2
  in
  if n > 0 then dfs 0;
  let in_loop = Array.make n false in
  for k = 0 to (back.len / 2) - 1 do
    let tail = back.a.(2 * k) and head = back.a.((2 * k) + 1) in
    (* the natural loop of tail->head: head plus every block that
       reaches tail without passing through head *)
    Array.fill in_loop 0 n false;
    in_loop.(head) <- true;
    let rec add b =
      if not in_loop.(b) then begin
        in_loop.(b) <- true;
        for e = pred_off.(b) to pred_off.(b + 1) - 1 do
          add pred.(e)
        done
      end
    in
    add tail;
    for b = 0 to n - 1 do
      if in_loop.(b) then depth.(b) <- depth.(b) + 1
    done
  done

let analyze mn ~vbase ~nvregs (insns : Insn.t array) =
  let n = Array.length insns in
  let nnodes = nphys + nvregs in
  let cls, def_off, defs, use_off, uses = def_use mn ~vbase insns in
  (* leaders *)
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(0) <- true;
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    match Array.unsafe_get insns i with
    | Insn.Lab l ->
      leader.(i) <- true;
      if l < !lo then lo := l;
      if l > !hi then hi := l
    | Insn.Branch _ | Insn.Ret -> if i + 1 < n then leader.(i + 1) <- true
    | _ -> ()
  done;
  (* label -> instruction index, -1 for a label outside this stream *)
  let lo = !lo in
  let label_at = Array.make (max 0 (!hi - lo + 1)) (-1) in
  for i = 0 to n - 1 do
    match Array.unsafe_get insns i with
    | Insn.Lab l -> label_at.(l - lo) <- i
    | _ -> ()
  done;
  let label_index l =
    if l >= lo && l - lo < Array.length label_at then label_at.(l - lo) else -1
  in
  let nblocks = ref 0 in
  for i = 0 to n - 1 do
    if leader.(i) then incr nblocks
  done;
  let nblocks = !nblocks in
  let blk_first = Array.make nblocks 0 and blk_last = Array.make nblocks 0 in
  let block_of = Array.make (max n 1) 0 in
  let b = ref (-1) in
  for i = 0 to n - 1 do
    if leader.(i) then begin
      incr b;
      blk_first.(!b) <- i
    end;
    block_of.(i) <- !b;
    blk_last.(!b) <- i
  done;
  (* successors: a branch's target first, then the fall-through *)
  let succ_off = Array.make (nblocks + 1) 0 in
  let succ = Array.make (2 * nblocks) 0 in
  let ns = ref 0 in
  for b = 0 to nblocks - 1 do
    succ_off.(b) <- !ns;
    let fallthrough = b + 1 < nblocks in
    (match insns.(blk_last.(b)) with
    | Insn.Ret -> ()
    | Insn.Branch (m, l) ->
      let i = label_index l in
      if i >= 0 then begin
        succ.(!ns) <- block_of.(i);
        incr ns
      end;
      if mn.mn_is_jump m || not fallthrough then ()
      else begin
        succ.(!ns) <- b + 1;
        incr ns
      end
    | _ ->
      if fallthrough then begin
        succ.(!ns) <- b + 1;
        incr ns
      end)
  done;
  succ_off.(nblocks) <- !ns;
  let succ = Array.sub succ 0 !ns in
  (* predecessors in ascending block order, one entry per edge *)
  let pred_off = Array.make (nblocks + 1) 0 in
  Array.iter (fun s -> pred_off.(s + 1) <- pred_off.(s + 1) + 1) succ;
  for b = 0 to nblocks - 1 do
    pred_off.(b + 1) <- pred_off.(b + 1) + pred_off.(b)
  done;
  let pred = Array.make !ns 0 in
  let fill = Array.sub pred_off 0 (max nblocks 1) in
  for b = 0 to nblocks - 1 do
    for e = succ_off.(b) to succ_off.(b + 1) - 1 do
      let s = succ.(e) in
      pred.(fill.(s)) <- b;
      fill.(s) <- fill.(s) + 1
    done
  done;
  let depth = Array.make nblocks 0 in
  loop_depths ~succ_off ~succ ~pred_off ~pred depth;
  (* per-block use (upward-exposed) and def sets, then live-in and
     live-out to a fixpoint, one [stride]-word row per block *)
  let stride = set_words nnodes in
  let use_b = Array.make (nblocks * stride) 0 in
  let def_b = Array.make (nblocks * stride) 0 in
  for b = 0 to nblocks - 1 do
    let base = b * stride in
    for i = blk_first.(b) to blk_last.(b) do
      for k = use_off.(i) to use_off.(i + 1) - 1 do
        let nd = Array.unsafe_get uses k in
        if not (mem_node def_b base nd) then set_node use_b base nd
      done;
      for k = def_off.(i) to def_off.(i + 1) - 1 do
        set_node def_b base (Array.unsafe_get defs k)
      done
    done
  done;
  let live_out = Array.make (nblocks * stride) 0 in
  let live_in = Array.make (nblocks * stride) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nblocks - 1 downto 0 do
      let base = b * stride in
      for e = succ_off.(b) to succ_off.(b + 1) - 1 do
        let sbase = succ.(e) * stride in
        for k = 0 to stride - 1 do
          Array.unsafe_set live_out (base + k)
            (Array.unsafe_get live_out (base + k)
            lor Array.unsafe_get live_in (sbase + k))
        done
      done;
      (* in = use ∪ (out − def) *)
      for k = base to base + stride - 1 do
        let w =
          Array.unsafe_get use_b k
          lor (Array.unsafe_get live_out k land lnot (Array.unsafe_get def_b k))
        in
        if w <> Array.unsafe_get live_in k then begin
          Array.unsafe_set live_in k w;
          changed := true
        end
      done
    done
  done;
  {
    insns;
    vbase;
    nnodes;
    cls;
    def_off;
    defs;
    use_off;
    uses;
    nblocks;
    blk_first;
    blk_last;
    succ_off;
    succ;
    pred_off;
    pred;
    depth;
    block_of;
    stride;
    live_out;
  }

let depth_at t i = t.depth.(t.block_of.(i))
