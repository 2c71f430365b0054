open Import

(* Def/use and liveness analysis over an emitted instruction stream
   (one function), for the graph-coloring register allocator.

   Registers — physical or virtual — are mapped to dense node indices:
   0..15 are the machine registers, 16.. are the virtual registers in
   allocation order.  Every per-function structure is a flat,
   pointer-free int array: def/use lists and the control-flow graph in
   compressed-row form (an offset array into one node array).  The
   block dataflow runs over the non-local names only — the physical
   registers and the virtual registers some block reads before it
   writes them — so its rows stay one word wide for the code GG emits,
   where no virtual register outlives its statement; everything local
   to a block is left to {!Interference}'s backward scan.  Large arrays
   of pointers cost a minor collection to create and promote whatever
   young values they point at; int arrays cost neither. *)

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

(* Per-domain working arrays, reused from function to function: an
   array longer than 256 words is allocated straight into the major
   heap, and one per function per stage added up to more words than
   the code being colored.  A slot keeps the longest array asked of it
   until its domain ends. *)
module Scratch = struct
  type t = { ints : int array array; floats : float array array }

  let key =
    Domain.DLS.new_key (fun () ->
        { ints = Array.make 32 [||]; floats = Array.make 1 [||] })

  let ints k n =
    let s = Domain.DLS.get key in
    let a = s.ints.(k) in
    if Array.length a >= n then a
    else begin
      let a = Array.make (max n (2 * Array.length a)) 0 in
      s.ints.(k) <- a;
      a
    end

  let floats k n =
    let s = Domain.DLS.get key in
    let a = s.floats.(k) in
    if Array.length a >= n then a
    else begin
      let a = Array.make (max n (2 * Array.length a)) 0.0 in
      s.floats.(k) <- a;
      a
    end

  (* slot [k]'s array, at least twice as long as [a], holding the
     first [len] ints of [a] *)
  let grow k a len =
    let a' = ints k ((2 * Array.length a) + 16) in
    Array.blit a 0 a' 0 len;
    a'
end

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

(* The classes of the mnemonics seen so far, in one open-addressing
   table that is never written once published: a new mnemonic is added
   to a copy, swapped in whole, so every domain compiling for the
   backend reads it without a lock.  Emitted mnemonics are shared
   constants, so a probe almost always ends at a slot holding the very
   same string; a fresh copy of a known spelling (the default mover's
   ["mov" ^ suffix]) is found by [String.equal] on the way. *)
type known = { names : string array; classes : int array; count : int }

(* marks a free slot; compared by [==] only *)
let free = String.make 1 '\000'

let known_empty =
  { names = Array.make 64 free; classes = Array.make 64 0; count = 0 }

type mnemonics = {
  mn_ra : Backend.regalloc_info;
  mn_moves : string list;
  mn_is_jump : string -> bool;
  mn_known : known Atomic.t;
}

let mnemonics ~ra ~move_mnemonics ~is_jump =
  { mn_ra = ra; mn_moves = move_mnemonics; mn_is_jump = is_jump;
    mn_known = Atomic.make known_empty }

let is_jump mn = mn.mn_is_jump

(* a mnemonic's length, first and last characters *)
let hash m =
  let n = String.length m in
  if n = 0 then 0
  else
    (((n * 31) + Char.code (String.unsafe_get m 0)) * 31)
    + Char.code (String.unsafe_get m (n - 1))

(* [m] at its free slot of [k], whose arrays are fresh *)
let place k m c =
  let mask = Array.length k.names - 1 in
  let rec go j =
    if k.names.(j) == free then begin
      k.names.(j) <- m;
      k.classes.(j) <- c
    end
    else go ((j + 1) land mask)
  in
  go (hash m land mask)

let with_class k m c =
  let size = Array.length k.names in
  let k' =
    if 2 * (k.count + 1) <= size then
      { names = Array.copy k.names; classes = Array.copy k.classes;
        count = k.count + 1 }
    else begin
      let k' =
        { names = Array.make (2 * size) free; classes = Array.make (2 * size) 0;
          count = k.count + 1 }
      in
      Array.iteri
        (fun j n -> if n != free then place k' n k.classes.(j))
        k.names;
      k'
    end
  in
  place k' m c;
  k'

let class_of mn m =
  let k = Atomic.get mn.mn_known in
  let mask = Array.length k.names - 1 in
  let rec probe j =
    let n = Array.unsafe_get k.names j in
    if n == m then Array.unsafe_get k.classes j
    else if n == free then begin
      let c =
        code_of_kind (mn.mn_ra.Backend.ra_dst m)
        lor if List.mem m mn.mn_moves then move_bit else 0
      in
      (* losing a race to another domain only costs a later miss *)
      ignore (Atomic.compare_and_set mn.mn_known k (with_class k m c));
      c
    end
    else if String.equal n m then Array.unsafe_get k.classes j
    else probe ((j + 1) land mask)
  in
  probe (hash m land mask)

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
  gid : int array;
  glob : int array;
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
   global [g] at bit [g mod 63] of word [1 + g / 63]. *)
let set_global m base g =
  let k = base + 1 + (g / Bits.bits) in
  Array.unsafe_set m k (Array.unsafe_get m k lor (1 lsl (g mod Bits.bits)))

let live_out_mem t b n =
  let base = b * t.stride in
  if n < nphys then t.live_out.(base) land (1 lsl n) <> 0
  else
    let g = t.gid.(n - nphys) in
    g >= 0
    && t.live_out.(base + 1 + (g / Bits.bits)) land (1 lsl (g mod Bits.bits))
       <> 0

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

(* operands in order; the last one is the destination when [dst] is
   not [dst_none] *)
let rec operands ~vbase defs uses dst = function
  | [] -> ()
  | [ Mode.Reg r ] when dst <> dst_none ->
    push defs (node ~vbase r);
    if dst = dst_readwrite then push uses (node ~vbase r)
  | Mode.Reg r :: rest ->
    push uses (node ~vbase r);
    operands ~vbase defs uses dst rest
  | Mode.Mem { Mode.base; index; auto; _ } :: rest ->
    (match base with Some r -> push uses (node ~vbase r) | None -> ());
    (match index with Some r -> push uses (node ~vbase r) | None -> ());
    (match (auto, base) with
    | Some _, Some r -> push defs (node ~vbase r)
    | _ -> ());
    operands ~vbase defs uses dst rest
  | (Mode.Imm _ | Mode.Fimm _) :: rest -> operands ~vbase defs uses dst rest

(* the scratch slots of one [analyze] *)
let s_first = 0
let s_labels = 1
let s_succ = 2
let s_fill = 3
let s_dfs = 4
let s_back = 5
let s_in_loop = 6
let s_seen = 7
let s_glob = 8
let s_exposed = 9
let s_use_phys = 10
let s_def_phys = 11
let s_use_b = 12
let s_def_b = 13
let s_live_in = 14
let s_label_at = 15

(* natural-loop depths from DFS back edges *)
let loop_depths ~succ_off ~succ ~pred_off ~pred depth =
  let n = Array.length depth in
  let color = Scratch.ints s_dfs n in
  Array.fill color 0 n 0;
  (* 0 unvisited, 1 on stack, 2 done; at most one back edge per edge *)
  let back = Scratch.ints s_back (2 * Array.length succ) and nback = ref 0 in
  let rec dfs b =
    color.(b) <- 1;
    for e = succ_off.(b) to succ_off.(b + 1) - 1 do
      let s = succ.(e) in
      if color.(s) = 0 then dfs s
      else if color.(s) = 1 then begin
        back.(!nback) <- b;
        back.(!nback + 1) <- s;
        nback := !nback + 2
      end
    done;
    color.(b) <- 2
  in
  if n > 0 then dfs 0;
  let in_loop = Scratch.ints s_in_loop n in
  for k = 0 to (!nback / 2) - 1 do
    let tail = back.(2 * k) and head = back.((2 * k) + 1) in
    (* the natural loop of tail->head: head plus every block that
       reaches tail without passing through head *)
    Array.fill in_loop 0 n 0;
    in_loop.(head) <- 1;
    let rec add b =
      if in_loop.(b) = 0 then begin
        in_loop.(b) <- 1;
        for e = pred_off.(b) to pred_off.(b + 1) - 1 do
          add pred.(e)
        done
      end
    in
    add tail;
    for b = 0 to n - 1 do
      if in_loop.(b) = 1 then depth.(b) <- depth.(b) + 1
    done
  done

let analyze mn ~vbase ~nvregs (insns : Insn.t array) =
  let n = Array.length insns in
  let nnodes = nphys + nvregs in
  let nv = nvregs in
  (* One pass over the stream: each instruction's class, defs and uses;
     its basic block (a block starts at a label, and after a branch or
     a return); labels as (label, instruction) pairs; and, against the
     block so far, the registers it reads before the block writes them.

     Non-local names.  A virtual register that no block reads before
     writing it is live into no block, hence out of none, so the
     dataflow runs over the registers upward-exposed in some block
     only: the globals, numbered in order of discovery ([gid] maps a
     virtual register to its number, -1 for a local one; [glob] back
     to its node).  Physical registers always take part, as a mask per
     block.  [seen.(v)] is the last block that wrote [v]; an
     upward-exposed use is kept as a (block, global) pair in
     [exposed]. *)
  let cls = Array.make n 0 in
  let def_off = Array.make (n + 1) 0 and use_off = Array.make (n + 1) 0 in
  let defs = { a = Array.make (n + 16) 0; len = 0 } in
  let uses = { a = Array.make ((2 * n) + 16) 0; len = 0 } in
  let block_of = Array.make (max n 1) 0 in
  let first = Scratch.ints s_first n and nb = ref 0 and starts = ref true in
  let labels = Scratch.ints s_labels (2 * n) and nl = ref 0 in
  let use_phys = Scratch.ints s_use_phys n in
  let def_phys = Scratch.ints s_def_phys n in
  let gid = Array.make nv (-1) in
  let seen = Scratch.ints s_seen nv in
  Array.fill seen 0 nv (-1);
  let glob = Scratch.ints s_glob nv and nglob = ref 0 in
  let exposed = { a = Scratch.ints s_exposed 64; len = 0 } in
  for i = 0 to n - 1 do
    let insn = Array.unsafe_get insns i in
    (match insn with Insn.Lab _ -> starts := true | _ -> ());
    if !starts then begin
      first.(!nb) <- i;
      use_phys.(!nb) <- 0;
      def_phys.(!nb) <- 0;
      incr nb;
      starts := false
    end;
    let b = !nb - 1 in
    block_of.(i) <- b;
    def_off.(i) <- defs.len;
    use_off.(i) <- uses.len;
    (match insn with
    | Insn.Insn (m, ops) ->
      let c = class_of mn m in
      cls.(i) <- c;
      operands ~vbase defs uses (c land 3) ops
    | Insn.Call _ ->
      push defs Regconv.r0;
      push defs Regconv.r1
    | Insn.Ret ->
      push uses Regconv.r0;
      starts := true
    | Insn.Branch _ -> starts := true
    | Insn.Lab l ->
      labels.(2 * !nl) <- l;
      labels.((2 * !nl) + 1) <- i;
      incr nl
    | Insn.Comment _ -> ());
    for k = use_off.(i) to uses.len - 1 do
      let nd = Array.unsafe_get uses.a k in
      if nd < nphys then begin
        if def_phys.(b) land (1 lsl nd) = 0 then
          use_phys.(b) <- use_phys.(b) lor (1 lsl nd)
      end
      else
        let v = nd - nphys in
        if seen.(v) <> b then begin
          if gid.(v) < 0 then begin
            gid.(v) <- !nglob;
            glob.(!nglob) <- nd;
            incr nglob
          end;
          if exposed.len + 2 > Array.length exposed.a then
            exposed.a <- Scratch.grow s_exposed exposed.a exposed.len;
          exposed.a.(exposed.len) <- b;
          exposed.a.(exposed.len + 1) <- gid.(v);
          exposed.len <- exposed.len + 2
        end
    done;
    for k = def_off.(i) to defs.len - 1 do
      let nd = Array.unsafe_get defs.a k in
      if nd < nphys then def_phys.(b) <- def_phys.(b) lor (1 lsl nd)
      else seen.(nd - nphys) <- b
    done
  done;
  def_off.(n) <- defs.len;
  use_off.(n) <- uses.len;
  let defs = defs.a and uses = uses.a in
  let nblocks = !nb in
  let blk_first = Array.sub first 0 nblocks in
  let blk_last =
    Array.init nblocks (fun b ->
        if b + 1 < nblocks then first.(b + 1) - 1 else n - 1)
  in
  (* label -> instruction index, -1 for a label outside this stream *)
  let lo = ref max_int and hi = ref min_int in
  for k = 0 to !nl - 1 do
    let l = labels.(2 * k) in
    if l < !lo then lo := l;
    if l > !hi then hi := l
  done;
  let lo = !lo and nlabels = max 0 (!hi - !lo + 1) in
  let label_at = Scratch.ints s_label_at nlabels in
  Array.fill label_at 0 nlabels (-1);
  for k = 0 to !nl - 1 do
    label_at.(labels.(2 * k) - lo) <- labels.((2 * k) + 1)
  done;
  let label_index l =
    if l >= lo && l - lo < nlabels then label_at.(l - lo) else -1
  in
  (* successors: a branch's target first, then the fall-through *)
  let succ_off = Array.make (nblocks + 1) 0 in
  let succ = Scratch.ints s_succ (2 * nblocks) in
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
  let fill = Scratch.ints s_fill nblocks in
  Array.blit pred_off 0 fill 0 nblocks;
  for b = 0 to nblocks - 1 do
    for e = succ_off.(b) to succ_off.(b + 1) - 1 do
      let s = succ.(e) in
      pred.(fill.(s)) <- b;
      fill.(s) <- fill.(s) + 1
    done
  done;
  let depth = Array.make nblocks 0 in
  loop_depths ~succ_off ~succ ~pred_off ~pred depth;
  (* per-block use (upward-exposed) and def rows over the globals, then
     live-in and live-out to a fixpoint, one [stride]-word row per
     block *)
  let stride = 1 + ((!nglob + Bits.bits - 1) / Bits.bits) in
  let rows = nblocks * stride in
  let use_b = Scratch.ints s_use_b rows and def_b = Scratch.ints s_def_b rows in
  Array.fill use_b 0 rows 0;
  Array.fill def_b 0 rows 0;
  for b = 0 to nblocks - 1 do
    use_b.(b * stride) <- use_phys.(b);
    def_b.(b * stride) <- def_phys.(b)
  done;
  if !nglob > 0 then begin
    for k = 0 to (exposed.len / 2) - 1 do
      set_global use_b (exposed.a.(2 * k) * stride) exposed.a.((2 * k) + 1)
    done;
    for b = 0 to nblocks - 1 do
      for k = def_off.(blk_first.(b)) to def_off.(blk_last.(b) + 1) - 1 do
        let nd = Array.unsafe_get defs k in
        if nd >= nphys && gid.(nd - nphys) >= 0 then
          set_global def_b (b * stride) gid.(nd - nphys)
      done
    done
  end;
  let live_out = Array.make rows 0 in
  let live_in = Scratch.ints s_live_in rows in
  Array.fill live_in 0 rows 0;
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
    gid;
    glob = Array.sub glob 0 !nglob;
    stride;
    live_out;
  }

let depth_at t i = t.depth.(t.block_of.(i))
