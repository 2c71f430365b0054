open Import

(* Chaitin/Briggs graph-coloring register allocation over the emitted
   instruction stream of one function.

   The stream arrives referencing virtual registers (allocated by
   {!Regmgr} in virtual mode, numbered from [vinfo.vs_base]).  Each
   round: solve liveness, build the interference graph, coalesce
   register-to-register moves (Briggs conservative test), simplify and
   select against the backend's register bank, and either assign colors
   or rewrite the spilled live ranges through {!Frame} temporaries and
   try again.  Everything is deterministic — arrays, stream order,
   lowest-index tie-breaks — so colored output is byte-identical under
   any [-j].

   A round's work is linear in the instructions plus the interference
   edges: the graph is adjacency rows, a class's neighbours are found
   by walking its members' rows through union-find and stamp arrays,
   and the working arrays come from the domain's {!Liveness.Scratch}
   rather than being allocated per function. *)

type stats = {
  rounds : int;
  coalesced : int;
  self_moves_deleted : int;
  spilled_ranges : int;
  spill_stores : int;
  spill_reloads : int;
}

(* -- backend probing ----------------------------------------------------- *)

(* the mover's register-to-register spellings, one per data type *)
let probe_move_mnemonics move =
  List.filter_map
    (fun ty ->
      match move ty ~src:(Mode.Reg 0) ~dst:(Mode.Reg 1) with
      | [ Insn.Insn (m, [ _; _ ]) ] -> Some m
      | _ -> None)
    Dtype.all
  |> List.sort_uniq compare

(* the unconditional-branch mnemonic, from the backend's jump builder *)
let is_jump_fn (backend : Backend.t) =
  let g = Label.gen () in
  match backend.Backend.jump (Label.fresh g) with
  | Insn.Branch (m, _) -> fun m' -> String.equal m' m
  | _ -> fun _ -> false

(* What the colorer asks of a backend beyond its record: the mover and
   the mnemonic classes (with the jump test), resolved once per
   backend and shared by every function, round and domain. *)
type resolved = {
  rs_backend : Backend.t;
  rs_move : Dtype.t -> src:Mode.t -> dst:Mode.t -> Insn.t list;
  rs_mn : Liveness.mnemonics;
}

(* the backends resolved so far, found by physical equality (a target
   has one backend value) *)
let resolutions : resolved list Atomic.t = Atomic.make []

let rec resolve (backend : Backend.t) =
  let seen = Atomic.get resolutions in
  match List.find_opt (fun r -> r.rs_backend == backend) seen with
  | Some r -> r
  | None ->
    let move = Option.value backend.Backend.move ~default:Regmgr.default_move in
    let r =
      {
        rs_backend = backend;
        rs_move = move;
        rs_mn =
          Liveness.mnemonics ~ra:backend.Backend.regalloc
            ~move_mnemonics:(probe_move_mnemonics move)
            ~is_jump:(is_jump_fn backend);
      }
    in
    if Atomic.compare_and_set resolutions seen (r :: seen) then r
    else resolve backend

(* -- heat input ---------------------------------------------------------- *)

(* Parse the output of [mdgtool heat --json]: any JSON containing
   objects with "id" and "count" number fields.  A hand-rolled scanner
   keeps the dependency footprint at zero. *)
let parse_heat s =
  let n = String.length s in
  let out = ref [] in
  let rec skip_ws i = if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t' || s.[i] = '\r') then skip_ws (i + 1) else i in
  let num i =
    let j = ref i in
    while !j < n && (match s.[!j] with '0' .. '9' | '-' -> true | _ -> false) do incr j done;
    if !j = i then None else Some (int_of_string (String.sub s i (!j - i)), !j)
  in
  let field name i =
    (* at [i] sits '"': match "name" : <int> *)
    let q = "\"" ^ name ^ "\"" in
    let ql = String.length q in
    if i + ql <= n && String.sub s i ql = q then
      let j = skip_ws (i + ql) in
      if j < n && s.[j] = ':' then num (skip_ws (j + 1)) else None
    else None
  in
  let id = ref None in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '{' -> id := None
    | '}' -> id := None
    | '"' -> (
      match field "id" !i with
      | Some (v, j) ->
        id := Some v;
        i := j - 1
      | None -> (
        match field "count" !i with
        | Some (c, j) ->
          (match !id with Some v -> out := (v, c) :: !out | None -> ());
          id := None;
          i := j - 1
        | None -> ()))
    | _ -> ());
    incr i
  done;
  List.rev !out

let load_heat path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_heat (really_input_string ic (in_channel_length ic)))

(* -- the allocator ------------------------------------------------------- *)

let max_rounds = 16

(* [Array.of_list] seeded with an immediate: a long array created with
   a young first element makes the runtime run a minor collection
   first *)
let array_of_list seed l =
  let a = Array.make (List.length l) seed in
  List.iteri (Array.unsafe_set a) l;
  a

module Scratch = Liveness.Scratch

(* the scratch slots of one round *)
let s_parent = 0
let s_mnext = 1
let s_mlast = 2
let s_pre = 3
let s_stamp_a = 4
let s_buf_a = 5
let s_stamp_b = 6
let s_buf_b = 7
let s_state = 8
let s_ncls_off = 9
let s_ncls = 10
let s_avail = 11
let s_deg = 12
let s_reps = 13
let s_heap = 14
let s_stack = 15
let s_color = 16
let s_move_at = 17
let s_weight = 0  (* of the float slots *)

(* the physical register operands, shared by every rewritten stream *)
let reg_modes = Array.init Liveness.nphys (fun p -> Mode.Reg p)

let run ~(backend : Backend.t) ~(bank : int list) ~(frame : Frame.t)
    ~(vinfo : Regmgr.vreg_summary) ~(heat : (int * int) list)
    ~(prov : (int * int list * string) list) (insns0 : Insn.t list) =
  let ra = backend.Backend.regalloc in
  let { rs_move = move; rs_mn = mn; _ } = resolve backend in
  let is_jump = Liveness.is_jump mn in
  let vbase = vinfo.Regmgr.vs_base in
  let have_prov = prov <> [] in
  (* per-vreg metadata, growing by doubling: spill rewriting mints
     fresh temps, and only those may not be spilled *)
  let nv0 = Array.length vinfo.Regmgr.vs_types in
  let nvregs = ref nv0 in
  let types = ref vinfo.Regmgr.vs_types in
  let kinds = ref vinfo.Regmgr.vs_kinds in
  let provs = ref vinfo.Regmgr.vs_prov in
  let add_vreg ty p =
    let k = !nvregs in
    if k = Array.length !types then begin
      let grow a fill =
        let a' = Array.make ((2 * k) + 16) fill in
        Array.blit a 0 a' 0 k;
        a'
      in
      types := grow !types Dtype.Long;
      kinds := grow !kinds Regmgr.Vsingle;
      provs := grow !provs (0, [])
    end;
    (!types).(k) <- ty;
    (!kinds).(k) <- Regmgr.Vsingle;
    (!provs).(k) <- p;
    nvregs := k + 1;
    vbase + k
  in
  let no_prov = (0, [], "") in
  let insns = ref (array_of_list Insn.Ret insns0) in
  let prov_a = ref (array_of_list no_prov prov) in
  let st_coalesced = ref 0 in
  let st_self_moves = ref 0 in
  let st_spilled = ref 0 in
  let st_stores = ref 0 in
  let st_reloads = ref 0 in
  let bank_mask = List.fold_left (fun a p -> a lor (1 lsl p)) 0 bank in
  let bank_a = Array.of_list bank in
  let sorted_bank = Array.of_list (List.sort compare bank) in
  let result = ref None in
  let round = ref 0 in
  while !result = None do
    incr round;
    if !round > max_rounds then
      failwith "register allocator: coloring failed to converge";
    let nv = !nvregs in
    let lv = Liveness.analyze mn ~vbase ~nvregs:nv !insns in
    let g = Interference.build ~heat ~prov:!prov_a lv in
    let kinds = !kinds in
    (* -- coalescing: union-find over virtual-register nodes ------------- *)
    (* Each class's members are a linked list in merge order ([mnext],
       -1 ends it; [mlast] is a representative's last member).  The
       graph itself never changes: a class's neighbours are its
       members' rows read through [find]. *)
    let adj_off = g.Interference.adj_off and adj = g.Interference.adj in
    let parent = Scratch.ints s_parent nv in
    let mnext = Scratch.ints s_mnext nv and mlast = Scratch.ints s_mlast nv in
    for i = 0 to nv - 1 do
      parent.(i) <- i;
      mnext.(i) <- -1;
      mlast.(i) <- i
    done;
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    (* some member of class [a] has a neighbour in class [b] *)
    let interferes_cls a b =
      let rec row m e =
        e < adj_off.(m + 1)
        && (find (Array.unsafe_get adj e) = b || row m (e + 1))
      in
      let rec members m = m >= 0 && (row m adj_off.(m) || members mnext.(m)) in
      members a
    in
    let width r = if kinds.(r) = Regmgr.Vpair_base then 2 else 1 in
    let forbid_cls r =
      let acc = ref 0 and m = ref r in
      while !m >= 0 do
        acc := !acc lor g.Interference.forbid.(!m);
        m := mnext.(!m)
      done;
      !acc
    in
    (* classes coalesced into a physical register (a register variable
       or a call-result register): colored up front, never simplified,
       never spilled.  Their colors sit outside [bank] — the bank
       registers never appear in a virtual-mode stream — so they do not
       shrink anyone's palette, only pin the move ends together. *)
    let pre = Scratch.ints s_pre nv in
    Array.fill pre 0 nv (-1);
    let color_bits r p =
      (1 lsl p) lor (if kinds.(r) = Regmgr.Vpair_base then 1 lsl (p + 1) else 0)
    in
    let class_color_bits c = if pre.(c) < 0 then 0 else color_bits c pre.(c) in
    (* [collect stamp gen buf len r] appends to [buf] from [len] the
       classes of r's neighbours other than r not yet stamped [gen], and
       returns the new length.  Two stamp/buffer pairs, because degrees
       ([_b]) are taken while a neighbour list ([_a]) is being walked. *)
    let collect stamp gen buf len r =
      let len = ref len and m = ref r in
      while !m >= 0 do
        for e = adj_off.(!m) to adj_off.(!m + 1) - 1 do
          let x = Array.unsafe_get adj e in
          let c = if parent.(x) = x then x else find x in
          if c <> r && Array.unsafe_get stamp c <> gen then begin
            Array.unsafe_set stamp c gen;
            Array.unsafe_set buf !len c;
            incr len
          end
        done;
        m := mnext.(!m)
      done;
      !len
    in
    let stamp_a = Scratch.ints s_stamp_a nv and buf_a = Scratch.ints s_buf_a nv
    and stamp_b = Scratch.ints s_stamp_b nv and buf_b = Scratch.ints s_buf_b nv in
    Array.fill stamp_a 0 nv 0;
    Array.fill stamp_b 0 nv 0;
    let gen_a = ref 0 and gen_b = ref 0 in
    let classes_a r =
      incr gen_a;
      collect stamp_a !gen_a buf_a 0 r
    in
    (* forbidden physical registers, including precolored neighbours *)
    let eff_forbid r =
      let n = classes_a r in
      let acc = ref (forbid_cls r) in
      for k = 0 to n - 1 do
        acc := !acc lor class_color_bits buf_a.(k)
      done;
      !acc
    in
    (* usable colors under a forbid mask: singles count free bank regs,
       pairs count disjoint usable rn/rn+1 pairs (so one neighbour color
       of width w kills at most w of them) *)
    let avail_colors r =
      let usable = bank_mask land lnot (forbid_cls r) in
      let k = ref 0 in
      if kinds.(r) = Regmgr.Vpair_base then begin
        let prev = ref (-2) in
        for i = 0 to Array.length sorted_bank - 1 do
          let p = sorted_bank.(i) in
          if p > !prev + 1 && (usable lsr p) land 3 = 3 then begin
            incr k;
            prev := p
          end
        done
      end
      else begin
        (* one per set bit *)
        let x = ref usable in
        while !x <> 0 do
          x := !x land (!x - 1);
          incr k
        done
      end;
      !k
    in
    (* precolored neighbours hold colors outside the bank: they pin
       registers but never shrink a node's palette *)
    let deg_of r =
      incr gen_b;
      let n = collect stamp_b !gen_b buf_b 0 r in
      let d = ref 0 in
      for k = 0 to n - 1 do
        let c = buf_b.(k) in
        if pre.(c) < 0 then d := !d + width c
      done;
      !d
    in
    let briggs_ok a b =
      let k =
        (* conservative: colors available to the merged class *)
        min (avail_colors a) (avail_colors b)
      in
      incr gen_a;
      let n = collect stamp_a !gen_a buf_a 0 a in
      let n = collect stamp_a !gen_a buf_a n b in
      let significant = ref 0 in
      for i = 0 to n - 1 do
        let c = buf_a.(i) in
        if c = a || c = b || pre.(c) >= 0 then ()
        else if deg_of c >= avail_colors c then
          significant := !significant + width c
      done;
      !significant + width a - 1 < k
    in
    let merge a b =
      let keep = min a b and lose = max a b in
      parent.(lose) <- keep;
      mnext.(mlast.(keep)) <- lose;
      mlast.(keep) <- mlast.(lose);
      pre.(keep) <- max pre.(keep) pre.(lose)
    in
    (* precoloring class [v] to physical [p] is safe when they do not
       interfere; when [p] lies inside the bank (it never does today)
       the George test additionally protects v's neighbours *)
    let precolor_ok v pm =
      eff_forbid v land pm = 0
      && (pm land bank_mask = 0
         ||
         let n = classes_a v in
         let rec all i =
           i >= n
           ||
           let c = buf_a.(i) in
           (pre.(c) >= 0 || forbid_cls c land pm <> 0 || deg_of c < avail_colors c)
           && all (i + 1)
         in
         all 0)
    in
    let moves = g.Interference.moves in
    for k = 0 to Interference.nmoves g - 1 do
      let ns = moves.((3 * k) + 1) and nd = moves.((3 * k) + 2) in
      let virt n = n >= Liveness.nphys in
      match (virt ns, virt nd) with
      | true, true ->
        let a = find (ns - Liveness.nphys) and b = find (nd - Liveness.nphys) in
        let pre_compat () =
          if pre.(a) >= 0 && pre.(b) >= 0 then pre.(a) = pre.(b)
          else if pre.(a) >= 0 then eff_forbid b land color_bits a pre.(a) = 0
          else if pre.(b) >= 0 then eff_forbid a land color_bits b pre.(b) = 0
          else true
        in
        if
          a <> b
          && kinds.(a) = kinds.(b)
          && pre_compat ()
          && (not (interferes_cls a b))
          && briggs_ok a b
        then begin
          merge a b;
          incr st_coalesced
        end
      | true, false | false, true ->
        let v = find ((if virt ns then ns else nd) - Liveness.nphys) in
        let p = if virt ns then nd else ns in
        let pm = color_bits v p in
        if
          pre.(v) < 0
          && (kinds.(v) <> Regmgr.Vpair_base || p + 1 < Liveness.nphys)
          && precolor_ok v pm
        then begin
          pre.(v) <- p;
          incr st_coalesced
        end
      | false, false -> ()
    done;
    (* -- simplify ------------------------------------------------------- *)
    (* The class graph is fixed from here on, so each representative's
       neighbour classes (compressed rows [ncls_off]/[ncls]), palette
       size and spill cost are computed once.  Its active degree (the
       widths of its neighbours still in the graph; precolored ones
       never take a bank register away) is kept up to date as classes
       are removed.  [state] says where a class stands: [low] ones have a
       degree below their palette size. *)
    let out = 0 and high = 1 and low = 2 and gone = 3 in
    let state = Scratch.ints s_state nv in
    (* The low classes are taken lowest-numbered first.  Most are low
       from the start and come in ascending order, so a scan over
       [reps] finds them; one that turns low behind the scan (its
       number below the scan's) waits in a binary min-heap instead. *)
    let reps = Scratch.ints s_reps nv and nreps = ref 0 and next = ref 0 in
    let heap = Scratch.ints s_heap nv and hn = ref 0 in
    let make_low r =
      state.(r) <- low;
      if !next < !nreps && r >= reps.(!next) then ()
      else begin
        let i = ref !hn in
        incr hn;
        while !i > 0 && heap.((!i - 1) / 2) > r do
          heap.(!i) <- heap.((!i - 1) / 2);
          i := (!i - 1) / 2
        done;
        heap.(!i) <- r
      end
    in
    let pop () =
      let top = heap.(0) in
      decr hn;
      let x = heap.(!hn) and i = ref 0 and sifting = ref true in
      while !sifting do
        let c = (2 * !i) + 1 in
        let c = if c + 1 < !hn && heap.(c + 1) < heap.(c) then c + 1 else c in
        if c < !hn && heap.(c) < x then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
      done;
      heap.(!i) <- x;
      top
    in
    (* the lowest-numbered low class, or -1 if there is none *)
    let lowest () =
      while !next < !nreps && state.(reps.(!next)) <> low do
        incr next
      done;
      if !hn > 0 && (!next >= !nreps || heap.(0) < reps.(!next)) then pop ()
      else if !next < !nreps then begin
        incr next;
        reps.(!next - 1)
      end
      else -1
    in
    (* a class's neighbour classes are at most its members' neighbours *)
    let ncls_off = Scratch.ints s_ncls_off (nv + 1) in
    let ncls = Scratch.ints s_ncls adj_off.(nv) and nn = ref 0 in
    let avail = Scratch.ints s_avail nv and deg = Scratch.ints s_deg nv in
    let weight = Scratch.floats s_weight nv in
    for r = 0 to nv - 1 do
      ncls_off.(r) <- !nn;
      if find r = r && kinds.(r) <> Regmgr.Vpair_second && pre.(r) < 0
      then begin
        state.(r) <- high;
        reps.(!nreps) <- r;
        incr nreps;
        incr gen_a;
        nn := collect stamp_a !gen_a ncls !nn r;
        avail.(r) <- avail_colors r;
        deg.(r) <- 0;
        for e = ncls_off.(r) to !nn - 1 do
          let c = ncls.(e) in
          if pre.(c) < 0 then deg.(r) <- deg.(r) + width c
        done;
        (* members in merge order: the float sum is order-sensitive *)
        let sum = ref 0.0 and m = ref r in
        while !m >= 0 do
          if !m >= nv0 then sum := infinity
          else if !sum <> infinity then
            sum := !sum +. g.Interference.weight.(!m);
          m := mnext.(!m)
        done;
        weight.(r) <- !sum;
        if deg.(r) < avail.(r) then make_low r
      end
      else state.(r) <- out
    done;
    ncls_off.(nv) <- !nn;
    let remaining = !nreps in
    (* removal order; select pops from the top *)
    let stack = Scratch.ints s_stack remaining and sp = ref 0 in
    let remove r =
      state.(r) <- gone;
      stack.(!sp) <- r;
      incr sp;
      for e = ncls_off.(r) to ncls_off.(r + 1) - 1 do
        let c = ncls.(e) in
        if state.(c) = high || state.(c) = low then begin
          deg.(c) <- deg.(c) - width r;
          if state.(c) = high && deg.(c) < avail.(c) then make_low c
        end
      done
    in
    while !sp < remaining do
      let r = lowest () in
      if r >= 0 then remove r
      else begin
        (* potential spill: cheapest cost per unit of pressure relieved,
           lowest index on ties *)
        let best = ref (-1) and best_p = ref infinity in
        for j = 0 to remaining - 1 do
          let r = reps.(j) in
          if state.(r) <> gone then begin
            let p = weight.(r) /. float_of_int (1 + deg.(r)) in
            if !best < 0 || p < !best_p then begin
              best := r;
              best_p := p
            end
          end
        done;
        remove !best
      end
    done;
    (* -- select --------------------------------------------------------- *)
    let color = Scratch.ints s_color nv in
    for i = 0 to nv - 1 do
      color.(i) <- (if pre.(i) >= 0 && find i = i then pre.(i) else -1)
    done;
    let spills = ref [] in
    for s = !sp - 1 downto 0 do
      let r = stack.(s) in
      let used = ref (forbid_cls r) in
      for e = ncls_off.(r) to ncls_off.(r + 1) - 1 do
        let c = ncls.(e) in
        if color.(c) >= 0 then begin
          used := !used lor (1 lsl color.(c));
          if kinds.(c) = Regmgr.Vpair_base then
            used := !used lor (1 lsl (color.(c) + 1))
        end
      done;
      (* the first fitting register in bank order *)
      let need =
        if kinds.(r) = Regmgr.Vpair_base then 3 else 1
      in
      let pick = ref (-1) and j = ref 0 in
      while !pick < 0 && !j < Array.length bank_a do
        let p = bank_a.(!j) in
        if
          (need = 1 || bank_mask land (1 lsl (p + 1)) <> 0)
          && !used land (need lsl p) = 0
        then pick := p;
        incr j
      done;
      if !pick >= 0 then color.(r) <- !pick else spills := r :: !spills
    done;
    let spills = List.sort compare !spills in
    if spills = [] then begin
      (* -- assign and clean up ------------------------------------------ *)
      (* every virtual register goes through here, so none survives
         assignment *)
      let map_reg r =
        let p = color.(find (r - vbase)) in
        assert (p >= 0 && p < vbase);
        p
      in
      (* operands without a virtual register are kept as they are *)
      let map_mode (o : Mode.t) =
        match o with
        | Mode.Reg r when r >= vbase -> reg_modes.(map_reg r)
        | Mode.Mem m ->
          let virt = function Some r -> r >= vbase | None -> false in
          if virt m.Mode.base || virt m.Mode.index then
            let sub = function
              | Some r when r >= vbase -> Some (map_reg r)
              | part -> part
            in
            Mode.Mem { m with Mode.base = sub m.Mode.base; index = sub m.Mode.index }
          else o
        | Mode.Reg _ | Mode.Imm _ | Mode.Fimm _ -> o
      in
      let insns = !insns in
      let n = Array.length insns in
      let move_at = Scratch.ints s_move_at n in
      Array.fill move_at 0 n 0;
      for k = 0 to Interference.nmoves g - 1 do
        move_at.(moves.(3 * k)) <- 1
      done;
      (* deleting a now-redundant register self-move is unsafe only if
         the next instruction is a conditional branch reading the
         condition codes the move would have set *)
      let rec cc_needed j =
        j < n
        &&
        match insns.(j) with
        | Insn.Comment _ -> cc_needed (j + 1)
        | Insn.Branch (m, _) -> not (is_jump m)
        | _ -> false
      in
      (* built from the end, so no list is reversed *)
      let out = ref [] and outp = ref [] in
      for i = n - 1 downto 0 do
        let keep insn' =
          out := insn' :: !out;
          if have_prov then outp := (!prov_a).(i) :: !outp
        in
        match insns.(i) with
        | Insn.Insn (m, ops) ->
          let ops' = List.map map_mode ops in
          let self_move =
            move_at.(i) = 1
            &&
            match ops' with
            | [ Mode.Reg a; Mode.Reg b ] -> a = b
            | _ -> false
          in
          if self_move && not (cc_needed (i + 1)) then incr st_self_moves
          else keep (Insn.Insn (m, ops'))
        | insn -> keep insn
      done;
      result := Some (!out, !outp)
    end
    else begin
      (* -- spill rewrite ------------------------------------------------ *)
      st_spilled := !st_spilled + List.length spills;
      let slot_of = Hashtbl.create 8 in
      List.iter
        (fun r ->
          let ty =
            let rec widest m acc =
              if m < 0 then acc
              else
                widest mnext.(m)
                  (if Dtype.size (!types).(m) > Dtype.size acc then (!types).(m)
                   else acc)
            in
            widest r (!types).(r)
          in
          Hashtbl.replace slot_of r (Frame.alloc_virtual frame ty, ty))
        spills;
      let spilled r =
        if r >= vbase then Hashtbl.find_opt slot_of (find (r - vbase)) |> Option.map (fun s -> (find (r - vbase), s))
        else None
      in
      let out = ref [] and outp = ref [] in
      let push ?p insn =
        out := insn :: !out;
        if have_prov then
          outp :=
            (match p with Some e -> e | None -> no_prov) :: !outp
      in
      Array.iteri
        (fun i insn ->
          let orig_p = if have_prov then (!prov_a).(i) else no_prov in
          match insn with
          | Insn.Insn (m, ops) ->
            let n = List.length ops in
            let kind = Liveness.dst_kind lv i in
            (* fresh temps for this instruction, one per spilled class *)
            let rmap = ref [] in
            let mark_of rep suffix =
              let line, pids = (!provs).(rep) in
              (line, pids, suffix)
            in
            let reload rep (slot, ty) =
              match List.assoc_opt rep !rmap with
              | Some v -> v
              | None ->
                let v = add_vreg ty (!provs).(rep) in
                incr st_reloads;
                List.iter
                  (fun mi -> push ~p:(mark_of rep "reload") mi)
                  (move ty ~src:slot ~dst:(Mode.Reg v));
                rmap := (rep, v) :: !rmap;
                v
            in
            let stores = ref [] in
            let store_after rep (slot, ty) v =
              stores := (rep, slot, ty, v) :: !stores
            in
            let in_place = ra.Backend.ra_spill_in_place in
            let ops' =
              List.mapi
                (fun idx o ->
                  let is_dst = idx = n - 1 && kind <> Backend.Dst_none in
                  match o with
                  | Mode.Reg r -> (
                    match spilled r with
                    | None -> o
                    | Some (rep, (slot, ty)) ->
                      if in_place then slot
                      else if is_dst && kind = Backend.Dst_write then begin
                        (* rename the definition, store it afterwards *)
                        let v = add_vreg ty (!provs).(rep) in
                        store_after rep (slot, ty) v;
                        Mode.Reg v
                      end
                      else Mode.Reg (reload rep (slot, ty)))
                  | Mode.Mem mm ->
                    (* address registers must be reloaded on any target *)
                    let sub part =
                      match part with
                      | Some r -> (
                        match spilled r with
                        | None -> part
                        | Some (rep, s) -> Some (reload rep s))
                      | None -> None
                    in
                    let base' = sub mm.Mode.base in
                    (match (mm.Mode.auto, mm.Mode.base, base') with
                    | Some _, Some b, Some b' when b <> b' ->
                      (* side-effecting base: write the bumped value back *)
                      (match spilled b with
                      | Some (rep, (slot, ty)) -> store_after rep (slot, ty) b'
                      | None -> ())
                    | _ -> ());
                    Mode.Mem { mm with Mode.base = base'; index = sub mm.Mode.index }
                  | Mode.Imm _ | Mode.Fimm _ -> o)
                ops
            in
            push ~p:orig_p (Insn.Insn (m, ops'));
            List.iter
              (fun (rep, slot, ty, v) ->
                incr st_stores;
                List.iter
                  (fun mi -> push ~p:(mark_of rep "spill") mi)
                  (move ty ~src:(Mode.Reg v) ~dst:slot))
              (List.rev !stores)
          | _ -> push ~p:orig_p insn)
        !insns;
      insns := array_of_list Insn.Ret (List.rev !out);
      prov_a := array_of_list no_prov (List.rev !outp)
    end
  done;
  let insns', prov' = Option.get !result in
  if !Metrics.enabled then begin
    if !st_spilled > 0 then
      Metrics.incr ~by:!st_spilled "codegen.spills_total";
    if !st_reloads > 0 then
      Metrics.incr ~by:!st_reloads "codegen.reloads_total"
  end;
  ( insns',
    prov',
    {
      rounds = !round;
      coalesced = !st_coalesced;
      self_moves_deleted = !st_self_moves;
      spilled_ranges = !st_spilled;
      spill_stores = !st_stores;
      spill_reloads = !st_reloads;
    } )
