(* The serve-mixed workload: the real ggccd in its own process, driven
   in a closed loop over one connection per core, the way `make -jN`
   drives `ggcc --server`.  Each connection sends its next request only
   once the previous one is answered.

   The seeded mix is mostly VAX stack requests, a share of RISC+color
   requests, a small share of pcc-backend requests and a small share of
   deliberately malformed sources that must come back as their typed
   error. *)

open Common
module Backend = Gg_codegen.Backend
module Driver = Gg_codegen.Driver
module Targets = Gg_targets.Targets
module Pcc = Gg_pcc.Pcc
module Sema = Gg_frontc.Sema
module Parser = Gg_frontc.Parser
module Lexer = Gg_frontc.Lexer
module Corpus = Gg_frontc.Corpus
module Tree = Gg_ir.Tree
module Interp = Gg_ir.Interp
module Simout = Gg_ir.Simout
module Protocol = Gg_server.Protocol
module Client = Gg_server.Client
module Trace = Gg_profile.Trace
module Profile = Gg_profile.Profile
module Json = Gg_profile.Json

type kind = Vax_stack | Risc_color | Pcc_vax | Malformed of Protocol.error_kind

let kind_name = function
  | Vax_stack -> "gg/vax/stack"
  | Risc_color -> "gg/risc/color"
  | Pcc_vax -> "pcc/vax"
  | Malformed k -> Fmt.str "malformed(%a)" Protocol.pp_error_kind k

(* Percent shares of the pool; the requests draw from it uniformly.  No
   record of real ggccd or `make -j` traffic exists, so the shares, the
   pool's size and its program shapes are assumptions that stand in for
   a qualitative mix: mostly VAX stack, a share of RISC+color, a small
   share of pcc and of malformed sources.  The shapes are a little smaller
   than compile-vax's (1-8 functions x 2-20 statements), since the
   per-request cost this workload is about matters most on small
   sources. *)
let mix =
  [
    (Vax_stack, 70); (Risc_color, 15); (Pcc_vax, 8);
    (Malformed Protocol.Parse, 7);
  ]
let pool_size = 160
let pool_functions = (1, 6)
let pool_stmts = (2, 16)
(* a set-up spawns a process, and the spread of spawn times within one
   run is about 2x; 25 of them cost half a second and steady the
   faster-half median that setup_s reports *)
let setup_repeats = 25
let warmup_s = 1.

type entry = {
  kind : kind;
  source : string;
  expect : Protocol.response;  (** the direct compile's answer *)
  request : string -> Protocol.request;  (** by request id *)
}

(* -- the pool --------------------------------------------------------- *)

(* Malformed sources rotate over the three frontend error classes, each
   made from a well-formed program so the request size is realistic. *)
let malform i src =
  match i mod 3 with
  | 0 -> (Protocol.Lex, "@" ^ src)
  | 1 -> (Protocol.Parse, src ^ "int broken( {\n")
  | _ -> (Protocol.Semantic, src ^ "int broken() { return no_such_name; }\n")

(* the [i]-th pool entry's kind: a fixed low-discrepancy walk over the
   shares, so every seed's pool has the same mix *)
let kind_of i =
  let r = i * 37 mod 100 in
  let rec go acc = function
    | [ (k, _) ] -> k
    | (k, share) :: rest -> if r < acc + share then k else go (acc + share) rest
    | [] -> assert false
  in
  go 0 mix

let frontend_kind src =
  match Sema.compile src with
  | _ -> None
  | exception Lexer.Lex_error _ -> Some Protocol.Lex
  | exception Parser.Parse_error _ -> Some Protocol.Parse
  | exception Sema.Semantic_error _ -> Some Protocol.Semantic

(* (simulator outcome, interpreter steps) of every compiled pool program *)
let runs : (Simout.t * int) list ref = ref []

let simulate ~target ~(tree : Tree.program) ~what asm =
  let reference =
    Interp.run ~max_steps:Compile_run.max_steps tree ~entry:"main" []
  in
  Compile_run.simulate ~target ~tree ~reference ~what:(lazy what) asm
  |> Option.iter (fun sim -> runs := (sim, reference.Interp.steps) :: !runs)

(* Every pool entry is compiled directly once, untimed: that answer is
   what every served response must equal byte for byte, and compiled
   entries are simulated against the interpreter. *)
let pool ~seed ~vax ~risc =
  let st = Random.State.make [| 0x5e77e; seed |] in
  let bytes = ref 0 and trees = ref 0 in
  let entries =
    Array.init pool_size (fun i ->
        let kind = kind_of i in
        let functions, stmts =
          Compile_run.shape ~n:pool_size i pool_functions pool_stmts
        in
        let pseed = Random.State.bits st in
        let source =
          Corpus.random_source ~seed:pseed ~functions ~stmts_per_function:stmts
        in
        let what = Fmt.str "pool %d (%s, seed %d)" i (kind_name kind) pseed in
        let served ~target tree asm request =
          simulate ~target ~tree ~what asm;
          bytes := !bytes + String.length asm;
          trees := !trees + Compile_run.count_trees tree;
          (Protocol.Asm asm, request)
        in
        let gg ~target ~regalloc tables =
          let tree = Sema.compile source in
          let options = { Driver.default_options with Driver.regalloc } in
          served ~target tree
            (Driver.compile_program ~options ~tables tree).Driver.assembly
            (fun id -> Protocol.request ~request_id:id ~target ~regalloc source)
        in
        let kind, source, (expect, request) =
          match kind with
          | Vax_stack ->
            (kind, source, gg ~target:Backend.Vax ~regalloc:Driver.Stack vax)
          | Risc_color ->
            (kind, source, gg ~target:Backend.Risc ~regalloc:Driver.Color risc)
          | Pcc_vax ->
            let tree = Sema.compile source in
            ( kind,
              source,
              served ~target:Backend.Vax tree
                (Pcc.compile_program tree).Pcc.assembly (fun id ->
                  Protocol.request ~request_id:id ~backend:Protocol.Pcc source)
            )
          | Malformed _ ->
            let k, bad = malform i source in
            check (frontend_kind bad = Some k)
              (lazy (what ^ ": the malformed source is not the expected error"));
            ( Malformed k,
              bad,
              ( Protocol.Error (k, ""),
                fun id -> Protocol.request ~request_id:id bad ) )
        in
        { kind; source; expect; request })
  in
  (entries, !bytes, !trees)

let correct e resp =
  match (e.expect, resp) with
  | Protocol.Asm want, Protocol.Asm got -> String.equal want got
  | Protocol.Error (k, _), Protocol.Error (k', _) -> k = k'
  | _ -> false

(* The paper's second-pass comparison over the pool's well-formed
   programs, in this process, paired and alternating as on the compile
   workloads: one discarded warm-up pass, then five timed ones. *)
let gg_pcc_ratio ~vax entries =
  let trees =
    Array.of_list
      (List.filter_map
         (fun e ->
           match e.kind with
           | Malformed _ -> None
           | _ -> Some (Sema.compile e.source))
         (Array.to_list entries))
  in
  let pairs = Array.make (Array.length trees) [] in
  for pass = 0 to 5 do
    Gc.compact ();
    Array.iteri
      (fun i tree ->
        let t_gg, t_pcc, _ =
          Compile_run.paired ~options:Driver.default_options ~tables:vax
            ~pcc_first:((i + pass) land 1 = 1) tree
        in
        if pass > 0 then pairs.(i) <- (t_gg, t_pcc) :: pairs.(i))
      trees
  done;
  Stats.paired_ratio_median pairs

(* PCC's Phase 1 records under the driver's "phase1.transform" name, so
   ggccd's transform phase holds both backends' Phase 1.  The share of
   PCC's transform-plus-select time that is its Phase 1 is measured here,
   in process, over the pool's pcc entries (one discarded pass, then
   three), and that share of ggccd's PCC time is moved from transform to
   pcc. *)
let pcc_transform_share entries =
  let trees =
    List.filter_map
      (fun e ->
        match e.kind with Pcc_vax -> Some (Sema.compile e.source) | _ -> None)
      (Array.to_list entries)
  in
  let compile () =
    List.iter (fun t -> ignore (Pcc.compile_program t : Pcc.output)) trees
  in
  compile ();
  Profile.reset ();
  Profile.enabled := true;
  for _ = 1 to 3 do
    compile ()
  done;
  Profile.enabled := false;
  let transform = Profile.seconds "phase1.transform"
  and select = Profile.seconds "pcc.select" in
  Profile.reset ();
  if transform +. select <= 0. then die "pcc_transform_share: no pcc time";
  transform /. (transform +. select)

(* -- the daemon ----------------------------------------------------------- *)

type daemon = { pid : int; socket : string; admin : string; log : string }

let live : daemon option ref = ref None

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid : int * Unix.process_status)
   with Unix.Unix_error _ -> ());
  live := None

let spawn ~cache =
  let dir = fresh_dir "d" in
  let d =
    {
      pid = 0;
      socket = Filename.concat dir "s";
      admin = Filename.concat dir "a";
      log = Filename.concat dir "log";
    }
  in
  let env =
    Array.append
      [| "GGCG_CACHE_DIR=" ^ cache |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"GGCG_CACHE_DIR=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile (Filename.concat dir "stderr")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process_env ggccd
      [| ggccd; "--socket"; d.socket; "--admin-socket"; d.admin; "--log"; d.log |]
      env null null err
  in
  Unix.close null;
  Unix.close err;
  let d = { d with pid } in
  live := Some d;
  let deadline = now () +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid ->
      live := None;
      die "ggccd exited during start-up: %s"
        (read_file (Filename.concat dir "stderr"))
    | _ ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let up =
        match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      Unix.close fd;
      if not up then begin
        if now () > deadline then die "ggccd did not come up within 60 s";
        Unix.sleepf 0.0002;
        wait ()
      end
  in
  wait ();
  d

let admin_stats d =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX d.admin);
  ignore (Unix.write_substring fd "stats\n" 0 6 : int);
  let b = Buffer.create 8192 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
  in
  go ();
  Json.parse (Buffer.contents b)

let phase_seconds stats name =
  match Option.bind (Json.member "phases" stats) Json.to_list with
  | None -> 0.
  | Some ps ->
    List.fold_left
      (fun acc p ->
        match
          ( Option.bind (Json.member "name" p) Json.to_str,
            Option.bind (Json.member "seconds" p) Json.to_float )
        with
        | Some n, Some s when n = name -> acc +. s
        | _ -> acc)
      0. ps

let stat_counter stats name =
  match Option.bind (Json.member "counters" stats) (Json.member name) with
  | Some v -> Option.value ~default:0 (Json.to_int v)
  | None -> 0

let cpu_s d =
  match Stats.cpu_ticks (read_file (Fmt.str "/proc/%d/stat" d.pid)) with
  | Some t -> float_of_int t /. 100. (* USER_HZ *)
  | None -> die "cannot read ggccd's CPU time"

(* -- the closed loop ------------------------------------------------------ *)

type result = {
  id : string;
  entry : int;
  rtt : float;  (** seconds, send to answer *)
  done_at : float;  (** seconds into the loop when answered *)
  ok : bool;
}

let retries = Atomic.make 0

(* [conns] connections for [secs] seconds; each is its own domain, so
   client trace spans land in per-connection tracks *)
let closed_loop (a : args) d entries ~tag ~secs =
  let conns = Domain.recommended_domain_count () in
  let deadline = now () +. secs in
  let t0 = now () in
  let doms =
    List.init conns (fun c ->
        Domain.spawn (fun () ->
            let st = Random.State.make [| a.seed; c; Hashtbl.hash tag |] in
            let rec go n acc =
              if now () >= deadline then acc
              else begin
                let i = Random.State.int st (Array.length entries) in
                let e = entries.(i) in
                let id = Fmt.str "%s-%d-%d" tag c n in
                let req = e.request id in
                let t = now () in
                let resp =
                  try
                    Client.compile
                      ~on_retry:(fun ~attempt:_ ~wait_ms:_ -> Atomic.incr retries)
                      ~socket:d.socket req
                  with Client.Server_error m ->
                    Protocol.Error (Protocol.Internal, m)
                in
                let t' = now () in
                go (n + 1)
                  ({ id; entry = i; rtt = t' -. t; done_at = t' -. t0;
                     ok = correct e resp } :: acc)
              end
            in
            go 0 []))
  in
  let rs = List.concat_map Domain.join doms in
  (rs, now () -. t0)

let account entries rs =
  List.iter
    (fun r ->
      check r.ok
        (lazy
          (Fmt.str "request %s (%s) was not answered with the direct compile's \
                    result"
             r.id (kind_name entries.(r.entry).kind))))
    rs

(* -- per-request server records from the daemon's log --------------------- *)

let log_records d =
  let tbl = Hashtbl.create 4096 in
  String.split_on_char '\n' (read_file d.log)
  |> List.iter (fun line ->
         if line <> "" then
           match Json.parse line with
           | j -> (
             match
               ( Option.bind (Json.member "request_id" j) Json.to_str,
                 Option.bind (Json.member "queue_wait_us" j) Json.to_float,
                 Option.bind (Json.member "latency_us" j) Json.to_float )
             with
             | Some id, Some q, Some l ->
               Hashtbl.replace tbl id (q /. 1e3, l /. 1e3)
             | _ -> ())
           | exception Json.Parse_error _ -> ());
  tbl

(* -- the run -------------------------------------------------------------- *)

let layer_lines =
  [
    ("client", "stressed: a connect, a framed write and an await per request");
    ("server", "stressed: accept, queue hand-off, worker, log line, write");
    ("frontc", "stressed inside ggccd: every request parses and lowers");
    ("match", "stressed inside ggccd on gg requests; bypassed by pcc/errors");
    ("regalloc", "stressed inside ggccd on the RISC+color share only");
    ("pcc", "stressed inside ggccd on the pcc share");
    ("tablegen", "set-up only: warm cache loads, RISC lazily on first use");
    ("specialize", "bypassed: ggccd serves plain packed tables");
    ("sim", "untimed: correctness and sim_cycles of the pool");
  ]

let run (a : args) =
  let cache = fresh_dir "cache" in
  (* no daemon outlives the run, whatever way it ends; registered after
     the run directory's own clean-up, so it runs before it *)
  at_exit (fun () ->
      Option.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] d.pid : int * Unix.process_status)
          with Unix.Unix_error _ -> ())
        !live);
  (* a warm cache for both targets; ggccd loads from it *)
  let tables target =
    Targets.cached_tables ~dir:cache target Driver.default_options.Driver.grammar
  in
  let vax = tables Backend.Vax and risc = tables Backend.Risc in
  let entries, asm_bytes, trees = pool ~seed:a.seed ~vax ~risc in
  let conns = Domain.recommended_domain_count () in
  say "workload serve-mixed: seed %d, closed loop over %d connections, ggccd \
       default workers, warm cache"
    a.seed conns;
  let share k =
    Array.fold_left (fun acc e -> if e.kind = k then acc + 1 else acc) 0 entries
  in
  let shapes =
    List.init pool_size (fun i ->
        Compile_run.shape ~n:pool_size i pool_functions pool_stmts)
  in
  say "  pool %d programs, functions %d (%d-%d each), statements %d (%d-%d per \
       function), source %.1f KB; mix %s"
    (Array.length entries)
    (List.fold_left (fun acc (f, _) -> acc + f) 0 shapes)
    (fst pool_functions) (snd pool_functions)
    (List.fold_left (fun acc (f, st) -> acc + (f * st)) 0 shapes)
    (fst pool_stmts) (snd pool_stmts)
    (float_of_int
       (Array.fold_left (fun acc e -> acc + String.length e.source) 0 entries)
    /. 1024.)
    (String.concat ", "
       (List.map
          (fun k -> Fmt.str "%s %d" (kind_name k) (share k))
          [ Vax_stack; Risc_color; Pcc_vax; Malformed Protocol.Lex;
            Malformed Protocol.Parse; Malformed Protocol.Semantic ]));
  List.iter (fun (l, why) -> say "  layer %-14s %s" l why) layer_lines;
  let ratio = if a.trace then 0. else gg_pcc_ratio ~vax entries in
  (* set-up: spawn against the warm cache, then one warm-up request per
     (backend, target, regalloc) in the mix; the last daemon serves *)
  let firsts =
    List.map
      (fun (k, _) ->
        let same e =
          match (e.kind, k) with
          | Malformed _, Malformed _ -> true
          | k', k -> k' = k
        in
        let rec find i = if same entries.(i) then i else find (i + 1) in
        find 0)
      mix
  in
  let setup () =
    let t0 = now () in
    let d = spawn ~cache in
    List.iter
      (fun i ->
        let e = entries.(i) in
        let resp =
          Client.compile ~socket:d.socket (e.request (Fmt.str "setup-%d" i))
        in
        check (correct e resp)
          (lazy (Fmt.str "set-up request for %s" (kind_name e.kind))))
      firsts;
    (now () -. t0, d)
  in
  (* every daemon but the last is stopped again *)
  let times, d =
    let rec go k acc =
      let t, dk = setup () in
      if k = setup_repeats then (t :: acc, dk)
      else begin
        stop dk;
        go (k + 1) (t :: acc)
      end
    in
    go 1 []
  in
  say "set-up: %s s"
    (String.concat " " (List.rev_map (fun t -> Fmt.str "%.4f" t) times));
  let load_ms = phase_seconds (admin_stats d) "tables.load" *. 1e3 in
  (* a discarded warm-up slice: worker domains and allocators settle *)
  let warm, _ = closed_loop a d entries ~tag:"w" ~secs:warmup_s in
  account entries warm;
  let good rs = float_of_int (List.length (List.filter (fun r -> r.ok) rs)) in
  (* The loop is cut into stretches that each delivered the same number
     of correct responses (about 25 a run).  The medians and the source
     rate keep the faster half of them (Stats.faster_half), as the compile
     workloads keep the faster half of their passes; the tail percentiles
     and goodput see the whole loop, so a stall anywhere in it shows. *)
  let kept_stretches rs =
    let ok =
      Array.of_list
        (List.sort compare
           (List.filter_map (fun r -> if r.ok then Some r.done_at else None) rs))
    in
    let chunk = max 20 (Array.length ok / 25) in
    let rec cut i start acc =
      if i + chunk > Array.length ok then acc
      else
        let stop = ok.(i + chunk - 1) in
        cut (i + chunk) stop (((start, stop), stop -. start) :: acc)
    in
    Stats.faster_half (cut 0 0. [])
  in
  if not a.trace then begin
    let all, wall = closed_loop a d entries ~tag:"m" ~secs:a.seconds in
    account entries all;
    let kept = kept_stretches all in
    let within (a, b) r = r.done_at > a && r.done_at <= b in
    let rs = List.filter (fun r -> List.exists (fun k -> within k r) kept) all in
    (* every kept stretch delivered the same number of correct responses *)
    let rate weight =
      Stats.median
        (Array.of_list
           (List.map
              (fun ((a, b) as k) ->
                List.fold_left
                  (fun acc r ->
                    if r.ok && within k r then acc +. weight r else acc)
                  0. all
                /. (b -. a))
              kept))
    in
    let rss = peak_rss_mb (string_of_int d.pid) in
    stop d;
    say "timed: %d requests in %.2f s, %d retries; p50 and src_kb_per_s: \
         the faster %d stretches, %d requests; p99 and goodput: all of them"
      (List.length all) wall (Atomic.get retries) (List.length kept)
      (List.length rs);
    let ms_of rs sel =
      Array.of_list
        (List.filter_map
           (fun r -> if sel r then Some (r.rtt *. 1e3) else None)
           rs)
    in
    let ms = ms_of rs and ms_all = ms_of all in
    let gg r =
      r.ok
      && match entries.(r.entry).kind with
         | Vax_stack | Risc_color -> true
         | _ -> false
    in
    metric "setup_s" "s"
      (Stats.median
         (Array.of_list (Stats.faster_half (List.map (fun t -> (t, t)) times))));
    percentile_metric "compile_ms_p50" ~unit:"ms" (ms gg) 0.5;
    percentile_metric "compile_ms_p99" ~unit:"ms" (ms_all gg) 0.99;
    metric "src_kb_per_s" "KB/s"
      (rate (fun r ->
           float_of_int (String.length entries.(r.entry).source) /. 1024.));
    metric "gg_pcc_ratio" "ratio" ratio;
    metric "sim_cycles" "cycles/kstep"
      (Compile_run.sim_cycles
         (List.map (fun (sim, steps) -> (sim.Simout.cycles, steps)) !runs));
    metric "asm_bytes" "bytes" (float_of_int asm_bytes);
    percentile_metric "req_ms_p50" ~unit:"ms" (ms (fun _ -> true)) 0.5;
    percentile_metric "req_ms_p99" ~unit:"ms" (ms_all (fun _ -> true)) 0.99;
    metric "goodput_rps" "1/s" (good all /. wall);
    metric "peak_rss_mb" "MB" rss
  end
  else begin
    (* alternating untraced and traced slices; the traced ones record
       client spans here and are bracketed by admin stats snapshots *)
    let slice = a.seconds /. 4. in
    let untraced = ref [] and traced = ref [] and spans = ref [] in
    let u_wall = ref 0. and t_wall = ref 0. in
    let before = ref [] and after = ref [] and cpu = ref 0. in
    for k = 0 to 3 do
      if k land 1 = 0 then begin
        let rs, wall =
          closed_loop a d entries ~tag:(Fmt.str "u%d" k) ~secs:slice
        in
        untraced := rs @ !untraced;
        u_wall := !u_wall +. wall
      end
      else begin
        let s0 = admin_stats d and c0 = cpu_s d in
        Trace.reset ();
        Trace.enabled := true;
        let rs, wall =
          closed_loop a d entries ~tag:(Fmt.str "t%d" k) ~secs:slice
        in
        Trace.enabled := false;
        spans := Stats.spans (Trace.events ()) @ !spans;
        Trace.reset ();
        cpu := !cpu +. (cpu_s d -. c0);
        before := s0 :: !before;
        after := admin_stats d :: !after;
        traced := rs @ !traced;
        t_wall := !t_wall +. wall
      end
    done;
    account entries (!untraced @ !traced);
    stop d;
    let rs = !traced in
    let n = float_of_int (List.length rs) in
    let logs = log_records d in
    let server r = Hashtbl.find_opt logs r.id in
    let rtt_ms = List.map (fun r -> r.rtt *. 1e3) rs in
    let span_ms name =
      Array.of_list
        (List.filter_map
           (fun sp ->
             if sp.Stats.sp_name = name then Some (sp.Stats.sp_total_us /. 1e3)
             else None)
           !spans)
    in
    let from_log f =
      Array.of_list (List.filter_map (fun r -> Option.map f (server r)) rs)
    in
    let queue = from_log fst and latency = from_log snd in
    check
      (Array.length latency = List.length rs)
      (lazy "every traced request has its request.done log record");
    let wire =
      Array.of_list
        (List.filter_map
           (fun r -> Option.map (fun (_, l) -> (r.rtt *. 1e3) -. l) (server r))
           rs)
    in
    let delta name =
      List.fold_left2
        (fun acc b a -> acc +. phase_seconds a name -. phase_seconds b name)
        0. !before !after
      *. 1e3 /. n
    in
    let counter name =
      List.fold_left2
        (fun acc b a -> acc + stat_counter a name - stat_counter b name)
        0 !before !after
    in
    let per_req v = v /. n in
    let total = per_req (List.fold_left ( +. ) 0. rtt_ms) in
    let connect = per_req (Stats.sum (span_ms "client.connect")) in
    let write = per_req (Stats.sum (span_ms "client.write")) in
    let q = per_req (Stats.sum queue) in
    let lat = per_req (Stats.sum latency) in
    (* ggccd's pcc.select over (1 - share) is PCC's whole time; the
       difference is PCC's Phase 1, which moves out of transform *)
    let share = pcc_transform_share entries in
    let pcc = delta "pcc.select" /. (1. -. share) in
    let transform = delta "phase1.transform" -. (pcc -. delta "pcc.select") in
    say "pcc: %.1f%% of its time is Phase 1 (in process), %.5f ms/req moved \
         from transform to pcc"
      (100. *. share) (pcc -. delta "pcc.select");
    check (transform >= 0.)
      (lazy (Fmt.str "GG transform %.5f ms/req after moving PCC's Phase 1 out"
               transform));
    let phases =
      [
        ("server.frontend_ms", delta "frontend");
        ("server.transform_ms", transform);
        ("server.match_ms", delta "phase2.match");
        ("server.regalloc_ms", delta "phase3.regalloc");
        ("server.pcc_ms", pcc);
      ]
    in
    let other =
      lat -. q -. List.fold_left (fun acc (_, v) -> acc +. v) 0. phases
    in
    let named = connect +. write +. lat in
    let remainder = total -. named in
    say "layer sum over %d traced requests (ms per request):" (List.length rs);
    List.iter
      (fun (l, v) -> say "  %-42s %10.5f" l v)
      ([ ("client.connect", connect); ("client.write", write);
         ("server.queue_wait", q) ]
      @ phases
      @ [ ("server.other: decode, render, log, write", other) ]);
    say "  %-42s %10.5f" "remainder: wire, client decode" remainder;
    say "  %-42s %10.5f" "= traced round trip" total;
    check
      (other >= 0. && remainder >= -0.01 *. total)
      (lazy
        (Fmt.str "server layers %.5f of latency %.5f, remainder %.5f of %.5f"
           (lat -. other) lat remainder total));
    let goodput_u = good !untraced /. !u_wall in
    let goodput_t = good rs /. !t_wall in
    say "trace.overhead_pct: untraced goodput %.1f/s vs traced %.1f/s" goodput_u
      goodput_t;
    let med l = if l = [||] then 0. else Stats.median l in
    metric "tablegen.file_kb" "KB" (file_kb cache);
    metric "tablegen.load_ms" "ms" load_ms;
    List.iter (fun (nm, u) -> metric nm u 0.) compile_only_layers;
    metric "frontc.trees" "count" (float_of_int trees);
    metric "sim.insns" "count"
      (float_of_int
         (List.fold_left
            (fun acc (sim, _) -> acc + sim.Simout.insns_executed)
            0 !runs));
    metric "layers.remainder_pct" "%" (100. *. remainder /. total);
    metric "trace.overhead_pct" "%" (((goodput_u /. goodput_t) -. 1.) *. 100.);
    metric "client.connect_ms_p50" "ms" (med (span_ms "client.connect"));
    metric "client.write_ms_p50" "ms" (med (span_ms "client.write"));
    metric "client.await_ms_p50" "ms" (med (span_ms "client.await"));
    metric "server.wire_ms_p50" "ms" (med wire);
    percentile_metric "server.queue_wait_ms_p50" ~unit:"ms" queue 0.5;
    percentile_metric "server.queue_wait_ms_p99" ~unit:"ms" queue 0.99;
    percentile_metric "server.request_ms_p50" ~unit:"ms" latency 0.5;
    percentile_metric "server.request_ms_p99" ~unit:"ms" latency 0.99;
    List.iter (fun (nm, v) -> metric nm "ms/req" v) phases;
    metric "server.other_ms" "ms/req" other;
    metric "server.cpu_s" "s/1000req" (!cpu *. 1000. /. n);
    metric "server.retry_after" "count" (float_of_int (Atomic.get retries));
    metric "server.error_responses" "count"
      (float_of_int (counter "server.responses_error"))
  end
