(* Named counters and fixed-bucket histograms over the compilation
   pipeline, recorded into the calling domain's {!Profile} shard and
   merged on read.

   Histograms have fixed integer bucket bounds chosen once at
   registration, so recording an observation is a short linear scan and
   four increments in the calling domain's shard — no allocation, no
   synchronisation.  This is the instrument Samuelsson-style table
   optimisation needs: the distribution of matcher work per tree, not
   just its total. *)

(* In every shard's [hist] array, a histogram owns the words from [off]:
   count, sum, max, then one word per bucket (overflow last). *)
type histogram = {
  off : int;
  h_name : string;
  h_unit : string;
  bounds : int array;  (** strictly increasing inclusive upper bounds *)
}

let histograms : histogram list ref = ref []

let register ~unit:h_unit name bounds =
  let off = Profile.reserve_words (3 + Array.length bounds + 1) in
  let h = { off; h_name = name; h_unit; bounds } in
  histograms := !histograms @ [ h ];
  h

(* -- the standard instruments ------------------------------------------- *)

let tree_match_us =
  register ~unit:"us" "matcher.tree_match_us"
    [| 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 5000 |]

let tree_reductions =
  register ~unit:"reductions" "matcher.reductions_per_tree"
    [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 |]

let stack_high_water =
  register ~unit:"slots" "matcher.stack_high_water"
    [| 2; 4; 8; 16; 32; 64; 128; 256 |]

let insns_per_func =
  register ~unit:"insns" "codegen.insns_per_func"
    [| 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000 |]

let spills_per_func =
  register ~unit:"spills" "codegen.spills_per_func"
    [| 0; 1; 2; 5; 10; 20; 50 |]

(* the compile server's serving instruments: how long a request sat in
   the accept queue, and how long it took end to end (accept -> reply
   written).  Observed by Gg_server.Server from the worker domains. *)
let queue_wait_us =
  register ~unit:"us" "server.queue_wait_us"
    [| 10; 20; 50; 100; 200; 500; 1000; 2000; 5000; 10_000; 50_000 |]

let request_latency_us =
  register ~unit:"us" "server.request_latency_us"
    [| 100; 200; 500; 1000; 2000; 5000; 10_000; 20_000; 50_000; 100_000; 500_000 |]

(* -- recording ------------------------------------------------------------- *)

let enabled = ref false

let bucket_index h v =
  let n = Array.length h.bounds in
  let rec go i = if i >= n || v <= h.bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  let a = (Profile.shard ()).hist and o = h.off in
  a.(o) <- a.(o) + 1;
  a.(o + 1) <- a.(o + 1) + v;
  if v > a.(o + 2) then a.(o + 2) <- v;
  let i = o + 3 + bucket_index h v in
  a.(i) <- a.(i) + 1

(* a serving domain runs a worker and the accept thread as systhreads,
   which may switch between the read and the write *)
let incr ?(by = 1) name =
  let s = Profile.shard () in
  Mutex.lock s.named_lock;
  Hashtbl.replace s.named name
    (by + Option.value ~default:0 (Hashtbl.find_opt s.named name));
  Mutex.unlock s.named_lock

(* -- merged reads -------------------------------------------------------- *)

let merged shards f h k =
  List.fold_left
    (fun acc (s : Profile.shard) -> f acc s.hist.(h.off + k))
    0 shards

let count h = merged (Profile.shards ()) ( + ) h 0
let sum h = merged (Profile.shards ()) ( + ) h 1
let max_value h = merged (Profile.shards ()) max h 2

let buckets h =
  let shards = Profile.shards () in
  List.init
    (Array.length h.bounds + 1)
    (fun i ->
      ( (if i < Array.length h.bounds then Some h.bounds.(i) else None),
        merged shards ( + ) h (3 + i) ))

let name h = h.h_name
let unit_of h = h.h_unit
let all () = !histograms
let named_counters = Profile.named_counters

let reset () =
  List.iter
    (fun (s : Profile.shard) ->
      Array.fill s.hist 0 (Array.length s.hist) 0;
      Hashtbl.reset s.named)
    (Profile.shards ())

(* -- exposition ---------------------------------------------------------- *)

let mean h =
  let c = count h in
  if c = 0 then 0. else float_of_int (sum h) /. float_of_int c

(* Quantile estimate from the merged bucket counts: find the bucket the
   q-th observation falls in and interpolate linearly inside it (the
   overflow bucket's upper edge is the observed max).  Deterministic in
   the bucket counts, so a live admin snapshot and the shutdown-written
   JSON agree exactly when taken over the same observations. *)
let quantile h q =
  let total = count h in
  if total = 0 then 0.
  else begin
    let target = q *. float_of_int total in
    let bs = buckets h in
    let rec go lo before = function
      | [] -> float_of_int (max_value h)
      | (bound, n) :: rest ->
        let after = before + n in
        let hi =
          match bound with
          | Some b -> float_of_int b
          | None -> float_of_int (max_value h)
        in
        if float_of_int after >= target && n > 0 then
          lo +. ((target -. float_of_int before) /. float_of_int n *. (hi -. lo))
        else go hi after rest
    in
    Float.min (go 0. 0 bs) (float_of_int (max_value h))
  end

(* -- live snapshots ------------------------------------------------------- *)

(* The admin plane's read API: one coherent view of every counter and
   histogram, taken while worker domains keep observing.  Reading a
   shard another domain is writing yields momentarily stale integers,
   nothing worse (the arrays are fixed, the values immediate), so a
   snapshot is safe from any thread at any time; totals are exact once
   the writers have joined. *)
type histo_view = {
  hv_name : string;
  hv_unit : string;
  hv_count : int;
  hv_sum : int;
  hv_max : int;
  hv_buckets : (int option * int) list;
  hv_p50 : float;
  hv_p99 : float;
}

type view = {
  v_counters : (string * int) list;
  v_histograms : histo_view list;
}

let snapshot () =
  {
    v_counters = Profile.counter_list ();
    v_histograms =
      List.map
        (fun h ->
          {
            hv_name = h.h_name;
            hv_unit = h.h_unit;
            hv_count = count h;
            hv_sum = sum h;
            hv_max = max_value h;
            hv_buckets = buckets h;
            hv_p50 = quantile h 0.50;
            hv_p99 = quantile h 0.99;
          })
        (all ());
  }

let shift_reduce_ratio () =
  let c = Profile.totals () in
  if c.Profile.reduces = 0 then 0.
  else float_of_int c.Profile.shifts /. float_of_int c.Profile.reduces

let report ppf () =
  Profile.pp_counters ppf ();
  Fmt.pf ppf "  %-28s %10.3f@." "matcher.shift_reduce_ratio"
    (shift_reduce_ratio ());
  List.iter
    (fun h ->
      let total = count h in
      Fmt.pf ppf "histogram %s (count %d, mean %.1f %s, max %d):@." h.h_name
        total (mean h) h.h_unit (max_value h);
      if total > 0 then
        List.iter
          (fun (le, n) ->
            let label =
              match le with
              | Some b -> Fmt.str "<= %d" b
              | None -> "overflow"
            in
            Fmt.pf ppf "  %-10s %10d  %5.1f%%  %s@." label n
              (100. *. float_of_int n /. float_of_int total)
              (String.make (min 60 (60 * n / total)) '#'))
          (buckets h))
    (all ())

(* the counts of the last sample_gc: process-wide, like the collections
   themselves, which stop every domain *)
let gc_counts = Atomic.make (0, 0)

let sample_gc () =
  let st = Gc.quick_stat () in
  Atomic.set gc_counts (st.Gc.minor_collections, st.Gc.major_collections)

let () = sample_gc ()

let to_json () =
  let b = Buffer.create 2048 in
  let snap = snapshot () in
  Buffer.add_string b "{\n  \"counters\": {\n";
  let base = snap.v_counters in
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": %d%s\n" (Json.escape k) v
           (if i = List.length base - 1 then "" else ",")))
    base;
  Buffer.add_string b "  },\n";
  Buffer.add_string b
    (Printf.sprintf "  \"ratios\": { \"shift_reduce\": %.4f },\n"
       (shift_reduce_ratio ()));
  let minor, major = Atomic.get gc_counts in
  Buffer.add_string b
    (Printf.sprintf
       "  \"gc\": { \"minor_collections\": %d, \"major_collections\": %d },\n"
       minor major);
  Buffer.add_string b "  \"phases\": [\n";
  let ps = Profile.phases () in
  List.iteri
    (fun i (pname, secs, calls) ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": \"%s\", \"seconds\": %.6f, \"calls\": %d }%s\n"
           (Json.escape pname) secs calls
           (if i = List.length ps - 1 then "" else ",")))
    ps;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"histograms\": [\n";
  let hs = snap.v_histograms in
  List.iteri
    (fun i hv ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": \"%s\", \"unit\": \"%s\", \"count\": %d, \"sum\": \
            %d, \"max\": %d, \"p50\": %.3f, \"p99\": %.3f, \"buckets\": ["
           (Json.escape hv.hv_name) (Json.escape hv.hv_unit) hv.hv_count
           hv.hv_sum hv.hv_max hv.hv_p50 hv.hv_p99);
      let bs = hv.hv_buckets in
      List.iteri
        (fun j (le, n) ->
          Buffer.add_string b
            (Printf.sprintf "{ \"le\": %s, \"count\": %d }%s"
               (match le with Some v -> string_of_int v | None -> "null")
               n
               (if j = List.length bs - 1 then "" else ", ")))
        bs;
      Buffer.add_string b
        (Printf.sprintf "] }%s\n" (if i = List.length hs - 1 then "" else ","));
      ())
    hs;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let write_json_atomic path =
  sample_gc ();
  Json.write_atomic path (to_json ())

(* -- Prometheus text exposition ------------------------------------------ *)

(* dots and slashes in instrument names become underscores; everything
   gets the ggcg_ namespace prefix *)
let prom_name name =
  "ggcg_"
  ^ String.map
      (fun ch ->
        match ch with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ch
        | _ -> '_')
      name

let to_prometheus () =
  let b = Buffer.create 2048 in
  let snap = snapshot () in
  List.iter
    (fun (k, v) ->
      let n = prom_name k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    snap.v_counters;
  List.iter
    (fun hv ->
      let n = prom_name hv.hv_name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      (* Prometheus buckets are cumulative and end at +Inf *)
      let cum = ref 0 in
      List.iter
        (fun (le, cnt) ->
          cum := !cum + cnt;
          let label =
            match le with Some v -> string_of_int v | None -> "+Inf"
          in
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n label !cum))
        hv.hv_buckets;
      Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n hv.hv_sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n hv.hv_count))
    snap.v_histograms;
  Buffer.contents b
