(* A Domain-based worker pool for batch compilation.

   The packed tables are immutable int arrays shared read-only across
   domains; Semantics/Regmgr/Frame state is created per function inside
   the worker; Gg_profile shards its counters per domain — so functions
   compile embarrassingly parallel.  Results are stored by input index,
   which makes the output order (and hence the emitted assembly)
   independent of scheduling: [-j 8] is byte-identical to [-j 1].

   Two lessons are baked into [map], both learned from a measured
   regression (-j2 ran at 0.61x of -j1):

   - [Domain.spawn] is expensive — milliseconds, comparable to an
     entire corpus compile — so spawning per batch, as the first
     version did, loses more than parallelism gains.  Workers are
     spawned once, parked on a condition variable between batches, and
     reused by every subsequent [map] in the process.  Parking also
     bounds the profiler shard registry: ephemeral domains each
     registered a fresh shard, so a long-lived server leaked one shard
     set per parallel batch.

   - Oversubscription is never profitable: a domain per requested job
     on a box with fewer cores just adds stop-the-world GC
     synchronisation and scheduler churn.  [map] clamps the effective
     domain count to [available ()], so [-j 8] on a 1-core container
     degrades to the sequential loop instead of running 7x slower.
     Tests and benchmarks can force real domains past the clamp with
     [~oversubscribe:true]. *)

let available () = Domain.recommended_domain_count ()

(* Domains currently executing work — spawn_pool members for their
   lifetime, parked map workers only while participating in a batch —
   so tests and the compile server's drain path can assert that
   shutdown (or a completed map) left nothing running. *)
let live = Atomic.make 0

(* counted from before the spawn, so a pool is live as soon as
   [spawn_pool] returns, not once its domains get going *)
let counted_spawn f =
  Atomic.incr live;
  match
    Domain.spawn (fun () -> Fun.protect ~finally:(fun () -> Atomic.decr live) f)
  with
  | d -> d
  | exception e ->
    Atomic.decr live;
    raise e

let live_domains () = Atomic.get live

type 'b cell = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

(* -- the shared map pool --------------------------------------------------- *)

(* One process-wide pool, guarded by [pool_mutex].  A batch is
   installed by bumping [gen]; parked workers wake on [work], the first
   [target] of them participate, and the submitter waits on [donec]
   until [active] returns to zero.  Only one batch runs at a time
   ([submit_lock]); a concurrent or nested [map] falls back to the
   inline sequential loop, which preserves every observable contract. *)

let pool_mutex = Mutex.create ()
let work = Condition.create ()
let donec = Condition.create ()
let members : unit Domain.t list ref = ref []
let size = ref 0
let gen = ref 0
let stopping = ref false
let job : (unit -> unit) option ref = ref None
let target = ref 0
let active = ref 0
let submit_lock = Mutex.create ()

(* more parked domains than this never helps; [max 8] keeps the pool
   exercisable (tests, oversubscribed benchmarks) on small boxes *)
let pool_cap () = max (available ()) 8

let rec worker_loop i last =
  Mutex.lock pool_mutex;
  while !gen = last && not !stopping do
    Condition.wait work pool_mutex
  done;
  if !stopping then Mutex.unlock pool_mutex
  else begin
    let g = !gen in
    let participate = i < !target in
    let pull = !job in
    Mutex.unlock pool_mutex;
    if participate then begin
      Atomic.incr live;
      (match pull with Some f -> f () | None -> ());
      (* decrement [live] before [active]: the submitter observes
         [active = 0] under the mutex, which orders it after this
         domain's decrement — live_domains() is exactly 0 when map
         returns *)
      Atomic.decr live;
      Mutex.lock pool_mutex;
      decr active;
      if !active = 0 then Condition.broadcast donec;
      Mutex.unlock pool_mutex
    end;
    worker_loop i g
  end

(* under [pool_mutex] *)
let ensure_spawned n =
  if !size < n then begin
    let g0 = !gen in
    for i = !size to n - 1 do
      members := Domain.spawn (fun () -> worker_loop i g0) :: !members
    done;
    size := n
  end

(* caller holds [submit_lock]; [workers >= 1] *)
let run_batch ~workers pull =
  Mutex.lock pool_mutex;
  ensure_spawned workers;
  job := Some pull;
  target := workers;
  active := workers;
  incr gen;
  Condition.broadcast work;
  Mutex.unlock pool_mutex;
  (* the calling domain is the batch's extra worker *)
  pull ();
  Mutex.lock pool_mutex;
  while !active > 0 do
    Condition.wait donec pool_mutex
  done;
  job := None;
  Mutex.unlock pool_mutex

let shutdown () =
  (* waits for an in-flight batch, then joins every parked worker *)
  Mutex.lock submit_lock;
  Mutex.lock pool_mutex;
  stopping := true;
  Condition.broadcast work;
  let ms = !members in
  members := [];
  size := 0;
  Mutex.unlock pool_mutex;
  List.iter Domain.join ms;
  Mutex.lock pool_mutex;
  stopping := false;
  Mutex.unlock pool_mutex;
  Mutex.unlock submit_lock

let () = at_exit shutdown

let map ?(oversubscribe = false) ~jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let limit = if oversubscribe then pool_cap () + 1 else available () in
  let jobs = max 1 (min jobs (min n limit)) in
  if jobs = 1 then List.map f xs
  else begin
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    (* workers pull indices off a shared counter (dynamic load
       balancing: function sizes are very uneven) and never raise —
       exceptions travel in the result cell so that the first failure
       in *input* order is re-raised, deterministically *)
    let pull () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <-
            (try Done (f items.(i))
             with e -> Failed (e, Printexc.get_raw_backtrace ()));
          go ()
        end
      in
      go ()
    in
    if Mutex.try_lock submit_lock then begin
      Fun.protect
        ~finally:(fun () -> Mutex.unlock submit_lock)
        (fun () -> run_batch ~workers:(jobs - 1) pull);
      Array.iter
        (function
          | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
          | Pending | Done _ -> ())
        results;
      List.init n (fun i ->
          match results.(i) with
          | Done r -> r
          | Pending | Failed _ -> assert false)
    end
    else
      (* the pool is serving another batch (or this is a nested map):
         run inline — sequential evaluation trivially preserves order
         and raises the earliest failure *)
      List.map f xs
  end

(* -- persistent pools ----------------------------------------------------- *)

(* [map]'s pool parks between batches; a serving process wants domains
   that block on its own shared queue instead.  This pool is
   deliberately dumb — each domain just runs the given body to
   completion; the body owns its work-source (typically a Squeue) and
   its exception handling.  A body that raises terminates only its own
   domain; [join_pool] re-raises the first such exception (in worker
   order) after every domain has been joined, mirroring [map]'s
   earliest-failure contract. *)

type pool = { pool_members : unit Domain.t list }

let spawn_pool ~domains body =
  let domains = max 1 domains in
  {
    pool_members =
      List.init domains (fun i -> counted_spawn (fun () -> body i));
  }

let join_pool { pool_members } =
  let failure =
    List.fold_left
      (fun acc d ->
        match Domain.join d with
        | () -> acc
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          if acc = None then Some (e, bt) else acc)
      None pool_members
  in
  match failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()
