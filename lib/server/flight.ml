(* A crash-surviving flight recorder: the last N request summaries in a
   fixed-size ring.

   Recording is lock-free — one Atomic.fetch_and_add to claim a slot,
   one pointer store to fill it.  OCaml pointer stores are atomic, so a
   racing reader sees either the old entry or the new one, never a torn
   record; that is exactly the guarantee a SIGQUIT dump or the crash
   barrier needs while the worker domains keep flying. *)

module Json = Gg_profile.Json

type entry = {
  fe_id : string;  (* request id *)
  fe_bytes : int;  (* request source bytes *)
  fe_target : string;
  fe_regalloc : string;
  fe_outcome : string;  (* ok | error | bad_request | crash | timeout | ... *)
  fe_queue_wait_us : int;
  fe_latency_us : int;
  fe_worker : int;
  fe_ts : float;  (* absolute unix seconds at completion *)
}

type t = { slots : entry option array; seq : int Atomic.t }

let create capacity =
  let capacity = max 1 capacity in
  { slots = Array.make capacity None; seq = Atomic.make 0 }

let capacity t = Array.length t.slots

let record t e =
  let i = Atomic.fetch_and_add t.seq 1 in
  t.slots.(i mod Array.length t.slots) <- Some e

let recorded t = Atomic.get t.seq

(* oldest-first; reads race benignly with writers — each slot read is
   one atomic pointer load, so every returned entry is internally
   consistent even if the set is momentarily mixed-generation *)
let entries t =
  let n = Array.length t.slots in
  let seq = Atomic.get t.seq in
  let first = if seq <= n then 0 else seq - n in
  let out = ref [] in
  for i = seq - 1 downto first do
    match t.slots.(i mod n) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

let entry_json e =
  Printf.sprintf
    "{\"id\":\"%s\",\"bytes\":%d,\"target\":\"%s\",\"regalloc\":\"%s\",\
     \"outcome\":\"%s\",\"queue_wait_us\":%d,\"latency_us\":%d,\
     \"worker\":%d,\"ts\":%.6f}"
    (Json.escape e.fe_id) e.fe_bytes
    (Json.escape e.fe_target)
    (Json.escape e.fe_regalloc)
    (Json.escape e.fe_outcome)
    e.fe_queue_wait_us e.fe_latency_us e.fe_worker e.fe_ts

let to_json t =
  let es = entries t in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"capacity\":%d,\"recorded\":%d,\"entries\":["
       (capacity t) (recorded t));
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (entry_json e))
    es;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* atomic: the dump path is read by operators after a crash, so it
   must never hold a torn document *)
let dump t path = Json.write_atomic path (to_json t)
