(* Mutex + condition bounded queue.  Mutex/Condition synchronise across
   domains and systhreads alike in OCaml 5, so the accept thread and
   the workers (systhreads of the serving domain and worker domains)
   share this safely. *)

type 'a t = {
  q : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  m : Mutex.t;
  nonempty : Condition.t;
}

let create ~capacity =
  {
    q = Queue.create ();
    capacity = max 1 capacity;
    closed = false;
    m = Mutex.create ();
    nonempty = Condition.create ();
  }

let try_push t x =
  Mutex.protect t.m (fun () ->
      if t.closed || Queue.length t.q >= t.capacity then false
      else begin
        Queue.push x t.q;
        Condition.signal t.nonempty;
        true
      end)

let try_pop t = Mutex.protect t.m (fun () -> Queue.take_opt t.q)

let pop t =
  Mutex.protect t.m (fun () ->
      while Queue.is_empty t.q && not t.closed do
        Condition.wait t.nonempty t.m
      done;
      Queue.take_opt t.q)

let close t =
  Mutex.protect t.m (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = Mutex.protect t.m (fun () -> Queue.length t.q)
