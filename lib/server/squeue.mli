(** A bounded, multi-producer multi-consumer blocking queue.

    The server's backpressure primitive: while every worker is busy,
    the accept thread produces the connections it admits, and each
    worker consumes them as it comes free, before it goes back to
    accepting connections of its own.  {!try_push} never blocks — a
    full queue is the signal to answer {!Protocol.Retry_after} instead
    of accepting unbounded work.  {!pop} blocks until an item or {!close}; after
    [close], remaining items are still drained (graceful shutdown
    serves everything already accepted) and only then does [pop] return
    [None]. *)

type 'a t

val create : capacity:int -> 'a t

(** Non-blocking; [false] when the queue is full or closed. *)
val try_push : 'a t -> 'a -> bool

(** Non-blocking; [None] when the queue is empty. *)
val try_pop : 'a t -> 'a option

(** Blocks until an item is available or the queue is closed and
    drained ([None]). *)
val pop : 'a t -> 'a option

(** Idempotent.  Wakes every blocked {!pop}; no further pushes are
    accepted, already-queued items remain poppable. *)
val close : 'a t -> unit

(** Current occupancy (racy by nature; for metrics and tests). *)
val length : 'a t -> int
