(** Simple rotating-cursor slot allocator for the guest's own swap
    partition (block indices only; the data itself lives in the virtual
    disk).  It holds each slot's owner, a non-negative int the caller
    packs; an owner is kept in a chunk of 1,024 slots allocated when a
    slot in the chunk is first taken, so an unused partition costs a few
    words. *)

type t

val create : nslots:int -> t

(** [alloc t ~owner] takes the first free slot at or after the cursor,
    records [owner] for it and returns it, or returns -1 when every slot
    is taken.  Raises [Invalid_argument] if [owner < 0]. *)
val alloc : t -> owner:int -> int

(** [free t s] releases a taken slot; raises [Invalid_argument] if [s]
    is out of range or already free. *)
val free : t -> int -> unit

(** [owner t s] is the owner of slot [s], or -1 if it is free. *)
val owner : t -> int -> int

(** [iter_owned t f] calls [f ~slot ~owner] for every taken slot in
    slot order, walking only the chunks ever taken. *)
val iter_owned : t -> (slot:int -> owner:int -> unit) -> unit

val nslots : t -> int

(** Number of taken slots. *)
val in_use : t -> int
