(** Simple rotating-cursor slot allocator for the guest's own swap
    partition (block indices only; the data itself lives in the virtual
    disk). *)

type t

val create : nslots:int -> t
val alloc : t -> int option
val free : t -> int -> unit
val is_allocated : t -> int -> bool
val nslots : t -> int
