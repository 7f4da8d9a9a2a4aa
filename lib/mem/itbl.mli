(** Open-addressing int->int hash table for the flat page-metadata plane.

    The table is two parallel [int array]s (keys and values) probed
    linearly under a SplitMix-style finalizer, with power-of-two
    capacity.  Deletion uses backward-shift compaction instead of
    tombstones, so probe chains never rot and a long-lived table keeps
    its steady-state lookup cost no matter how much churn it has seen.
    Lookup, insert and remove allocate nothing once the table has grown
    to its working size, which is the point: these tables sit on the
    swap-in fault path where a million-page guest would otherwise pay a
    boxed [Hashtbl] bucket allocation per touch.

    One key is reserved as the empty-slot marker: [min_int] cannot be
    stored.  Every key actually used by the callers (packed
    [owner_key]s, swap slots, gpas, packed [(disk, block)] pairs) is
    non-negative, so the reservation costs nothing. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] makes an empty table sized for at least
    [capacity] bindings before the first grow (default 16). *)

val length : t -> int
(** Number of live bindings.  O(1). *)

val capacity : t -> int
(** Current slot-array size (a power of two); exposed for tests and
    gauges. *)

val mem : t -> int -> bool

val find : t -> int -> default:int -> int
(** [find t k ~default] returns the binding of [k], or [default] when
    absent.  Allocation-free. *)

val find_opt : t -> int -> int option
(** Allocating convenience wrapper; avoid on hot paths. *)

val set : t -> int -> int -> unit
(** [set t k v] binds [k] to [v], replacing any previous binding.
    Raises [Invalid_argument] on the reserved key [min_int]. *)

val remove : t -> int -> unit
(** Remove [k]'s binding if present, backward-shifting the tail of its
    probe cluster so no tombstone is left behind. *)

val iter : (int -> int -> unit) -> t -> unit
(** Iterates in slot order.  The order is a deterministic function of
    the operation history but otherwise unspecified. *)

val clear : t -> unit

val home_slot : t -> int -> int
(** [home_slot t k] is the index where [k]'s probe sequence starts at
    the current capacity.  Exposed so tests can construct colliding keys
    and exercise backward-shift deletion across the wraparound
    boundary. *)

(** Dense payload-index allocator for record-valued tables.

    An [Itbl] maps int keys to int payload *indices*; the payload fields
    themselves live in parallel arrays owned by the caller, indexed by
    the slots this slab hands out.  Freed indices are recycled LIFO, so
    the dense region never exceeds the historical peak of live
    payloads. *)
module Slab : sig
  type t

  val create : unit -> t

  val alloc : t -> int
  (** Smallest-available dense index; grows the high-water mark when the
      free list is empty. *)

  val release : t -> int -> unit

  val high : t -> int
  (** High-water mark: caller arrays must accommodate indices
      [0 .. high - 1]. *)

  val live : t -> int
end
