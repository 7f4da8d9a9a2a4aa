(** Flat intrusive LRU lists over a shared int-array arena.

    Every link lives in three parallel [int array]s — [prev], [next],
    [owner] — indexed by the node id itself, so a node is not a
    record.  The host frame table uses the frame number as
    the node id, so all the cgroup LRU lists and the frame metadata live
    in the same flat slab, and moving a frame between lists is a few int
    stores with zero allocation.

    Multiple lists share one arena; each list gets a sentinel slot
    carved from the region above the caller's node ids and a non-zero
    owner id, so [mem] is an O(1) array read.  Both regions grow: the
    sentinel region doubles when a list finds it full, and
    {!grow_nodes} extends the node region, moving the sentinels up
    past it (each list follows its sentinel, so the link operations
    never pay for the move). *)

type arena
type t

val arena : nodes:int -> unit -> arena
(** [arena ~nodes ()] builds an arena whose node ids are
    [0 .. nodes - 1], all initially detached, with sentinel headroom for
    eight lists (the sentinel region doubles on demand, alone). *)

val grow_nodes : arena -> nodes:int -> unit
(** [grow_nodes a ~nodes] extends the node ids to [0 .. nodes - 1];
    the new nodes start detached, and every list keeps its nodes in
    order.  No-op unless [nodes] exceeds the current node count. *)

val list : arena -> t
(** A new empty list drawing nodes from [arena]. *)

val length : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool
(** Is node [n] currently on this particular list?  O(1). *)

val in_some_list : arena -> int -> bool
(** Is node [n] on any list of the arena? *)

val push_front : t -> int -> unit
(** Insert a detached node at the MRU end.  Raises [Invalid_argument]
    if [n] is already on a list. *)

val push_back : t -> int -> unit
(** Insert a detached node at the LRU end. *)

val remove : t -> int -> unit
(** Detach [n].  Raises [Invalid_argument] if [n] is not on this
    list. *)

val pop_back : t -> int option
(** Remove and return the LRU node, or [None] if empty. *)

val peek_back : t -> int option
(** The LRU node without removal. *)

val iter : (int -> unit) -> t -> unit
(** Front (MRU) to back (LRU).  [f] must not mutate the list. *)

val to_list : t -> int list
(** Front-to-back; for tests and debug dumps. *)
