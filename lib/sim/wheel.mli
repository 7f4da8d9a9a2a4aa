(** Hierarchical timing wheel — the engine's O(1) event queue.

    Four levels of 64 slots at 1 µs base resolution cover a 2^24 µs
    (~16.8 s) horizon; events beyond it wait in an overflow list and are
    folded into the wheel when the top level wraps.  Each slot is an
    intrusive doubly-linked chain threaded through a freelist slab, so:

    - [add] links at the chain tail: O(1) for any in-horizon time;
    - [cancel] unlinks the record and recycles it immediately: O(1) true
      removal, never a lazy tombstone;
    - [pop] drains a whole due slot as a batch — the slot-search and
      cascade cost is paid once per distinct tick, and every level-0
      slot holds exactly one tick's events, already in FIFO order.

    Two events queued for the same time always pop in the order they
    were added — cascades walk chains head-to-tail and re-link at the
    tail, so the wheel is stable: same-time events fire in insertion
    order.

    Records are handle-addressed: a handle packs
    (slot index, generation); releasing a record bumps its generation so
    stale handles are detected and ignored.  Steady-state operation
    allocates nothing: records recycle through the slab's freelist and
    all bookkeeping lives in the records themselves. *)

type 'a t

(** Geometry, exposed for boundary tests: [bits] index bits per level
    (slots = [2^bits]) and [nlevels] levels, covering [2^(bits*nlevels)]
    ticks before the overflow list takes over. *)

val bits : int
val slots_per_level : int
val nlevels : int

val create : unit -> 'a t

(** [add t ~time v] queues [v] to pop at [time] and returns its handle
    (non-negative).  Raises [Invalid_argument] if [time] is earlier than
    the wheel's current tick. *)
val add : 'a t -> time:int -> 'a -> int

(** [cancel t handle] unlinks and recycles the record if the handle is
    live; returns whether a record was removed.  A negative, stale, or
    already-cancelled handle is a no-op returning [false].  Removal is
    immediate — a cancelled record never lingers in a slot. *)
val cancel : 'a t -> int -> bool

(** [next_time t] is the earliest queued firing time, or [-1] when the
    wheel is empty.  Pure: never advances the wheel or cascades, so it
    is safe to peek, decline, and later [add] an earlier event. *)
val next_time : 'a t -> int

(** [pop t] advances the wheel to the earliest queued tick (cascading
    higher levels down as needed), unlinks that tick's first record —
    FIFO among same-time records — releases it, and returns its value.
    The tick popped is what {!next_time} reported.  Raises
    [Invalid_argument] when empty. *)
val pop : 'a t -> 'a

val length : 'a t -> int

(** {2 Telemetry} *)

(** [fired t] counts records returned by {!pop}. *)
val fired : 'a t -> int

(** [cancelled t] counts records removed by {!cancel}. *)
val cancelled : 'a t -> int

(** [cascades t] counts slot redistributions: a higher-level (or
    overflow) chain re-placed into lower levels while advancing. *)
val cascades : 'a t -> int
