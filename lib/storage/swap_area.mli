(** Host swap area with a Linux-style cluster slot allocator.

    Linux carves the swap device into 256-slot clusters.  Consecutive
    swap-outs fill the current cluster sequentially, so reclaim batches
    land contiguously and swap readahead works; when the current cluster
    is exhausted the allocator grabs the next wholly-free cluster.  Only
    when no free cluster remains does it degrade to scanning for
    individual free slots — and that regime produces exactly the
    scattered layout the paper calls "decayed swap sequentiality": the
    longer the system swaps, the fewer whole clusters survive, the more
    fragmented new swap-outs become. *)

type t

(** [create ~base_sector ~nslots] builds an area of exactly [nslots]
    slots.  The cluster count rounds up, so the last cluster may be
    partial.  Raises [Invalid_argument] when [nslots < 1]. *)
val create : base_sector:int -> nslots:int -> t

val cluster_slots : int

(** [alloc t content ~owner] claims a free slot storing [content] for
    [owner] and returns its index, or [None] if the area is full.  The
    owner is a non-negative int the caller packs (the host passes its
    (guest, gpa) key); the area never decodes it.  Raises
    [Invalid_argument] when [owner < 0].

    Per-slot state lives in 1,024-slot chunks, each allocated when a
    slot in it is first taken, so a fresh area costs a few words per
    256-slot cluster, not per slot. *)
val alloc : t -> Content.t -> owner:int -> int option

(** [owner t slot] is the owner given to {!alloc} for an allocated
    slot, or -1 for a free one: an owner of -1 is what "free" means, so
    allocation and ownership cannot disagree. *)
val owner : t -> int -> int

(** [free t slot] releases a slot, first invoking the {!set_on_free}
    hook (if any) with the slot's tier; its owner reads -1 again.
    Freeing a free slot is an error. *)
val free : t -> int -> unit

(** [iter_allocated t f] calls [f ~slot ~owner] for every allocated
    slot, in slot order, skipping the chunks never taken. *)
val iter_allocated : t -> (slot:int -> owner:int -> unit) -> unit

(** {2 Tier metadata}

    Tiered swap ({!Tiers}) stores each page on its fast tier or on the
    disk; the area records which, so swap-in, readahead grouping and
    release all agree without shadow tables. *)

(** [set_tier t slot tier] records the tier holding the allocated
    [slot]'s page (0 the fast tier, 1 the disk); a free slot is an
    error.  [alloc] resets a slot's tier to 0 (the fast tier, or the
    sole disk in passthrough). *)
val set_tier : t -> int -> int -> unit

(** [tier t slot] is the backend tier recorded for [slot] (0 unless a
    tiered backend set it). *)
val tier : t -> int -> int

(** [set_on_free t (Some f)] installs a hook called by {!free} with the
    slot index and its recorded tier, before the slot is reset.  Lets a
    tiered backend release per-slot resources (compressed-pool bytes,
    fast-tier share) at every free site without each caller knowing
    about tiers. *)
val set_on_free : t -> (slot:int -> tier:int -> unit) option -> unit

(** [content t slot] is the content stored in an allocated slot. *)
val content : t -> int -> Content.t

val is_allocated : t -> int -> bool

(** [sector_of_slot t slot] is the physical sector of the slot. *)
val sector_of_slot : t -> int -> int

val nslots : t -> int
val in_use : t -> int

(** [free_clusters t] counts wholly-free clusters — the health metric of
    the layout (0 means the allocator is in scatter mode).  The count is
    kept up to date by every allocation and free, so reading it is
    O(1); at 0, {!alloc} goes straight to the slot scan without
    walking the clusters. *)
val free_clusters : t -> int

(** [fragmented_allocs t] counts allocations that had to fall back to
    the slot-scan path (each one is a future random read). *)
val fragmented_allocs : t -> int
