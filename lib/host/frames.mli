(** Host physical frame table, stored struct-of-arrays.

    Each frame records who owns it, what it logically contains, whether
    the host considers it file-backed ("named") and its referenced bit —
    all bit-packed into flat int arrays and a flag byte indexed by the
    frame number, so the fault and reclaim paths never allocate to read
    or update frame metadata.  LRU placement is managed by {!Cgroup};
    the LRU links live in a shared {!Mem.Flru} arena whose node ids are
    the frame numbers themselves.

    The table is sized by use: it holds state for frames
    [0 .. capacity - 1] only, and every frame above that is free and was
    never handed out.  {!Hostmm.register_guest} {!reserve}s what its
    guests can hold, so a host whose cgroups are small never builds
    metadata for the rest of its memory. *)

(** Who owns a frame.  The owning guest and the gpa or hv-page index
    are read separately ({!owner_guest}, {!owner_payload}), so no view
    of a frame allocates. *)
type owner_kind =
  | Free
  | Guest_page
  | Hv_page  (** a page of the hosted hypervisor (QEMU) serving a guest *)

type t

(** [create ~nframes] is a host of [nframes] free frames; it holds
    state for none of them until {!reserve} or {!alloc} needs it. *)
val create : nframes:int -> t

val nframes : t -> int
val nfree : t -> int

(** [reserve t n] makes the table hold state for frames
    [0 .. min n nframes - 1], growing it geometrically (to at least twice
    its size, capped at [nframes]) when it is smaller.  Frame numbers do
    not move, and neither does the order {!alloc} hands them out in.
    Grow in serial code: a table grown inside a pool domain leaves its
    old arrays in that domain's allocator arena. *)
val reserve : t -> int -> unit

(** [high_water t] is one past the highest frame ever handed out: every
    frame at or above it is [Free]. *)
val high_water : t -> int

(** The shared LRU arena; {!Cgroup.create} lists draw nodes from it. *)
val arena : t -> Mem.Flru.arena

(** [alloc t] takes a free frame: the most recently released one, or
    else the lowest never handed out (growing the table, as a fallback,
    when that frame lies past it).  [None] when no frame is free; reclaim
    is the caller's job.  The frame comes back still [Free]; callers
    fill in its owner. *)
val alloc : t -> int option

(** [release t f] resets [f]'s metadata and returns it to the free
    list.  The frame must not be [Free] already (and the caller must
    have detached it from any LRU list). *)
val release : t -> int -> unit

(** [put_back t f] returns a frame obtained from [alloc] but never
    installed (owner still [Free]) straight to the free list; raises if
    the frame has an owner (use [release] for installed frames). *)
val put_back : t -> int -> unit

val owner_kind : t -> int -> owner_kind

val owner_guest : t -> int -> int
(** Owning guest id; meaningful only when [owner_kind] is non-zero. *)

val owner_payload : t -> int -> int
(** The gpa (guest page) or hv-page index; meaningful only when
    [owner_kind] is non-zero. *)

val set_guest_owner : t -> int -> guest:int -> gpa:int -> unit
(** Makes the frame a [Guest_page] of [guest] at [gpa]. *)

val set_hv_owner : t -> int -> guest:int -> idx:int -> unit
(** Makes the frame [guest]'s hypervisor page [idx]. *)

val content : t -> int -> Storage.Content.t
val set_content : t -> int -> Storage.Content.t -> unit
val named : t -> int -> bool
val set_named : t -> int -> bool -> unit
val referenced : t -> int -> bool
val set_referenced : t -> int -> bool -> unit

(** Swap-cache backing: the still-allocated swap slot holding an
    identical copy of this (clean, anonymous) frame, or -1 for none.
    Lets eviction drop the frame without rewriting it. *)
val backing_slot : t -> int -> int

val set_backing_slot : t -> int -> int -> unit
(** -1 clears. *)
