(** The hypervisor memory manager.

    Owns the host frame table, the per-guest GPA=>HPA tables, host-level
    reclaim (per-guest cgroup limits plus global watermarks), the host
    swap area, the QEMU-like virtual I/O path, and the wiring of the two
    VSwapper components.  Guests drive it through a handful of
    continuation-passing entry points; every latency (CPU overheads and
    disk waits) is delivered by calling the continuation at the right
    virtual time.

    Execution-context conventions, matching how the paper splits Figure 9
    panels (b) and (c):
    - [touch_*] and [rep_write] are guest-context accesses; faults they
      take are counted in [guest_context_faults];
    - [vio_*] runs hypervisor code; faults taken while preparing I/O
      buffers (stale reads, hypervisor-code refaults) are counted in
      [host_context_faults]. *)

type t
type guest_id = int

(** EPT-level state of a guest page, exposed for tests and examples.
    The constructor order is the packed entries' tag order. *)
type page_state =
  | Not_backed  (** never touched; faults in as a zero page *)
  | Ballooned  (** surrendered to the host by the guest's balloon *)
  | Present  (** mapped to a host frame *)
  | In_swap  (** reclaimed into the host swap area *)
  | In_image  (** Mapper-discarded; backed by a virtual-disk block *)

(** [create ~config ~vsconfig ~swap_slots ~images ()] builds a whole
    host: its own engine and stats, a disk with the [faults] plan, and
    on the disk a 64 MB hypervisor region, one image per [images] size
    (in blocks; vdisk id = index), then a swap area of [swap_slots].
    Swap traffic routes through a {!Storage.Tiers} composite built from
    [tiers] (default the disk-only passthrough) with the same [faults];
    image I/O goes straight to the disk.  Raises [Invalid_argument]
    naming the first [disk], [tiers], [config] or [vsconfig] field out
    of range. *)
val create :
  ?faults:Faults.Plan.t ->
  ?disk:Storage.Disk.config ->
  ?tiers:Storage.Tiers.config ->
  config:Hconfig.t ->
  vsconfig:Vswapper.Vsconfig.t ->
  swap_slots:int ->
  images:int list ->
  unit ->
  t

(** [image t i] is the [i]-th image laid out by {!create}. *)
val image : t -> int -> Storage.Vdisk.t

(** [add_image t ~id ~nblocks] lays an image out past the swap area
    and every image added before it. *)
val add_image : t -> id:int -> nblocks:int -> Storage.Vdisk.t

val engine : t -> Sim.Engine.t
val stats : t -> Metrics.Stats.t
val config : t -> Hconfig.t

(** [tally t] copies the engine's own counters into the host's stats
    and returns them. *)
val tally : t -> Metrics.Stats.t

(** [register_guest t ~vdisk ~gpa_pages ~resident_limit] admits a guest
    with [gpa_pages] of guest-physical memory, its disk image, and an
    optional cgroup resident-set cap (in frames, covering both guest
    memory and the per-guest hypervisor pages).  It also grows the host
    frame table ({!Frames.reserve}) to what the guests registered so far
    can hold: a capped guest adds [min resident_limit gpa_pages] plus
    its 64 hypervisor pages, an uncapped one reserves the whole host.
    Registering is set-up work: call it from serial code, not from a
    pool domain. *)
val register_guest :
  t ->
  vdisk:Storage.Vdisk.t ->
  gpa_pages:int ->
  resident_limit:int option ->
  guest_id

(** {2 Failure containment} *)

(** [kill_guest t gid] tears the guest down, releasing every resource it
    holds — frames, swap slots and their slot-owner entries, Mapper
    trackings, Preventer buffers, hypervisor pages — and leaving every
    page [Not_backed].  Invoked by the host on unrecoverable I/O errors
    (media error, retry budget exhausted) and as the OOM last resort;
    also callable directly.  Idempotent.  [check_invariants] holds
    afterwards.  The registered kill handler (see {!set_kill_handler})
    is called exactly once, on the first kill. *)
val kill_guest : t -> guest_id -> unit

(** [set_kill_handler t f] registers the VMM callback invoked when the
    host kills a guest, so the scheduler can stop its vCPUs. *)
val set_kill_handler : t -> (guest_id -> unit) -> unit

val guest_killed : t -> guest_id -> bool

(** {2 Guest-context memory accesses} *)

(** [touch_read t ~guest ~gpa k] performs a CPU load; [k content] runs
    once the data is available (possibly after a major fault). *)
val touch_read :
  t -> guest:guest_id -> gpa:int -> (Storage.Content.t -> unit) -> unit

(** [touch_write t ~guest ~gpa ~offset ~len ~gen ~intent_full_page k]
    performs a CPU store of [len] bytes at [offset].  [gen] identifies
    the logical write (all stores of one full-page overwrite share it);
    [intent_full_page] marks stores that belong to a whole-page overwrite
    so the baseline can account false reads (it does not change
    behaviour). *)
val touch_write :
  t ->
  guest:guest_id ->
  gpa:int ->
  offset:int ->
  len:int ->
  gen:int ->
  intent_full_page:bool ->
  (unit -> unit) ->
  unit

(** [rep_write t ~guest ~gpa ~content k] is a whole-page REP-prefixed
    store (page zeroing, page-sized copies): the new page content is
    [content] and none of the old bytes survive. *)
val rep_write :
  t -> guest:guest_id -> gpa:int -> content:Storage.Content.t ->
  (unit -> unit) -> unit

(** {2 Virtual disk I/O (the QEMU emulation path)} *)

(** [vio_read t ~guest ~block0 ~gpas k] reads the contiguous blocks
    [block0 .. block0 + length gpas - 1] of the guest's image into the
    given guest pages.  The Mapper, when enabled, interposes here:
    destination pages are (re)mapped instead of faulted-in-and-DMA'd. *)
val vio_read :
  t ->
  ?aligned:bool ->
  guest:guest_id ->
  block0:int ->
  gpas:int array ->
  (unit -> unit) ->
  unit

(** [vio_write t ~guest ~block0 ~gpas k] writes the given guest pages to
    contiguous image blocks.  Runs the Mapper's data-consistency
    protocol (invalidate-then-write) and its write-then-map rule. *)
val vio_write :
  t ->
  ?aligned:bool ->
  guest:guest_id ->
  block0:int ->
  gpas:int array ->
  (unit -> unit) ->
  unit

(** [aligned] on the vio calls marks whether the guest issued the request
    on 4 KiB boundaries; misaligned requests (Windows guests without a
    reformatted disk, Section 5.4) bypass the Mapper's mmap machinery —
    though block invalidation still runs for consistency. *)

(** {2 Ballooning hooks} *)

(** [balloon_steal t ~guest ~gpa] transfers a guest-pinned page to the
    host: its frame/slot/mapping is released immediately. *)
val balloon_steal : t -> guest:guest_id -> gpa:int -> unit

(** [balloon_return t ~guest ~gpa] gives a ballooned page back to the
    guest; it faults back in as a zero page on next touch. *)
val balloon_return : t -> guest:guest_id -> gpa:int -> unit

(** {2 Introspection} *)

val free_frames : t -> int
val resident : t -> guest_id -> int
val mapper_tracked : t -> guest_id -> int

(** [gpa_pages t gid] is the size of the guest's physical address space
    in pages (the [gpa_pages] it was registered with). *)
val gpa_pages : t -> guest_id -> int
val page_state : t -> guest:guest_id -> gpa:int -> page_state
val frame_content : t -> guest:guest_id -> gpa:int -> Storage.Content.t option
val vdisk : t -> guest_id -> Storage.Vdisk.t

(** Migration-oriented view of one guest page (used by [lib/migration],
    the paper's Section 7 future-work direction). *)
type page_view =
  | V_unbacked  (** never touched or ballooned: nothing to send *)
  | V_present of {
      content : Storage.Content.t;
      named : bool;
      backing_block : int option;  (** Mapper backing, if tracked *)
    }
  | V_in_swap of { slot : int }
  | V_in_image of { block : int }

val page_view : t -> guest:guest_id -> gpa:int -> page_view

(** [swap_slot_sector t slot] is the physical sector of a host swap slot
    (for a migration source reading swapped pages off its own disk). *)
val swap_slot_sector : t -> int -> int

val disk : t -> Storage.Disk.t

(** The tier composite routing this host's swap traffic. *)
val tiers : t -> Storage.Tiers.t

(** The host swap area (the region the background scrubber patrols). *)
val swap_area : t -> Storage.Swap_area.t

(** [set_swapin_probe t (Some f)] installs an observer called once per
    completed swap-in target fault with the faulting guest and the
    end-to-end latency in microseconds — QoS park time included, since
    that is what the guest's thread waited.  Used by experiments to
    build per-guest latency distributions; [None] (the default) costs
    nothing. *)
val set_swapin_probe : t -> (gid:guest_id -> us:int -> unit) option -> unit

(** {2 Scrubber repair} *)

(** [relocate_slot t slot] moves the live page stored in swap [slot] to
    a freshly allocated slot: the content is carried over, the
    slot-owner table and the owning guest's EPT entry (or swap-cache
    backing pointer) are rewired in the same event, the old slot is
    freed, and the new slot is written out through the tier write-back
    path.  Returns [false] — changing nothing — if the slot is not
    live, its read is currently in flight, its guest is gone, or the
    swap area has no free slot.  [check_invariants] holds afterwards
    either way. *)
val relocate_slot : t -> int -> bool

(** [check_invariants t] walks all guests asserting internal consistency
    (EPT <-> frame-owner agreement, Mapper version freshness, swap-slot
    ownership).  Raises [Failure] with a description on violation; meant
    for tests. *)
val check_invariants : t -> unit
