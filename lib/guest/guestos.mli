(** The guest operating system.

    Models the memory-management behaviour of a general-purpose OS from
    the hypervisor's point of view: a page cache with sequential file
    readahead, anonymous process memory that is zeroed on first touch,
    active/inactive page reclaim with preferential eviction of clean file
    pages, a swap partition on the guest's own virtual disk, an OOM
    killer, and a balloon driver.

    The guest is *unaware* of host swapping: it addresses everything in
    guest-physical pages (gpas) and calls into {!Host.Hostmm} for every
    memory access and disk operation; host-level faults and their costs
    happen behind its back — which is the point of the paper.

    All potentially blocking operations are continuation-passing: the
    continuation runs at the virtual time the operation completes. *)

type t

(** A contiguous file on the guest filesystem. *)
type file

(** An anonymous memory region (heap/stack of a process). *)
type region

(** [create ~host ~gid ~config] builds guest [gid] on [host], running
    on the host's engine and counting into its stats, with every page
    free; {!boot} then touches its kernel.  The kernel takes
    [min (24 MiB) (mem_pages / 8)] pages; reclaim starts below
    [max 64 (mem_pages / 100)] free pages and refills to
    [max 128 (3 * mem_pages / 100)].  Raises [Invalid_argument] naming
    the first [config] field out of range. *)
val create :
  host:Host.Hostmm.t -> gid:Host.Hostmm.guest_id -> config:Gconfig.t -> t

val gid : t -> int
val config : t -> Gconfig.t

(** [boot t k] allocates and touches the kernel working set. *)
val boot : t -> (unit -> unit) -> unit

(** [warm_all_memory t k] touches every free guest page once and frees it
    again — the state of a guest that has been running for a while, which
    is the precondition for the paper's stale-read experiments (free
    guest pages whose frames the host has reclaimed). *)
val warm_all_memory : t -> (unit -> unit) -> unit

(** {2 Files} *)

(** [create_file t ~blocks] lays out a file of [blocks] 4 KiB blocks
    contiguously on the virtual disk. *)
val create_file : t -> blocks:int -> file

(** [read_file t f ~idx k] reads block [idx] of [f] through the page
    cache (sequential patterns trigger readahead). *)
val read_file : t -> file -> idx:int -> (unit -> unit) -> unit

(** [write_file t f ~idx k] overwrites block [idx] of [f] in the page
    cache, marking the page dirty (written back by reclaim). *)
val write_file : t -> file -> idx:int -> (unit -> unit) -> unit

(** [fsync_file t f k] writes back all dirty cached pages of [f]. *)
val fsync_file : t -> file -> (unit -> unit) -> unit

(** {2 Anonymous memory} *)

val alloc_region : t -> pages:int -> region
val region_pages : region -> int

(** [touch t r ~idx ~write k] accesses one page of the region with a load
    or a small (sub-page) store; first touch demand-allocates and zeroes
    the page, guest-swapped pages are faulted back in. *)
val touch : t -> region -> idx:int -> write:bool -> (unit -> unit) -> unit

(** [overwrite_page t r ~idx k] overwrites a whole page with a
    REP-prefixed store (memset-style). *)
val overwrite_page : t -> region -> idx:int -> (unit -> unit) -> unit

(** [memcpy_page t r ~idx k] overwrites a whole page with a sequence of
    eight sequential 512-byte stores (memcpy-style) — the pattern the
    False Reads Preventer must buffer to win. *)
val memcpy_page : t -> region -> idx:int -> (unit -> unit) -> unit

(** [free_region t r] releases the region; freed pages return to the
    guest free list {e without} notifying the host. *)
val free_region : t -> region -> unit

(** {2 Ballooning and services} *)

(** [set_balloon_target t ~pages] tells the balloon driver how many guest
    pages the host wants pinned; the driver converges at a bounded rate. *)
val set_balloon_target : t -> pages:int -> unit

val balloon_target : t -> int
val balloon_size : t -> int

(** [start_services t] starts the balloon driver poll loop and background
    kernel activity. *)
val start_services : t -> unit

(** {2 OOM} *)

(** [set_oom_handler t f] installs the process the OOM killer kills. *)
val set_oom_handler : t -> (unit -> unit) -> unit

val oomed : t -> bool

(** {2 Introspection} *)

val free_pages : t -> int
val cache_pages : t -> int
val dirty_cache_pages : t -> int

(** [check_invariants t] asserts internal consistency (free-list/kind
    agreement, cache maps, LRU residency); for tests. *)
val check_invariants : t -> unit
