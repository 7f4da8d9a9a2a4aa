(** The Swap Mapper (paper Section 4.1).

    Tracks, per guest, which memory pages are unmodified copies of
    virtual-disk blocks.  The hypervisor consults the Mapper at three
    points:

    - when serving guest disk I/O (to establish/refresh mappings and to
      run the data-consistency protocol on writes);
    - when the guest CPU stores to a tracked page (private-mapping COW
      semantics: the mapping breaks and the page becomes anonymous);
    - when reclaiming or faulting a guest page (named pages are dropped
      on reclaim and re-read from the image on fault, instead of
      round-tripping through the host swap area).

    The Mapper holds only the association; presence/absence of the page
    is the hypervisor's business.  An invariant checked throughout: a
    tracked page's recorded version always equals the current version of
    its backing block — the consistency protocol exists precisely to
    preserve this. *)

type t

(** Backing-store location of a tracked page. *)
type backing = { disk : int; block : int; version : int }

(** [create ~stats ()] makes an empty per-guest mapper whose tables
    start at 16 entries and double as mappings arrive, so a guest with
    the Mapper off holds a few hundred words of them.  [stats]'s
    [mapper_tracked] gauge is kept in sync. *)
val create : stats:Metrics.Stats.t -> unit -> t

(** [track t ~gpa ~disk ~block ~version] records that guest page [gpa]
    now holds block [block] of [disk] at [version].  Any previous mapping
    of [gpa] is dropped first.  Several pages may map the same block
    (like several private mmaps of one file page); they are all
    invalidated together when the block is overwritten. *)
val track : t -> gpa:int -> disk:int -> block:int -> version:int -> unit

(** [untrack t ~gpa] drops the mapping of [gpa] (guest stored to the
    page, or the page was repurposed).  No-op if untracked. *)
val untrack : t -> gpa:int -> unit

(** [lookup t ~gpa] is the backing of [gpa] if tracked.  Allocates; the
    fault/evict paths use the unboxed accessors below. *)
val lookup : t -> gpa:int -> backing option

(** [tracked_block t ~gpa] is the backing block of [gpa], or -1 if
    untracked.  Allocation-free. *)
val tracked_block : t -> gpa:int -> int

(** [tracked_version t ~gpa] is the backing version of [gpa], or -1. *)
val tracked_version : t -> gpa:int -> int

(** [gpas_of_block t ~disk ~block] are the guest pages tracked as holding
    the block. *)
val gpas_of_block : t -> disk:int -> block:int -> int list

(** [invalidate_block t ~disk ~block] runs the write-side consistency
    protocol: every mapping of the block is destroyed and the affected
    gpas returned so the hypervisor can preserve their old content
    (fault them in) {e before} letting the disk write proceed. *)
val invalidate_block : t -> disk:int -> block:int -> int list

(** [tracked t] is the number of tracked pages. *)
val tracked : t -> int

(** [readahead_window t ~disk ~block ~max] lists up to [max] blocks
    [block, block+1, ...] (consecutive, starting at [block]) that are
    tracked by this mapper, each paired with one tracked gpa.  Fault-time
    image readahead uses this: consecutive file blocks are contiguous in
    the image, so prefetching them is nearly free. *)
val readahead_window :
  t -> disk:int -> block:int -> max:int -> (int * int list) list

(** [iter t f] visits all (gpa, backing) pairs. *)
val iter : t -> (int -> backing -> unit) -> unit
