(** Live-migration transfer using VSwapper's machinery — the paper's
    Section 7 future-work direction, implemented:

    "Hypervisors that migrate guests can migrate memory mappings instead
    of (named) memory pages; and hypervisors to which a guest is
    migrated can avoid requesting memory pages that are wholly
    overwritten by guests."

    This models the stop-and-copy transfer of a guest's memory image
    over a network link.  Under [Full_copy], every backed page crosses
    the wire as 4 KiB of data — pages the source host had swapped out or
    discarded must first be read back from its disk.  Under
    [Mapper_aware], Mapper-tracked pages (present-named or discarded to
    the image) travel as tiny mapping records that the destination can
    refetch locally from the shared/copied image, and zero pages are
    skipped entirely (the destination recreates them on touch, the
    Preventer-style "wholly overwritten" avoidance). *)

type strategy = Full_copy | Mapper_aware

type link = {
  bandwidth_mb_s : float;  (** sustained network throughput *)
  rtt : Sim.Time.t;  (** connection setup/teardown latency *)
}

(** A 1 GbE link. *)
val gbe : link

(** A 10 GbE link. *)
val ten_gbe : link

type report = {
  duration : Sim.Time.t;  (** transfer wall time, max(disk, wire) + rtt *)
  bytes_sent : int;
  pages_copied : int;  (** full 4 KiB pages on the wire *)
  mappings_sent : int;  (** 32-byte mapping records instead of pages *)
  pages_skipped : int;  (** zero/unbacked pages never transferred *)
  source_disk_reads : int;  (** swapped/discarded pages read back first *)
  retries : int;  (** transient read errors retried during the transfer *)
  throttled_batches : int;
      (** read batches that were delayed by the dirty-rate backoff
          because the previous batch saw transient errors *)
}

(** Why a migration was abandoned: the typed disk error that could not
    be recovered, the sector it struck, and how many transient retries
    had succeeded before it. *)
type abort = {
  error : Storage.Disk.error;
  failed_sector : int;
  retries_before_abort : int;
}

type outcome = Completed of report | Aborted of abort

(** [migrate ~host ~guest link strategy k] computes the transfer of
    [host]'s guest [guest] on the host's engine (the source's disk reads
    contend with whatever else the host is doing) and passes the outcome
    to [k].  The guest is treated as paused for the duration; its memory
    state is not modified.

    Source read-back I/O is issued in bounded batches of 64 reads and
    follows the typed-error discipline from {!Faults}: a [Transient]
    failure is retried up to 4 times with exponential backoff starting
    at 500 microseconds.  When a read's
    in-batch retry budget runs dry it is parked and reissued with a
    later batch instead of aborting, and a batch that saw any transient
    error doubles an inter-batch delay (reset by the next clean batch) —
    the copy rate adapts to a source tier degrading mid-iteration,
    slowing down rather than giving up.  Only a page parked more than 8
    times, or a [Media] failure
    (permanent for its sector no matter the pacing — the source cannot
    fabricate a page its disk has lost), aborts the migration, after
    all outstanding reads drain, reporting [Aborted] with the first
    fatal error.  Swapped pages are read back through the host's
    {!Storage.Tiers} composite — a page resident in the compressed or
    remote tier is fetched from that tier — so tier-level failures (a
    flapping remote link, a degraded fast tier) flow through the same
    retry/throttle/abort discipline as raw disk errors. *)
val migrate :
  host:Host.Hostmm.t ->
  guest:Host.Hostmm.guest_id ->
  link ->
  strategy ->
  (outcome -> unit) ->
  unit

val pp_report : Format.formatter -> report -> unit
