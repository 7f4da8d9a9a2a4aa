(** Tiered swap: a fast tier in front of the disk.

    Routes host swap traffic between a fast tier and the {!Disk}, the
    slow tier: swap-outs go to the fast tier while its slot share and
    admission policy allow (the compressed tier rejects incompressible
    pages), and to the disk otherwise; a disk-tier page is promoted to
    the fast tier when it proves hot (a target swap-in); cold fast-tier
    slots are written back to the disk by a clock-hand sweep run only
    when the fast tier is at its slot cap (capacity pressure, like the
    zswap shrinker).  The {!Swap_area} records each slot's tier (0 the
    fast tier, 1 the disk) so swap-in, readahead grouping and release
    all agree.

    Two fast tiers exist.  Each serializes on one resource, kept as an
    integer microsecond cursor in virtual time, so service times are a
    pure function of the event order:

    - [Czram], a compressed-RAM pool (zswap-style).  Each page's
      compressed/uncompressed ratio is a pure hash of the page index in
      [\[0.15, 1.25)]; a page whose ratio exceeds [czram_admit_ratio],
      or that would push the pool past its capacity (the fast share at
      a 3/5 compressed ratio), is rejected.  Service is CPU time, 10 µs
      per page compressed and 5 µs per page decompressed, serialized
      on the one compressor: no seek, but concurrent requests queue.
      Under a fault plan, reads consult {!Faults.Plan.czram_error}:
      pool corruption, a persistent [Media] error keyed on the page.
    - [Remote], far memory behind a 10 Gbit/s link.  Every request pays
      [remote_rtt_us], and payloads serialize on the link (a
      one-transfer token bucket), so RTTs overlap but concurrent
      swap-ins queue on link capacity.  Under a fault plan, reads
      consult {!Faults.Plan.remote_error}: link timeouts, [Transient]
      errors that a retry can clear, noticed after the full RTT and
      transfer.

    The default {!disk_only} configuration has no fast tier: a pure
    passthrough to the {!Disk} with identical calls, no extra events,
    no per-slot metadata and no counters.  A machine built with it
    behaves byte-for-byte like one that never heard of tiers. *)

(** The fast tier; [Disk_tier] means none (the passthrough). *)
type kind = Disk_tier | Czram | Remote

(** What callers vary: the fast tier, its share and admission, the
    remote round trip, writeback and failover.  The compressed tier's
    compressibility seed and CPU costs, the remote link's bandwidth,
    the writeback sweep's batch (64 slots) and the degraded tier's
    probe interval (500 ms) are constants of this module.  {!create}
    rejects a field outside its stated range with [Invalid_argument]
    naming it. *)
type config = {
  fast : kind;
  fast_share_percent : int;  (** slot share of the fast tier; in [0, 100] *)
  czram_admit_ratio : float;
      (** max compressed/uncompressed ratio the pool accepts; [>= 0] *)
  remote_rtt_us : int;  (** network round-trip per request; [>= 0] *)
  writeback_idle_us : int;
      (** idle age beyond which a fast-tier slot is demotion-cold;
          [>= 0] *)
  tier_error_budget : int;
      (** fast-tier read errors tolerated before the tier is marked
          degraded (failover); 0 disables health tracking entirely;
          [>= 0] *)
}

(** No fast tier: the passthrough default, and the [tiers] field of
    [Vmm.Config.default].  Callers pick a fast tier by overriding
    [fast] and the per-tier fields. *)
val disk_only : config

type t

(** [create ~engine ~stats ~disk ~swap cfg] builds the composite and,
    unless [cfg] is the passthrough, installs a {!Swap_area.set_on_free}
    hook that returns per-slot fast-tier resources on every free.  The
    [faults] plan feeds the fast tier's error stream and the failover
    probe; omitting it (or passing {!Faults.Plan.none}) makes the fast
    tier error-free.  Raises [Invalid_argument] naming the first [cfg]
    field out of range. *)
val create :
  ?faults:Faults.Plan.t ->
  engine:Sim.Engine.t ->
  stats:Metrics.Stats.t ->
  disk:Disk.t ->
  swap:Swap_area.t ->
  config ->
  t

(** [swap_out t ~slot] stores the page of a freshly allocated slot,
    picking the tier by admission policy and recording it in the swap
    area.  Fire-and-forget, like {!Disk.write_buffered}. *)
val swap_out : t -> slot:int -> unit

(** [swap_in t ~slot ~sector ~nsectors ~queue ~attempt k] reads a span
    whose pages all live on [slot]'s tier (callers keep readahead
    homogeneous via {!same_tier}) and calls [k] on completion.  [queue]
    steers a disk read ({!Disk.submit}); [attempt] keys the transient
    faults of the disk and the remote tier.  In tiered mode it also
    accounts per-tier swap-in latency and promotes the target slot
    after a successful disk-tier read. *)
val swap_in :
  t ->
  slot:int ->
  sector:int ->
  nsectors:int ->
  queue:int ->
  attempt:int ->
  (Disk.reply -> unit) ->
  unit

(** [verify_read t ~slot ~queue ~attempt k] is the scrubber's
    low-priority read of one allocated slot: served by the slot's tier
    like a swap-in, but it neither refreshes the slot's last-access
    time nor promotes it — a scrub pass over the whole area must not
    look like every page turning hot.  Errors count in the fault stats
    and feed the fast tier's failover budget. *)
val verify_read :
  t -> slot:int -> queue:int -> attempt:int -> (Disk.reply -> unit) -> unit

(** [same_tier t a b] — whether slots [a] and [b] live on the same tier
    (always true in passthrough).  Readahead must not span tiers: one
    request has one latency model. *)
val same_tier : t -> int -> int -> bool

val is_passthrough : t -> bool

(** Whether the fast tier is currently marked degraded.

    With [tier_error_budget > 0], fast-tier read errors beyond the
    budget trip the tier into a degraded state: new admissions route to
    the disk ([tier_failover_routes]), promotion stops, and resident
    slots drain back through the writeback path in sweep-sized bursts.
    A degraded tier is probed every probe interval: the remote link
    re-hashes its transient stream per probe (the flap clears when the
    hash does), a corrupted czram pool counts as reinitialized after
    one interval.  Recovery resets the error count and re-opens
    admission. *)
val fast_degraded : t -> bool

(** Current fast-tier slot count and its cap. *)
val fast_slots : t -> int

val fast_capacity : t -> int
