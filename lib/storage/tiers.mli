(** Tiered swap-backend composite.

    Routes host swap traffic between a fast and a slow {!Backend}:
    swap-outs go to the fast tier while its slot share and admission
    policy allow (the compressed tier rejects incompressible pages),
    and to the slow tier otherwise; a slow-tier page is promoted to the
    fast tier when it proves hot (a target swap-in); cold fast-tier
    slots are written back to the slow tier by a clock-hand sweep run
    only when the fast tier is at its slot cap (capacity pressure, like
    the zswap shrinker).  The {!Swap_area} records each slot's tier
    so swap-in, readahead grouping and release all agree.

    The default {!disk_only} configuration is a pure passthrough to the
    {!Disk}: identical calls, no extra events, no per-slot metadata, no
    counters — a machine built with it behaves byte-for-byte like one
    that never heard of tiers. *)

type kind = Disk_tier | Czram | Remote

(** What callers vary: the tier pair, the fast tier's share and
    admission, the remote round trip, writeback and failover.  The
    compressed tier's compressibility seed and CPU costs and the remote
    link's bandwidth (10 Gbit/s) are constants of this module.
    {!create} rejects a field outside its stated range with
    [Invalid_argument] naming it. *)
type config = {
  fast : kind;
  slow : kind;
  fast_share_percent : int;  (** slot share of the fast tier; in [0, 100] *)
  czram_admit_ratio : float;
      (** max compressed/uncompressed ratio the pool accepts; [>= 0] *)
  remote_rtt_us : int;  (** network round-trip per request; [>= 0] *)
  writeback_idle_us : int;
      (** idle age beyond which a fast-tier slot is demotion-cold;
          [>= 0] *)
  writeback_batch : int;
      (** clock-hand slots swept per swap-out; [>= 1] *)
  tier_error_budget : int;
      (** fast-tier read errors tolerated before the tier is marked
          degraded (failover); 0 disables health tracking entirely;
          [>= 0] *)
  tier_probe_us : int;
      (** interval between probes of a degraded fast tier; [>= 1] *)
}

(** Both tiers on the disk: the passthrough default, and the [tiers]
    field of [Vmm.Config.default].  Callers pick another pair by
    overriding [fast] / [slow] and the per-tier fields. *)
val disk_only : config

type t

(** [create ~engine ~stats ~disk ~swap cfg] builds the composite and —
    unless [cfg] is the passthrough pair — installs a
    {!Swap_area.set_on_free} hook that returns per-slot tier resources
    on every free.  The [faults] plan feeds the czram/remote backends'
    per-tier error streams and the failover probe; omitting it (or
    passing {!Faults.Plan.none}) makes those tiers error-free, exactly
    the pre-fault-injection behaviour.  Raises [Invalid_argument] naming
    the first [cfg] field out of range. *)
val create :
  ?faults:Faults.Plan.t ->
  engine:Sim.Engine.t ->
  stats:Metrics.Stats.t ->
  disk:Disk.t ->
  swap:Swap_area.t ->
  config ->
  t

(** [swap_out t ~slot ~queue] stores the page of a freshly allocated
    slot, picking the tier by admission policy and recording it in the
    swap area.  Fire-and-forget, like {!Disk.write_buffered}. *)
val swap_out : t -> slot:int -> queue:int -> unit

(** [swap_in t ~slot ~sector ~nsectors ~queue ~attempt k] reads a span
    whose pages all live on [slot]'s tier (callers keep readahead
    homogeneous via {!same_tier}) and calls [k] on completion.  In
    tiered mode it also accounts per-tier swap-in latency and promotes
    the target slot after a successful slow-tier read. *)
val swap_in :
  t ->
  slot:int ->
  sector:int ->
  nsectors:int ->
  queue:int ->
  attempt:int ->
  (Backend.reply -> unit) ->
  unit

(** [verify_read t ~slot ~queue ~attempt k] is the scrubber's
    low-priority read of one allocated slot: served by the slot's tier
    like a swap-in, but it neither refreshes the slot's last-access
    time nor promotes it — a scrub pass over the whole area must not
    look like every page turning hot.  Errors count in the fault stats
    and feed the fast tier's failover budget. *)
val verify_read :
  t -> slot:int -> queue:int -> attempt:int -> (Backend.reply -> unit) -> unit

(** [same_tier t a b] — whether slots [a] and [b] live on the same tier
    (always true in passthrough).  Readahead must not span tiers: one
    request has one latency model. *)
val same_tier : t -> int -> int -> bool

val is_passthrough : t -> bool

(** Whether the fast tier is currently marked degraded.

    With [tier_error_budget > 0] and a non-disk fast tier, read errors
    beyond the budget trip the tier into a degraded state: new
    admissions route to the slow tier ([tier_failover_routes]),
    promotion stops, and resident slots drain back through the
    writeback path in [writeback_batch] bursts.  A degraded tier is
    probed every [tier_probe_us]: the remote link re-hashes its
    transient stream per probe (the flap clears when the hash does), a
    corrupted czram pool counts as reinitialized after one interval.
    Recovery resets the error count and re-opens admission. *)
val fast_degraded : t -> bool

(** Current fast-tier slot count and its cap. *)
val fast_slots : t -> int

val fast_capacity : t -> int
