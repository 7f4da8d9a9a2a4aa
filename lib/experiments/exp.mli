(** Common experiment machinery: the five paper configurations, scaled
    runs, mark collection for per-iteration figures, and rendering of
    paper-vs-measured outputs. *)

(** One reproducible experiment (a figure or table of the paper). *)
type t = {
  id : string;  (** e.g. "fig3" *)
  title : string;
  paper_claim : string;  (** what the paper reports, for side-by-side *)
  run : scale:float -> string;  (** returns the rendered result block *)
}

(** The paper's five configurations (Section 5): baseline, balloon +
    baseline, mapper (VSwapper without the Preventer), vswapper, and
    balloon + vswapper. *)
type config_kind =
  | Baseline
  | Balloon_baseline
  | Mapper_only
  | Vswapper_full
  | Balloon_vswapper

val config_name : config_kind -> string
val all_configs : config_kind list

(** [vs_of kind] is the VSwapper feature set of the configuration. *)
val vs_of : config_kind -> Vswapper.Vsconfig.t

(** [ballooned kind] tells whether the configuration pre-inflates a
    static balloon. *)
val ballooned : config_kind -> bool

(** [mb scale x] scales a MiB quantity, with a 16 MiB floor. *)
val mb : float -> int -> int

(** [scaled_int scale x ~min] scales a count. *)
val scaled_int : float -> int -> min:int -> int

(** Captured per-mark snapshot: mark index, virtual time, stats copy. *)
type mark = { index : int; at : Sim.Time.t; snapshot : Metrics.Stats.t }

(** [mark_collector machine_ref] returns [(on_mark, get_marks)]:
    [on_mark i] snapshots time and stats of the machine in the ref. *)
val mark_collector :
  Vmm.Machine.t option ref -> (int -> unit) * (unit -> mark list)

(** Result of one machine run, condensed. *)
type run_out = {
  runtime_s : float option;  (** guest 0; None if OOM-killed *)
  per_guest_s : float option array;
  stats : Metrics.Stats.t;
  oomed : bool;
  marks : mark list;
}

(** [run_config ?marks cfg] builds and runs a machine.  [marks] is the
    collector's getter, invoked after the run. *)
val run_machine : ?get_marks:(unit -> mark list) -> Vmm.Machine.t -> run_out

(** [record_disk_stats s] folds one run's stats into the cross-run
    totals below — [run_machine] does it automatically; experiments that
    drive simulations outside a {!Vmm.Machine} (the fleet) call it
    directly with their reduced totals. *)
val record_disk_stats : Metrics.Stats.t -> unit

(** Disk read-batching totals summed over every [run_machine] since the
    last [reset_disk_totals].  Accumulated with atomics so runs on
    parallel sweep domains count too; sums are order-independent, so the
    totals are deterministic at any job count. *)
type disk_totals = {
  reads : int;  (** individual read requests served from the media *)
  batches : int;  (** media accesses those reads were coalesced into *)
  batch_sectors : int;  (** total sectors spanned by read batches *)
}

val reset_disk_totals : unit -> unit
val disk_totals : unit -> disk_totals

(** Fault-injection totals summed over every [run_machine] since the last
    [reset_fault_totals], with the same atomic (order-independent)
    accumulation discipline as {!disk_totals}. *)
type fault_totals = {
  injected : int;  (** read requests completed with an injected error *)
  retried : int;  (** transparent retries after transient errors *)
  degraded : int;  (** media accesses slowed by a degraded-latency fault *)
  killed : int;  (** guests abandoned after unrecoverable I/O failures *)
  destage_lost : int;
      (** destaged sectors lost to media errors (or retry exhaustion) *)
  destage_retried : int;  (** destaged sectors re-queued after transients *)
}

val reset_fault_totals : unit -> unit
val fault_totals : unit -> fault_totals

(** Tiered swap-backend totals summed over every [run_machine] since the
    last [reset_tier_totals], with the same atomic accumulation
    discipline as {!disk_totals}.  All zero when every run used the
    disk-only passthrough. *)
type tier_totals = {
  admissions : int;  (** swap-outs accepted by the fast tier *)
  rejects : int;  (** swap-outs the fast tier refused (routed slow) *)
  promotions : int;  (** slow-tier swap-ins copied up to the fast tier *)
  demotions : int;  (** cold fast-tier slots written back to the slow tier *)
  writeback_sectors : int;  (** sectors moved by demotion writeback *)
  fast_swapins : int;
  slow_swapins : int;
  fast_swapin_us : int;  (** summed fast-tier swap-in service time *)
  slow_swapin_us : int;  (** summed slow-tier swap-in service time *)
}

val reset_tier_totals : unit -> unit
val tier_totals : unit -> tier_totals

(** Degraded-media survival totals (background scrubber, per-guest I/O
    QoS, tier failover) summed over every [run_machine] since the last
    [reset_resilience2_totals], with the same atomic accumulation
    discipline as {!disk_totals}.  All zero when no run armed the
    scrubber, the QoS layer, or a fault-injecting tier pair. *)
type resilience2_totals = {
  scrub_scans : int;  (** complete scrub passes over the swap area *)
  scrub_verify_reads : int;  (** low-priority verify reads issued *)
  scrub_media_found : int;  (** latent media errors the scrubber hit first *)
  scrub_relocations : int;  (** damaged live slots moved to healthy ones *)
  scrub_reloc_failed : int;  (** repairs skipped (budget / stale slot) *)
  qos_throttled : int;  (** swap-in faults parked by admission control *)
  qos_throttle_wait_us : int;  (** summed park time of released faults *)
  tier_degraded_events : int;  (** fast-tier trips into the degraded state *)
  tier_recovered_events : int;  (** successful probes back to healthy *)
  tier_failover_routes : int;  (** admissions re-routed off a degraded tier *)
  media_reads : int;  (** guest swap-in reads that hit a media error *)
  pages_lost : int;  (** swapped pages torn down with their killed guest *)
}

val reset_resilience2_totals : unit -> unit
val resilience2_totals : unit -> resilience2_totals

(** Event-engine telemetry totals summed over every [run_machine] since
    the last [reset_engine_totals], with the same atomic accumulation
    discipline as {!disk_totals}. *)
type engine_totals = {
  fired : int;  (** event callbacks invoked *)
  cancels_reclaimed : int;  (** cancelled event records recycled *)
  cascades : int;  (** timing-wheel slot redistributions *)
}

val reset_engine_totals : unit -> unit
val engine_totals : unit -> engine_totals

(** Async fault-path and multi-queue disk totals over every
    [run_machine] since the last [reset_async_totals].  Counts are
    atomic sums; the two highwaters combine via an order-independent
    max, so all five stay deterministic at any job count. *)
type async_totals = {
  waiter_merges : int;  (** faults that piggybacked on an in-flight key *)
  deferred : int;  (** fault starts parked by the per-guest bound *)
  inflight_highwater : int;  (** max concurrent target faults, any run *)
  mq_batches : int;  (** media batches served on queues other than 0 *)
  queue_depth_highwater : int;  (** max concurrent in-service batches *)
}

val reset_async_totals : unit -> unit
val async_totals : unit -> async_totals

(** One (jobs, throughput) point of the fleet scaling table. *)
type fleet_jobs_point = {
  fj_jobs : int;
  fj_wall_s : float;
  fj_guest_seconds_per_s : float;  (** simulated guest-seconds per wall second *)
  fj_speedup : float;  (** vs the jobs=1 run of the same sweep *)
}

(** Fleet-experiment totals for the bench JSON summary, set wholesale by
    the fleet experiment (both of its runs happen inside one experiment
    body).  [None] until the fleet experiment has run. *)
type fleet_totals = {
  fleet_hosts : int;
  fleet_guests : int;  (** VMs placed over the whole history *)
  fleet_rejected : int;
  fleet_pages : int;  (** pages of placed VMs *)
  fleet_epochs : int;
  fleet_migrations : int;  (** completed rebalance evacuations *)
  fleet_migrations_aborted : int;
  fleet_throttled_batches : int;  (** dirty-rate backoff delays *)
  fleet_oom_kills : int;
  fleet_heap_words_per_page : float;  (** live words / peak live pages *)
  fleet_per_jobs : fleet_jobs_point list;
}

val reset_fleet_totals : unit -> unit
val set_fleet_totals : fleet_totals -> unit
val fleet_totals : unit -> fleet_totals option

(** [with_exp_tag tag f] runs [f] with the engine-telemetry attribution
    tag set (and restores the previous tag after).  The registry tags
    each experiment's job with its id; {!shard} re-establishes the
    submitting experiment's tag around every sub-job, so help-executed
    shards attribute to the right experiment at any job count. *)
val with_exp_tag : string option -> (unit -> 'a) -> 'a

(** [exp_engine_events ()] is the per-experiment fired-event totals seen
    so far, sorted by experiment id. *)
val exp_engine_events : unit -> (string * int) list

(** Fault knobs for the resilience experiment, set once by the bench
    driver (--fault-seed / --fault-rate) before the sweep starts so
    worker domains only ever read them.  A [rate] of 0 (the default)
    keeps the experiment's built-in fault-rate grid. *)
val set_fault_knobs : ?seed:int -> ?rate:float -> unit -> unit

val fault_seed_knob : unit -> int
val fault_rate_knob : unit -> float

(** [opt_s r] is the runtime as an option-float cell for series tables. *)
val opt_s : run_out -> float option

(** [shard f xs] fans [f] over [xs] on the shared {!Parallel.Pool.global}
    pool and returns the results in the order of [xs].  Safe to call from
    inside an experiment already running as a pool job (the pool's [map]
    is re-entrant); a job's exception is re-raised, so a failing point
    fails the experiment exactly as a serial loop would. *)
val shard : ('a -> 'b) -> 'a list -> 'b list

(** [group k xs] splits [xs] into consecutive chunks of length [k] (the
    last chunk may be shorter). *)
val group : int -> 'a list -> 'a list list

(** [header ~id ~title ~paper_claim body] formats an experiment block. *)
val header : id:string -> title:string -> paper_claim:string -> string -> string
