(** Fleet simulator: N independent host simulations stepped in parallel
    epochs under a cluster controller.

    Each host shard is one {!Host.Hostmm.create} host — its own
    engine, stats, disk, swap area and guests — and shares nothing
    mutable with any other shard, so an
    epoch steps all hosts concurrently on a {!Parallel.Pool} with zero
    cross-shard synchronization.  Between epochs a serial barrier runs
    the controller: it harvests OOM kills and tenant departures,
    resolves in-flight evacuations, places new arrivals (first-fit
    decreasing under a configurable overcommit ratio), and starts
    pressure-driven rebalancing migrations ({!Migration.Migrate} reads
    the source's pages back through its own tiers/disk, contending with
    the guests still running there).

    Determinism: every shard is a closed deterministic simulation in
    virtual time; the controller runs serially in host-index order; the
    epoch reduction folds per-host stats in host order with
    order-independent merges ({!Metrics.Stats.add}).  The pool only
    changes which wall-clock instant each shard steps at — stats,
    report and fingerprint are byte-identical at any pool width. *)

(** What callers vary: the fleet's size, overcommit, length, traffic
    seed and arrival rate.  The host shape, the epoch length, the
    per-VM load and the evacuation policy are constants of this module.
    {!run} rejects a field outside its stated range with
    [Invalid_argument] naming it. *)
type config = {
  hosts : int;  (** [>= 1] *)
  overcommit : float;
      (** placement bound: committed MB <= host_mem_mb * overcommit;
          finite and [> 0] *)
  epochs : int;  (** [>= 0] *)
  seed : int;  (** traffic seed *)
  mean_arrivals : float;
      (** expected tenant arrivals per epoch at load 1; finite and
          [>= 0] *)
}

(** 128 hosts, 1.5x overcommit, 12 epochs, ~2.5 arrivals per host-epoch
    at load 1. *)
val default_config : config

(** Physical memory per host, MB (96); each host also has 256 MB of
    swap. *)
val host_mem_mb : int

(** Simulated seconds per epoch (20). *)
val epoch_s : int

(** One barrier row, in epoch order. *)
type epoch_row = {
  epoch : int;
  load : float;  (** diurnal traffic intensity *)
  live : int;  (** VMs running after this barrier *)
  placed : int;
  rejected : int;  (** arrivals refused (no host within the bound) *)
  departed : int;
  oom_killed : int;
  migrations_started : int;
  migrations_done : int;
  migrations_aborted : int;
  swapins : int;  (** fleet-wide host swap-ins during the epoch *)
  swapouts : int;
  max_committed_mb : int;  (** most-committed host after placement *)
}

type result = {
  rows : epoch_row list;  (** one per epoch, in order *)
  guests_placed : int;  (** cumulative VMs placed *)
  guests_rejected : int;
  pages_placed : int;  (** cumulative pages of placed VMs *)
  peak_live_pages : int;  (** max concurrent live pages at a barrier *)
  guest_seconds : int;  (** integral of live VMs over simulated time *)
  migrations : int;  (** completed evacuations *)
  migrations_aborted : int;
  migration_throttled_batches : int;
      (** dirty-rate backoff delays across all evacuations *)
  oom_kills : int;
  totals : Metrics.Stats.t;
      (** all shards reduced in host order, engine telemetry included *)
  fingerprint : int;  (** hash of totals + headline counters *)
  committed_ok : bool;
      (** no host ever exceeded the overcommit bound (checked at every
          placement, reservation and migration landing) *)
  migration_accounting_ok : bool;
      (** every completed evacuation classified exactly its guest's
          pages: copied + mappings + skipped = gpa_pages *)
  live_heap_words : int;
      (** [Gc] live words at the last barrier, every shard still alive;
          wall-clock-free but allocator-dependent — keep out of
          deterministic output *)
}

(** [run ?pool config] simulates the fleet, stepping shards on [pool]
    (default {!Parallel.Pool.global}).  The result is independent of
    the pool width.  Raises [Invalid_argument] naming the first
    [config] field out of range. *)
val run : ?pool:Parallel.Pool.t -> config -> result

(** [report r] renders the deterministic summary: per-epoch panel,
    headline counters, invariant checks and fingerprint.  Contains no
    wall-clock or heap quantities, so two runs of the same config
    produce byte-identical reports. *)
val report : result -> string
