(** Machine assembly and execution.

    Builds the whole simulated testbed from a {!Config.t} — engine, one
    shared physical disk (hypervisor region, then one image per guest,
    then the host swap area), the hypervisor, the guests — and drives it:

    boot (+ optional full-memory warmup) -> static balloon convergence ->
    disk settle -> epoch -> each guest's workload at its offset ->
    run to completion (or the time limit).

    Per-guest VCPU scheduling gives Linux-style asynchronous page
    faults: a thread blocking on I/O frees its VCPU for the guest's
    other ready threads. *)

type t

type guest_result = {
  runtime : Sim.Time.t option;  (** None if the workload was OOM-killed *)
  oomed : bool;
}

type result = {
  guests : guest_result array;
  stats : Metrics.Stats.t;
  wall : Sim.Time.t;  (** virtual time when the run ended *)
  hit_time_limit : bool;
}

val build : Config.t -> t

(** {2 Accessors for probes and tests; valid after [build]} *)

val engine : t -> Sim.Engine.t
val stats : t -> Metrics.Stats.t
val host : t -> Host.Hostmm.t
val disk : t -> Storage.Disk.t

(** The background scrubber, when the config's
    [hbase.scrub_rate_pages_s > 0]; [None] means no scrub ticks are
    ever scheduled.  Armed at the workload epoch — not at [build] — so
    its verify reads do not hold the boot sequence's disk-settle wait
    open.  Exposed so draining tests can [Host.Scrub.stop] the
    perpetual timer. *)
val scrub : t -> Host.Scrub.t option

(** [os t i] is guest [i]'s OS (by index in the config's guest list). *)
val os : t -> int -> Guest.Guestos.t

val n_guests : t -> int

(** [run t] executes the machine to completion and returns the results.
    May be called once. *)
val run : t -> result
