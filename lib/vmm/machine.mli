(** Machine assembly and execution.

    Builds the whole simulated testbed from a {!Config.t} — one
    {!Host.Hostmm.create} host (its engine, its disk with one image per
    guest, image [i] for guest [i], laid out before the host swap area),
    the guests on it — and drives it:

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

(** Raises [Invalid_argument] naming the first {!Config.t} field out of
    range: [host_mem_mb], [host_swap_mb] and each guest's [mem_mb] and
    [vcpus] must be [>= 1], [time_limit > 0], a guest's [data_mb >= 0],
    its [resident_limit_mb], when set, [>= 1] and its
    [balloon_static_mb], when set, in [\[1, mem_mb\]]. *)
val build : Config.t -> t

(** {2 Accessors for probes and tests; valid after [build]} *)

val engine : t -> Sim.Engine.t

(** The host, whose stats and disk are the machine's. *)
val host : t -> Host.Hostmm.t

(** [os t i] is guest [i]'s OS (by index in the config's guest list). *)
val os : t -> int -> Guest.Guestos.t

(** [run t] executes the machine to completion and returns the results.
    May be called once. *)
val run : t -> result
