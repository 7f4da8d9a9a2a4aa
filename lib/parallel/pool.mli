(** Nesting-safe, work-sharing pool of OCaml 5 domains.

    The pool is built for fan-out over independent jobs — each bench
    experiment owns its engine, RNG and disk, so whole experiments run on
    separate domains, and the heavy experiments in turn fan their
    per-configuration machine runs out over the same pool.  Results always
    come back in submission order and per-job exceptions are captured
    rather than tearing down the pool, so a parallel sweep is observably
    identical to the serial one (modulo wall-clock).

    Jobs MAY call {!map} on the same pool: [map] is re-entrant.  A caller
    whose jobs are not yet done does not sleep on the fixed worker set —
    it pops and executes queued jobs itself (including other callers'
    jobs, since the shared queue is FIFO) until its own are done, and
    blocks only for jobs of its own that another domain is actively
    executing.  Every submitter therefore guarantees progress for
    everything it enqueued, and nested submissions cannot deadlock no
    matter how deep they go or how few workers exist.

    Most code should share one pool rather than spawning private worker
    sets: {!global} returns the process-wide instance ({!default_jobs}
    wide at first use; resize with {!set_global_jobs}). *)

type t

(** Upper bound on the pool width.  The OCaml runtime supports at most
    128 simultaneous domains; requested widths are clamped to
    [1 .. max_jobs] (with a once-per-process warning on stderr when an
    explicitly requested width is clamped). *)
val max_jobs : int

(** [default_jobs ()] is the pool width used when [?jobs] is omitted:
    [Domain.recommended_domain_count () - 1], clamped to
    [1 .. max_jobs].  The environment is not consulted; callers that
    want another width pass [?jobs] or call {!set_global_jobs}. *)
val default_jobs : unit -> int

(** [create ?jobs ()] spawns [jobs - 1] worker domains ([jobs] counts the
    submitting domain, which also executes work during {!map}).  With
    [jobs <= 1] no domains are spawned and [map] degenerates to an inline
    serial loop — bit-identical to running the jobs by hand. *)
val create : ?jobs:int -> unit -> t

(** [jobs t] is the effective parallelism (clamped to [1 .. max_jobs]). *)
val jobs : t -> int

(** [map t f xs] applies [f] to every element of [xs], fanning the calls
    out across the pool, and returns the results in the order of [xs].
    An exception raised by [f x] is captured as [Error exn] for that
    element only; other jobs — including those of an enclosing [map] that
    the failing job was nested under — are unaffected.  Safe to call from
    inside a job running on the same pool (see the header). *)
val map : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list

(** Cumulative execution counters of a pool, for observability (the
    repo benchmark reports [helper_jobs] as [pool.helper_jobs]).
    [worker_jobs] were executed by dedicated worker domains;
    [helper_jobs] by a submitter inside {!map} — its own jobs, another
    caller's, or the inline serial path; [peak_queue_depth] is the
    deepest the shared queue has been. *)
type stats = {
  jobs : int;
  worker_jobs : int;
  helper_jobs : int;
  peak_queue_depth : int;
}

(** [iter_all t thunks] runs every thunk to completion before returning —
    a barrier fan-out for callers that step preallocated shards every
    epoch.  Unlike {!map} there is no per-job result boxing and no list
    conversion: the caller owns (and reuses) the thunk array, so the
    steady-state epoch loop allocates only queue nodes.  The submitter
    helps execute queued work exactly as in [map], so nested use is
    safe.  If thunks raise, every thunk still runs and, after the
    barrier, the exception of the first failing thunk in array order is
    re-raised — the same one at every pool width.  With [jobs t <= 1]
    the thunks run inline, in array order. *)
val iter_all : t -> (unit -> unit) array -> unit

val stats : t -> stats

(** [reset_stats t] zeroes the counters (not [jobs]). *)
val reset_stats : t -> unit

(** [shutdown t] drains nothing (no jobs may be in flight), stops the
    workers and joins their domains.  The pool is unusable afterwards.
    Idempotent.  Do not shut down the {!global} pool directly — use
    {!set_global_jobs} to replace it. *)
val shutdown : t -> unit

(** [run ?jobs f xs] is [create ?jobs ()], {!map}, {!shutdown} — a
    private throwaway pool.  Prefer [map (global ()) f xs] unless the
    jobs must not share workers with the rest of the process. *)
val run : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list

(** [global ()] is the process-wide shared pool, created on first use
    with {!default_jobs} width.  Nested [map] calls on it are safe, so
    both the experiment sweep and the per-configuration shards inside
    individual experiments submit here. *)
val global : unit -> t

(** [set_global_jobs j] resizes the global pool (shutting the previous
    instance down and spawning a fresh one) — a no-op when the width is
    unchanged.  Must not be called while jobs are in flight on it.
    [j = 1] forces the serial inline path for every subsequent [map]. *)
val set_global_jobs : int -> unit
