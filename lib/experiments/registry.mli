(** All reproducible experiments, keyed by the paper's figure/table ids
    and then the extensions' ids, in the order [vswapper_sim run]
    prints them when given no id. *)

val all : Exp.t list

(** [find id] looks an experiment up by id (e.g. "fig9"). *)
val find : string -> Exp.t option

val ids : unit -> string list

(** Result of one experiment run: the rendered output block (or the
    exception the experiment raised, captured per job) and its counter
    tally. *)
type outcome = {
  exp : Exp.t;
  output : (string, exn) result;
  stats : Metrics.Stats.t;
      (** every machine run of the experiment, shards included, merged
          with {!Metrics.Stats.add} (see {!Exp.record}); all zero for an
          experiment that runs no machine.  Deterministic at any job
          count. *)
}

(** [run_all ~scale ~faults exps] runs the experiments, fanning them
    out over the shared {!Parallel.Pool.global} pool, whose width the
    caller sets with {!Parallel.Pool.set_global_jobs}
    ([Pool.default_jobs ()] if it never does).  The heavy experiments
    additionally shard their machine runs onto the same pool from inside
    their jobs — the pool's [map] is re-entrant, so the nesting is safe.
    Outcomes come back in the order of [exps] regardless of completion
    order, and every experiment is deterministic given its scale and
    fault knobs (but for the host measurements {!Exp.t} names), so the
    rendered outputs are byte-identical at any pool width. *)
val run_all : scale:float -> faults:Exp.faults -> Exp.t list -> outcome list
