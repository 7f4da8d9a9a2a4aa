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

(** [with_tally t f] runs [f] with [t] as the current experiment's
    counter tally, restoring the previous one after.  The registry
    gives each experiment a fresh tally this way (returned as
    [Registry.outcome.stats]), and {!shard} re-installs the submitting
    experiment's tally around every sub-job, so help-executed shards
    count towards the right experiment at any job count. *)
val with_tally : Metrics.Stats.t -> (unit -> 'a) -> 'a

(** [record s] merges one run's counters into the current experiment's
    tally with {!Metrics.Stats.add}, under one mutex: counters sum and
    the two highwaters take the max, so the tally does not depend on
    the order runs complete in.  A no-op outside {!with_tally}.
    [run_machine] calls it; experiments that drive simulations outside
    a {!Vmm.Machine} (the fleet) call it with their reduced totals. *)
val record : Metrics.Stats.t -> unit

(** Fault knobs for the resilience experiment, set once by the bench
    driver (--fault-seed / --fault-rate) before the sweep starts so
    worker domains only ever read them.  A [rate] of 0 (the default)
    keeps the experiment's built-in fault-rate grid. *)
val set_fault_knobs : ?seed:int -> ?rate:float -> unit -> unit

val fault_seed_knob : unit -> int
val fault_rate_knob : unit -> float

(** [shard f xs] fans [f] over [xs] on the shared {!Parallel.Pool.global}
    pool and returns the results in the order of [xs].  Safe to call from
    inside an experiment already running as a pool job (the pool's [map]
    is re-entrant); a job's exception is re-raised, so a failing point
    fails the experiment exactly as a serial loop would.  Every sub-job
    runs under the submitting experiment's tally. *)
val shard : ('a -> 'b) -> 'a list -> 'b list

(** [group k xs] splits [xs] into consecutive chunks of length [k] (the
    last chunk may be shorter). *)
val group : int -> 'a list -> 'a list list

(** [header ~id ~title ~paper_claim body] formats an experiment block. *)
val header : id:string -> title:string -> paper_claim:string -> string -> string
