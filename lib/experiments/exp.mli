(** Common experiment machinery: the five paper configurations and the
    paper's testbed, scaled runs, mark collection for per-iteration
    figures, the sharded config x point grid, and rendering of
    paper-vs-measured outputs. *)

(** The disk-fault knobs of a sweep, which [vswapper_sim run] takes as
    [--fault-seed] and [--fault-rate].  [seed] fixes the fault plan of
    the experiments that inject faults (resilience, degradation); a
    non-zero [rate] replaces their built-in fault-rate grid.  The other
    experiments ignore it. *)
type faults = { seed : int; rate : float }

(** [{ seed = 1; rate = 0.0 }]: seed 1 and the built-in rate grids. *)
val no_faults : faults

(** One reproducible experiment (a figure or table of the paper, or an
    extension).  Its [run] reads no process-global knob: the block is a
    function of its arguments, except tab1's source-line counts (read
    from the working directory) and the fleet's heap line (measured with
    [Gc.stat]). *)
type t = {
  id : string;  (** e.g. "fig3" *)
  title : string;
  paper_claim : string;  (** what the paper reports, for side-by-side *)
  run : scale:float -> faults:faults -> string;
      (** returns the rendered result block *)
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

(** [shard f xs] fans [f] over [xs] on the shared {!Parallel.Pool.global}
    pool and returns the results in the order of [xs].  Safe to call from
    inside an experiment already running as a pool job (the pool's [map]
    is re-entrant); a job's exception is re-raised, so a failing point
    fails the experiment exactly as a serial loop would.  Every sub-job
    runs under the submitting experiment's tally. *)
val shard : ('a -> 'b) -> 'a list -> 'b list

(** [grid f rows cols] runs [f r c] for every row and column in one
    {!shard} submission and returns each row with its results in the
    order of [cols]. *)
val grid : ('r -> 'c -> 'a) -> 'r list -> 'c list -> ('r * 'a list) list

(** [series ~title ~x_label ~x name rows f] renders one column per row,
    named [name r], with [f] applied to each of the row's results (a
    {!grid} row, for instance). *)
val series :
  title:string ->
  x_label:string ->
  x:string list ->
  ('r -> string) ->
  ('r * 'a list) list ->
  ('a -> float option) ->
  string

(** [testbed kind ~limit_mb guest] is the paper's testbed (Section 5)
    around [guest]: the guest believes it has [guest.mem_mb] MiB but its
    host-resident set is capped at [limit_mb] (by a static balloon to
    [limit_mb] as well when [ballooned kind]), all its memory warm; one
    host with twice the guest's memory and 1.5x of it as swap, running
    [vs_of kind].  Callers override the rest with [{ ... with ... }]. *)
val testbed :
  config_kind -> limit_mb:int -> Vmm.Config.guest_spec -> Vmm.Config.t

(** [make ~id ~title ~paper_claim run] is experiment [id]: its [run]
    returns the block [run] renders, under a banner of [id], [title]
    and [paper_claim]. *)
val make :
  id:string ->
  title:string ->
  paper_claim:string ->
  (scale:float -> faults:faults -> string) ->
  t
