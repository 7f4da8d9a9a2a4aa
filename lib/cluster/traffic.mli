(** Seeded synthetic diurnal traffic for the fleet simulator.

    Tenants arrive with heavy-tailed memory requests, live for a few
    epochs, and depart; the arrival rate follows a smooth diurnal curve
    with occasional load spikes.  Everything is a pure function of
    [(seed, epoch)] — no global state, no wall clock — so the same seed
    replays the same fleet history at any [--jobs] width. *)

type vm_spec = {
  tenant : int;  (** unique, monotonically increasing arrival id *)
  mem_mb : int;  (** requested guest memory (heavy-tailed) *)
  lifetime_epochs : int;  (** epochs until voluntary departure *)
}

type t

(** [create ~seed ~mean_arrivals ()] builds a generator whose expected
    arrivals per epoch is [mean_arrivals * load], over a diurnal cycle
    of 12 epochs. *)
val create : seed:int -> mean_arrivals:float -> unit -> t

(** [load t ~epoch] is the traffic intensity for [epoch]: a diurnal
    curve in [0.35, 1.0], multiplied by an occasional seeded spike and
    capped at 1.6.  Pure — any caller sees the same value. *)
val load : t -> epoch:int -> float

(** [arrivals t ~epoch] draws the tenants arriving in [epoch].  Tenant
    ids are assigned from a counter internal to [t], so this must be
    called exactly once per epoch, in epoch order (the fleet controller
    does, at its serial barrier). *)
val arrivals : t -> epoch:int -> vm_spec list
