(** MOM-like balloon manager (paper Section 5.2 uses MOM, the Memory
    Overcommitment Manager).

    A host daemon that periodically samples host free memory and each
    guest's memory statistics, then adjusts per-guest balloon targets:
    inflating balloons of guests with reclaimable slack when the host is
    under pressure, deflating when the host has surplus and a guest is
    squeezed.  Guests converge to the targets at the balloon driver's own
    bounded rate — the reaction latency that makes ballooning "take
    time" under changing load (paper Section 2.3). *)

(** {!create} rejects a field outside its stated range with
    [Invalid_argument] naming it. *)
type policy = {
  period : Sim.Time.t;  (** sampling/adjustment interval; [> 0] *)
  host_reserve_frames : int;
      (** desired host free-frame cushion; [>= 0] *)
  guest_min_pages : int;  (** never balloon a guest below this; [>= 0] *)
  guest_free_low : float;
      (** deflate when a guest's free fraction drops below this; finite
          and [>= 0] *)
  guest_free_high : float;
      (** a guest with more free fraction than this is an inflation
          donor; finite and [>= guest_free_low] *)
  step_pages : int;  (** max target change per guest per period; [>= 1] *)
}

val default_policy : policy

type t

(** [create ~host ~guests policy] builds a manager of [guests] that
    runs on [host]'s engine.  Raises [Invalid_argument] naming the
    first [policy] field out of range. *)
val create : host:Host.Hostmm.t -> guests:Guest.Guestos.t list -> policy -> t

(** [start t] begins the periodic adjustment loop. *)
val start : t -> unit

(** [stop t] ceases adjustments (targets stay where they are). *)
val stop : t -> unit
