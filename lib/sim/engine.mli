(** Discrete-event simulation engine.

    The engine owns the virtual clock and a stable priority queue of
    events, the hierarchical timing wheel {!Wheel} (O(1) schedule and
    cancel with true removal, whole-tick batch dispatch, same-time FIFO
    order).  All activity in the simulated machine — disk completions,
    compute bursts finishing, balloon-manager ticks — is an event;
    running the engine pops events in time order and invokes their
    callbacks, which in turn schedule more events. *)

type t

(** Handle to a scheduled event, usable with {!cancel}.  Handles are
    generation-counted: the underlying event record is recycled through a
    freelist the moment the event fires or is cancelled, and a handle
    held past that point goes stale — cancelling a stale handle is a
    guaranteed no-op. *)
type event

(** A handle that designates no event; {!cancel} ignores it.  Useful as
    the rest state of a [mutable] timer field without boxing an option. *)
val null : event

val create : unit -> t

(** [now t] is the current virtual time. *)
val now : t -> Time.t

(** [schedule_at t time fn] runs [fn] at absolute [time].  Scheduling in the
    past raises [Invalid_argument]. *)
val schedule_at : t -> Time.t -> (unit -> unit) -> event

(** [schedule_after t delay fn] runs [fn] [delay] microseconds from now. *)
val schedule_after : t -> Time.t -> (unit -> unit) -> event

(** [run_at t time fn] is [schedule_at] without a handle, for call sites
    that would [ignore] it anyway.  Every event record — handled or not —
    comes from the engine's internal freelist, so neither form allocates
    on the steady-state hot path. *)
val run_at : t -> Time.t -> (unit -> unit) -> unit

(** [run_after t delay fn] is [schedule_after] without a handle. *)
val run_after : t -> Time.t -> (unit -> unit) -> unit

(** [cancel t ev] prevents a pending event from firing: O(1) true
    removal, the record is unlinked and recycled immediately.
    Cancelling an already-fired, already-cancelled, stale, or {!null}
    handle is a no-op. *)
val cancel : t -> event -> unit

(** [pending t] is the number of not-yet-fired, not-cancelled events. *)
val pending : t -> int

(** [step t] fires the next event, advancing the clock.  Returns [false] if
    no events remain. *)
val step : t -> bool

(** [run t] fires events until none remain. *)
val run : t -> unit

(** [run_until t limit] fires events with time [<= limit]; the clock ends at
    [min limit time-of-last-event].  Returns [true] if events remain. *)
val run_until : t -> Time.t -> bool

(** {2 Telemetry} *)

(** Counters accumulated over the engine's lifetime. *)
type telemetry = {
  events_fired : int;  (** callbacks actually invoked *)
  cancels_reclaimed : int;  (** cancelled records recycled (every cancel) *)
  cascades : int;  (** wheel-level slot redistributions while advancing *)
}

val telemetry : t -> telemetry
