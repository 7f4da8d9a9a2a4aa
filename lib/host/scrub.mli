(** Background swap scrubber.

    A clock-rate scan over the host swap area issuing low-priority
    verify reads of allocated slots through the tier composite, so
    latent media errors surface before a guest faults on them; damaged
    live slots are repaired by {!Hostmm.relocate_slot}.  Repairs are
    budgeted per full pass so scrubbing never turns into a write storm,
    and "low priority" is enforced as back-pressure: a bounded window of
    outstanding verify reads, pumped on completion — a rate the backends
    cannot absorb degrades instead of growing the disk queue behind
    foreground faults.  Scan order is slot order, a single wrapping
    cursor — deterministic at any [--jobs] width because every step runs
    in virtual time. *)

(** [start host] arms the scan on [host] at its config's
    [scrub_rate_pages_s] slot positions per simulated second (examined
    in ~10 ms chunks), relocating media-damaged live slots while the
    per-pass [scrub_repair_budget] lasts.  At rate 0 it schedules
    nothing, so the run is event-for-event that of a scrubber-less
    host. *)
val start : Hostmm.t -> unit
