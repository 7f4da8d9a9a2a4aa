(** Allocate-and-touch microbenchmark (paper Figure 10): optionally read
    a file first (to fill the page cache / push the system into
    overcommit), then allocate a region and overwrite it page by page —
    the workload whose swap-ins are all false reads. *)

val workload :
  ?read_first_mb:int ->
  ?pattern:[ `Rep | `Memcpy | `Mixed ] ->
  ?on_alloc_phase:(unit -> unit) ->
  ?on_done:(unit -> unit) ->
  mb:int ->
  unit ->
  Vmm.Workload.t
(** [pattern] selects how pages are overwritten: [`Rep] whole-page REP
    stores (recognized outright by the Preventer), [`Memcpy] sequences of
    512-byte stores (exercise the emulation buffers), [`Mixed]
    alternates.  [on_alloc_phase] fires when the read phase ends and the
    allocation phase begins; [on_done] when the touch pass completes. *)
