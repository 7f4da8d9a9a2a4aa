(** Sysbench sequential file-read benchmark (paper Sections 3.1, 5.4 and
    Figures 3 and 9): iteratively reads a file through the page cache.
    The first iteration does explicit disk I/O; later iterations hit the
    guest page cache — whose pages the host may have reclaimed. *)

val workload :
  ?iterations:int ->
  ?on_iteration:(int -> unit) ->
  file_mb:int ->
  unit ->
  Vmm.Workload.t
(** [on_iteration i] fires when iteration [i] (0-based) completes; it is
    also called with [-1] when the workload starts, so consecutive call
    times bracket each iteration. *)
