(** Shared runner for the pbzip2 memory sweeps (Figures 5 and 11):
    pbzip2 in a 512 MB guest whose actual memory sweeps downward. *)

type out = {
  runtime_s : float option;  (** None = OOM-killed *)
  disk_ops : int;
  written_sectors : int;
  pages_scanned : int;
}

(** [sweep ~scale mems] runs every configuration at every actual
    memory size in [mems] (MiB), as one {!Exp.grid} (one pool job per
    machine run): each configuration comes back with its points in the
    order of [mems]. *)
val sweep : scale:float -> int list -> (Exp.config_kind * out list) list

(** [render ~title ~mems ~panels results] draws one series table per
    panel; a panel is a (title, projection) pair. *)
val render :
  title:string ->
  mems:int list ->
  panels:(string * (out -> float option)) list ->
  (Exp.config_kind * out list) list ->
  string
