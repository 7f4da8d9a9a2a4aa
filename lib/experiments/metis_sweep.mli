(** Shared runner for the phased-MapReduce experiments (Figures 4, 14):
    Metis guests started 10 s apart under dynamic (MOM) ballooning when
    the configuration calls for it. *)

(** [sweep ~scale ns] runs every configuration at every guest count,
    as one {!Exp.grid} (one pool job per machine run): each
    configuration comes back with the average runtime in seconds of the
    guests that finished ([None] if none did), in the order of [ns]. *)
val sweep :
  scale:float -> int list -> (Exp.config_kind * float option list) list
