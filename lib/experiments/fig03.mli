(** Figure 3: sequential file read under overcommitment. *)

(** [measure ~scale kind] runs the figure's sequential read under
    configuration [kind]. *)
val measure : scale:float -> Exp.config_kind -> Exp.run_out

val exp : Exp.t
