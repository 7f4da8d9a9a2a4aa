(* Figure 14: the same phased MapReduce experiment swept from 1 to 10
   guests; memory pressure (and the gap between configurations) appears
   once the host overcommits, around seven guests in the paper. *)

let ns = [ 2; 4; 6; 8; 10 ]

let run ~scale =
  Exp.series
    ~title:
      "average guest runtime [s] vs number of guests -- paper: flat until \
       ~6 guests, then balloon-only and baseline degrade up to 1.84x/1.79x \
       of balloon+vswapper while vswapper stays within 1.11x"
    ~x_label:"guests" ~x:(List.map string_of_int ns) Exp.config_name
    (Metis_sweep.sweep ~scale ns) Fun.id

let exp =
  Exp.make ~id:"fig14"
    ~title:"Scaling phased MapReduce guests (dynamic ballooning)"
    ~paper_claim:
      "pressure from ~7 guests; balloon-only 0.96-1.84x and baseline \
       0.96-1.79x of balloon+vswapper; vswapper alone 0.97-1.11x"
    run
