(* Figure 4: average completion time of ten phased MapReduce guests. *)

let run ~scale ~faults:_ =
  let n = 10 in
  (* Four independent ten-guest machine runs — the sweep's single most
     expensive points — fan out over the shared pool. *)
  let rows =
    List.map
      (fun (kind, avgs) ->
        let paper =
          match kind with
          | Exp.Baseline -> "153"
          | Exp.Balloon_baseline -> "167"
          | Exp.Vswapper_full -> "88"
          | Exp.Balloon_vswapper -> "97"
          | Exp.Mapper_only -> "-"
        in
        [
          Exp.config_name kind;
          paper;
          (match avgs with
          | [ Some v ] -> Metrics.Table.fmt_float v
          | _ -> "-");
        ])
      (Metis_sweep.sweep ~scale [ n ])
  in
  Metrics.Table.render
    ~title:
      (Printf.sprintf
         "average completion time of %d MapReduce guests started 10s apart" n)
    ~headers:[ "config"; "paper[s]"; "measured[s]" ]
    rows

let exp =
  Exp.make ~id:"fig4" ~title:"Phased MapReduce guests (dynamic ballooning)"
    ~paper_claim:
      "avg runtime: balloon+baseline 167s > baseline 153s > balloon+vswapper \
       97s > vswapper 88s; ballooning alone is counterproductive because \
       balloon sizes lag the load"
    run
