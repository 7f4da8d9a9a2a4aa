let all =
  [
    Fig03.exp;
    Fig04.exp;
    Fig05.exp;
    Fig09.exp;
    Fig10.exp;
    Fig11.exp;
    Fig12.exp;
    Fig13.exp;
    Fig14.exp;
    Fig15.exp;
    Tab01.exp;
    Tab02.exp;
    Win.exp;
    Mig.exp;
    Ablations.exp;
    Resilience.exp;
    Scalability.exp;
    Tiering.exp;
    Memscale.exp;
    Degradation.exp;
    Fleet.exp;
  ]

let find id = List.find_opt (fun e -> e.Exp.id = id) all
let ids () = List.map (fun e -> e.Exp.id) all

type outcome = {
  exp : Exp.t;
  output : (string, exn) result;
  stats : Metrics.Stats.t;
}

let run_one ~scale ~faults (e : Exp.t) =
  (* Every machine run of this experiment, including the sharded inner
     loops' pool sub-jobs, merges its counters into [stats]. *)
  let stats = Metrics.Stats.create () in
  let output =
    try Ok (Exp.with_tally stats (fun () -> e.Exp.run ~scale ~faults))
    with exn -> Error exn
  in
  { exp = e; output; stats }

let run_all ~scale ~faults chosen =
  (* Each experiment builds its own engine/RNG/disk and returns a buffered
     string, so whole experiments fan out across domains; collecting with
     [Pool.map] keeps the results in registry order, making the printed
     sweep byte-identical to a serial run.  The shared global pool is
     used so that experiments which themselves shard their machine runs
     ([Exp.shard], [Exp.grid]) submit to the same worker set; [map] is
     re-entrant, so the nesting cannot deadlock. *)
  let results =
    Parallel.Pool.map (Parallel.Pool.global ()) (run_one ~scale ~faults) chosen
  in
  (* [run_one] already converts an experiment's exception into an [Error]
     outcome; a pool-level [Error] here means the job died outside that
     guard (e.g. the worker domain was torn down).  Isolate it the same
     way instead of aborting the sweep: the failed experiment reports
     FAILED and the others still print. *)
  List.map2
    (fun e -> function
      | Ok o -> o
      | Error exn ->
          { exp = e; output = Error exn; stats = Metrics.Stats.create () })
    chosen results
