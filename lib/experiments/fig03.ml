(* Figure 3: time for a guest to sequentially read a 200 MB file,
   believing it has 512 MB while actually having 100 MB. *)

let paper =
  [
    (Exp.Baseline, Some 38.7);
    (Exp.Balloon_baseline, Some 3.1);
    (Exp.Mapper_only, None);
    (Exp.Vswapper_full, Some 4.0);
    (Exp.Balloon_vswapper, Some 3.1);
  ]

let measure ~scale kind =
  let file_mb = Exp.mb scale 200 in
  let workload = Workloads.Sysbench.workload ~iterations:1 ~file_mb () in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = Exp.mb scale 512;
      data_mb = file_mb + 64;
    }
  in
  Exp.run_machine
    (Vmm.Machine.build (Exp.testbed kind ~limit_mb:(Exp.mb scale 100) guest))

let run ~scale =
  let cell = function Some v -> Metrics.Table.fmt_float v | None -> "-" in
  (* Five independent machine runs, one per configuration — sharded over
     the shared pool (this experiment is itself a job of the registry
     sweep; nested submission is safe). *)
  let rows =
    Exp.shard
      (fun (kind, paper_s) ->
        let out = measure ~scale kind in
        [
          Exp.config_name kind;
          cell paper_s;
          cell out.Exp.runtime_s;
          string_of_int out.Exp.stats.Metrics.Stats.stale_reads;
          string_of_int out.Exp.stats.Metrics.Stats.silent_swap_writes;
        ])
      paper
  in
  Metrics.Table.render
    ~title:
      (Printf.sprintf "sequential %dMB file read; guest believes %dMB, has %dMB"
         (Exp.mb scale 200) (Exp.mb scale 512) (Exp.mb scale 100))
    ~headers:[ "config"; "paper[s]"; "measured[s]"; "stale-reads"; "silent-writes" ]
    rows

let exp =
  Exp.make ~id:"fig3" ~title:"Sequential file read under overcommitment"
    ~paper_claim:
      "baseline 38.7s; balloon 3.1s; vswapper 4.0s; balloon+vswapper 3.1s \
       (baseline ~12.5x slower than ballooning; vswapper within 1.3x)"
    run
