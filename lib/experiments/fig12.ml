(* Figure 12: Kernbench (kernel compile) across the memory sweep:
   (a) runtime; (b) pages the Preventer remapped (false reads avoided). *)

let configs =
  [ Exp.Baseline; Exp.Mapper_only; Exp.Vswapper_full; Exp.Balloon_baseline ]

let mems = [ 512; 448; 384; 320; 256; 192 ]

let run_point ~scale kind actual_mb =
  let tree_mb = Exp.mb scale 280 in
  let workload =
    Workloads.Kernbench.workload ~threads:2
      ~units:(Exp.scaled_int scale 800 ~min:60)
      ~tree_mb ~compute_us:12_000 ()
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = Exp.mb scale 512;
      vcpus = 2;
      data_mb = tree_mb + 128;
    }
  in
  Exp.run_machine
    (Vmm.Machine.build
       (Exp.testbed kind ~limit_mb:(Exp.mb scale actual_mb) guest))

let run ~scale =
  let results = Exp.grid (run_point ~scale) configs mems in
  let panel title f =
    Exp.series ~title ~x_label:"actual-mem"
      ~x:(List.map (fun m -> string_of_int m ^ "MB") mems)
      Exp.config_name results f
  in
  String.concat "\n"
    [
      "kernbench (2 threads) in a 512MB guest";
      panel
        "(a) runtime [s] -- paper at 192MB: baseline +15%, balloon +5%, \
         vswapper ~+1% over the 512MB runtime"
        (fun o -> o.Exp.runtime_s);
      panel
        "(b) Preventer remaps [count] -- paper: up to 80K false reads \
         eliminated, cutting guest major faults by up to 30%"
        (fun o ->
          Some (float_of_int o.Exp.stats.Metrics.Stats.preventer_remaps));
    ]

let exp =
  Exp.make ~id:"fig12" ~title:"Kernel build under shrinking memory"
    ~paper_claim:
      "at 192MB: baseline 15% slower, ballooning 5%, vswapper ~1%; the \
       Preventer eliminates up to 80K false reads"
    run
