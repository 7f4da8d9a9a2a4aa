(* Figure 13: DaCapo Eclipse (GC-heavy Java) across the memory sweep;
   ballooning occasionally OOM-kills Eclipse below 448 MB. *)

let configs =
  [ Exp.Baseline; Exp.Mapper_only; Exp.Vswapper_full; Exp.Balloon_baseline ]

let mems = [ 512; 448; 384; 320; 256 ]

let run_point ~scale kind actual_mb =
  let workload =
    (* GC-scanned heap plus the colder JVM overhead; total resident
       demand approaches 448MB in a 512MB guest, the paper's crash
       boundary for over-ballooning. *)
    Workloads.Eclipse.workload
      ~heap_mb:(Exp.mb scale 224)
      ~overhead_mb:(Exp.mb scale 176)
      ~classes_mb:(Exp.mb scale 48)
      ~burst_mb:(Exp.mb scale 64)
      ~iterations:(Exp.scaled_int scale 24 ~min:8)
      ()
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = Exp.mb scale 512;
      data_mb = Exp.mb scale 32 + 64;
    }
  in
  Exp.run_machine
    (Vmm.Machine.build
       (Exp.testbed kind ~limit_mb:(Exp.mb scale actual_mb) guest))

let run ~scale ~faults:_ =
  Exp.series
    ~title:
      "Eclipse/DaCapo runtime [s] ('-' = killed by over-ballooning) -- \
       paper: balloon 1-4% faster while alive but kills Eclipse below \
       448MB; baseline 0.97-1.28x of vswapper"
    ~x_label:"guest-mem-limit"
    ~x:(List.map (fun m -> string_of_int m ^ "MB") mems)
    Exp.config_name
    (Exp.grid (run_point ~scale) configs mems)
    (fun o -> o.Exp.runtime_s)

let exp =
  Exp.make ~id:"fig13" ~title:"Eclipse (GC-heavy Java) under shrinking memory"
    ~paper_claim:
      "ballooning slightly fastest but OOM-kills Eclipse below 448MB; \
       baseline up to 1.28x slower than vswapper; mapper within 1.00-1.08x"
    run
