(* Resilience: throughput and failure containment under deterministic
   disk-fault injection.  Not a figure of the paper — a robustness sweep
   over the same iterated-sysbench setup as Figure 9, comparing baseline
   and vswapper as the injected fault rate rises.  Transient errors are
   retried with backoff inside the host; media errors (1% of the rate)
   and exhausted retries abandon the guest instead of crashing the
   sweep, so killed guests surface as missing runtime cells rather than
   a failed experiment. *)

let configs = [ Exp.Baseline; Exp.Vswapper_full ]

(* Per-point fault plan: mostly transient (retryable) errors, a sliver
   of hard media errors, and degraded-latency batches at 5x the error
   rate.  The seed comes from the --fault-seed knob so a sweep is
   reproducible end to end. *)
let plan_of_rate rate =
  if rate <= 0.0 then Faults.Config.none
  else
    Faults.Config.make ~seed:(Exp.fault_seed_knob ())
      ~media_rate:(rate /. 100.) ~transient_rate:rate
      ~degraded_rate:(rate *. 5.) ~degraded_mult:4.0 ()

let run_point ~scale kind rate =
  let file_mb = Exp.mb scale 200 in
  let workload = Workloads.Sysbench.workload ~iterations:3 ~file_mb () in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = Exp.mb scale 512;
      data_mb = file_mb + 64;
    }
  in
  let cfg =
    {
      (Exp.testbed kind ~limit_mb:(Exp.mb scale 100) guest) with
      faults = plan_of_rate rate;
    }
  in
  Exp.run_machine (Vmm.Machine.build cfg)

let run ~scale =
  let rates =
    let r = Exp.fault_rate_knob () in
    if r > 0.0 then [ 0.0; r ] else [ 0.0; 1e-4; 1e-3; 5e-3 ]
  in
  let results = Exp.grid (run_point ~scale) configs rates in
  let panel title f =
    Exp.series ~title ~x_label:"rate"
      ~x:(List.map (Printf.sprintf "%g") rates)
      Exp.config_name results f
  in
  let count f (o : Exp.run_out) = Some (float_of_int (f o.Exp.stats)) in
  String.concat "\n"
    [
      panel
        "(a) runtime [s] -- degrades gracefully with fault rate; blank = \
         guest abandoned"
        (fun o -> o.Exp.runtime_s);
      panel "(b) injected I/O errors [count]"
        (count (fun s ->
             s.Metrics.Stats.faults_injected_media
             + s.Metrics.Stats.faults_injected_transient));
      panel "(c) transparent retries [count]"
        (count (fun s -> s.Metrics.Stats.fault_retries));
      panel "(d) guests killed [count] -- failures contained per guest"
        (count (fun s -> s.Metrics.Stats.fault_guest_kills));
    ]

let exp =
  Exp.make ~id:"resilience"
    ~title:"Fault injection: graceful degradation of the swap stack"
    ~paper_claim:
      "not in the paper: deterministic disk-fault sweep; transient errors \
       are retried transparently, media errors and retry exhaustion \
       abandon only the affected guest, and the sweep itself never fails"
    run
