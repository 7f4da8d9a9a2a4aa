(* Figure 10: effect of false reads on a process that allocates and
   sequentially accesses 200 MB right after a 200 MB file read filled the
   page cache.  Compares VSwapper with and without the Preventer. *)

let configs =
  [ Exp.Baseline; Exp.Mapper_only; Exp.Vswapper_full; Exp.Balloon_baseline ]

let run ~scale =
  let mbs = Exp.mb scale 200 in
  let rows =
    List.map
      (fun kind ->
        let machine_ref = ref None in
        let on_mark, get_marks = Exp.mark_collector machine_ref in
        let workload =
          Workloads.Memhog.workload ~read_first_mb:mbs ~pattern:`Mixed
            ~on_alloc_phase:(fun () -> on_mark 0)
            ~on_done:(fun () -> on_mark 1)
            ~mb:mbs ()
        in
        let guest =
          {
            (Vmm.Config.default_guest ~workload) with
            mem_mb = Exp.mb scale 512;
            data_mb = mbs + 64;
          }
        in
        let machine =
          Vmm.Machine.build
            (Exp.testbed kind ~limit_mb:(Exp.mb scale 100) guest)
        in
        machine_ref := Some machine;
        let out = Exp.run_machine ~get_marks machine in
        match out.Exp.marks with
        | [ start; fin ] ->
            let dt =
              Sim.Time.to_sec_float (Sim.Time.sub fin.Exp.at start.Exp.at)
            in
            let dops =
              fin.Exp.snapshot.Metrics.Stats.disk_ops
              - start.Exp.snapshot.Metrics.Stats.disk_ops
            in
            let dfalse =
              fin.Exp.snapshot.Metrics.Stats.false_reads
              - start.Exp.snapshot.Metrics.Stats.false_reads
            in
            let dremaps =
              fin.Exp.snapshot.Metrics.Stats.preventer_remaps
              - start.Exp.snapshot.Metrics.Stats.preventer_remaps
            in
            [
              Exp.config_name kind;
              Metrics.Table.fmt_float dt;
              string_of_int dops;
              string_of_int dfalse;
              string_of_int dremaps;
            ]
        | _ ->
            (* OOM-killed before finishing (over-ballooning, like the
               paper's missing balloon bar). *)
            [ Exp.config_name kind; "crashed(OOM)"; "-"; "-"; "-" ])
      configs
  in
  Metrics.Table.render
    ~title:
      (Printf.sprintf
         "allocate+access %dMB after reading %dMB (alloc phase only)" mbs mbs)
    ~headers:[ "config"; "runtime[s]"; "disk-ops"; "false-reads"; "remaps" ]
    rows

let exp =
  Exp.make ~id:"fig10"
    ~title:"Effect of false reads (allocate + access after file read)"
    ~paper_claim:
      "enabling the Preventer more than doubles performance; runtime tracks \
       disk ops (~20s/125k ops baseline-ish vs ~8s/40k with Preventer); \
       balloon crashed the workload (over-ballooning)"
    run
