(* Table 2: sequential 1 GB file read on a VMware-Workstation-flavoured
   host (no named-page preference, single-page swap readahead), with the
   balloon enabled vs disabled. *)

let run ~scale =
  let guest_mb = Exp.mb scale 440 in
  let reserve_mb = Exp.mb scale 350 in
  let file_mb = Exp.mb scale 1024 in
  let run_one ~balloon =
    let workload = Workloads.Sysbench.workload ~iterations:1 ~file_mb () in
    let guest =
      {
        (Vmm.Config.default_guest ~workload) with
        mem_mb = guest_mb;
        resident_limit_mb = Some reserve_mb;
        (* Even with the balloon on, Workstation leaves the guest bigger
           than its reservation, so some host swapping remains (the
           paper's balloon-on row still shows 258K swapped sectors). *)
        balloon_static_mb =
          (if balloon then Some (reserve_mb + ((guest_mb - reserve_mb) / 3))
           else None);
        warm_all = true;
        data_mb = file_mb + 64;
      }
    in
    let cfg =
      {
        (Vmm.Config.default ~guests:[ guest ]) with
        vs = Vswapper.Vsconfig.baseline;
        hbase = Host.Hconfig.workstation_flavour Host.Hconfig.default;
        host_mem_mb = guest_mb * 2;
        host_swap_mb = guest_mb * 3 / 2;
      }
    in
    Exp.run_machine (Vmm.Machine.build cfg)
  in
  let enabled = run_one ~balloon:true in
  let disabled = run_one ~balloon:false in
  let cell = function Some v -> Metrics.Table.fmt_float v | None -> "-" in
  let faults o =
    o.Exp.stats.Metrics.Stats.guest_context_faults
    + o.Exp.stats.Metrics.Stats.host_context_faults
  in
  Metrics.Table.render
    ~title:
      (Printf.sprintf
         "sequential %dMB file read, %dMB guest reserved %dMB \
          (Workstation-flavoured host policy)"
         file_mb guest_mb reserve_mb)
    ~headers:[ "metric"; "paper balloon-on"; "paper balloon-off"; "on"; "off" ]
    [
      [ "runtime [s]"; "25"; "78"; cell enabled.Exp.runtime_s;
        cell disabled.Exp.runtime_s ];
      [ "swap read sectors"; "258912"; "1046344";
        string_of_int enabled.Exp.stats.Metrics.Stats.swap_sectors_read;
        string_of_int disabled.Exp.stats.Metrics.Stats.swap_sectors_read ];
      [ "swap write sectors"; "292760"; "1042920";
        string_of_int enabled.Exp.stats.Metrics.Stats.swap_sectors_written;
        string_of_int disabled.Exp.stats.Metrics.Stats.swap_sectors_written ];
      [ "major page faults"; "3659"; "16488";
        string_of_int (faults enabled); string_of_int (faults disabled) ];
    ]

let exp =
  Exp.make ~id:"tab2"
    ~title:"Uncooperative swapping beyond KVM (VMware Workstation)"
    ~paper_claim:
      "disabling the balloon more than triples runtime (25s -> 78s) and \
       quadruples swap traffic and major faults"
    run
