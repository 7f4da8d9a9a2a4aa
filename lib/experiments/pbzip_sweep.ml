(* Shared runner for Figures 5 and 11: pbzip2 inside a 512 MB guest whose
   actual memory allocation sweeps downward. *)

let configs =
  [ Exp.Baseline; Exp.Mapper_only; Exp.Vswapper_full; Exp.Balloon_baseline ]

type out = {
  runtime_s : float option;  (* None = OOM-killed *)
  disk_ops : int;
  written_sectors : int;
  pages_scanned : int;
}

let run_point ~scale kind actual_mb =
  let guest_mb = Exp.mb scale 512 in
  let input_mb = Exp.mb scale 192 in
  let workload =
    Workloads.Pbzip.workload ~threads:8 ~compute_us_per_page:400
      ~anon_mb_per_thread:(Exp.scaled_int scale 8 ~min:2)
      ~queue_mb:(Exp.scaled_int scale 48 ~min:12)
      ~input_mb ()
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = guest_mb;
      vcpus = 8;
      data_mb = input_mb + (input_mb / 4) + 64;
    }
  in
  let cfg =
    {
      (Exp.testbed kind ~limit_mb:(Exp.mb scale actual_mb) guest) with
      host_swap_mb = guest_mb * 3;
    }
  in
  let out = Exp.run_machine (Vmm.Machine.build cfg) in
  {
    runtime_s = out.Exp.runtime_s;
    disk_ops = out.Exp.stats.Metrics.Stats.disk_ops;
    written_sectors = out.Exp.stats.Metrics.Stats.swap_sectors_written;
    pages_scanned = out.Exp.stats.Metrics.Stats.pages_scanned;
  }

let sweep ~scale mems = Exp.grid (run_point ~scale) configs mems

let render ~title ~mems ~panels results =
  let x = List.map (fun m -> string_of_int m ^ "MB") mems in
  let panel (name, f) =
    Exp.series ~title:name ~x_label:"actual-mem" ~x Exp.config_name results f
  in
  title ^ "\n" ^ String.concat "\n" (List.map panel panels)
