(* Shared runner for Figures 4 and 14: N guests running Metis MapReduce
   word count, dispatched 10 seconds apart, under a dynamic balloon
   manager (MOM).  Memory pressure builds as guests pile up. *)

let configs =
  [ Exp.Balloon_baseline; Exp.Baseline; Exp.Vswapper_full; Exp.Balloon_vswapper ]

(* In the dynamic experiments, ballooning means running MOM, not a
   static pre-inflation. *)
let run_point ~scale kind ~n_guests =
  let guest_mb = Exp.mb scale 1024 in
  let input_mb = Exp.mb scale 224 in
  let table_mb = Exp.mb scale 420 in
  let host_mb = Exp.mb scale 4096 in
  let workload =
    Workloads.Metis.workload ~threads:2 ~table_mb
      ~compute_us_per_block:1000 ~input_mb ()
  in
  let guests =
    List.init n_guests (fun i ->
        {
          (Vmm.Config.default_guest ~workload) with
          mem_mb = guest_mb;
          vcpus = 2;
          start_after = Sim.Time.sec (10 * i);
          data_mb = input_mb + 64;
        })
  in
  let manager =
    if Exp.ballooned kind then
      Some
        {
          (* MOM-like cadence: the balloon lags demand by design. *)
          Balloon.Manager.period = Sim.Time.sec 4;
          step_pages = Storage.Geom.pages_of_mb (max 8 (Exp.mb scale 24));
          host_reserve_frames = Storage.Geom.pages_of_mb (Exp.mb scale 256);
          guest_min_pages = Storage.Geom.pages_of_mb (Exp.mb scale 192);
          guest_free_high = 0.25;
          guest_free_low = 0.05;
        }
    else None
  in
  let cfg =
    {
      (Vmm.Config.default ~guests) with
      vs = Exp.vs_of kind;
      host_mem_mb = host_mb;
      host_swap_mb = 4 * host_mb;
      manager;
    }
  in
  let out = Exp.run_machine (Vmm.Machine.build cfg) in
  let finished =
    Array.to_list out.Exp.per_guest_s |> List.filter_map (fun x -> x)
  in
  if finished = [] then None
  else
    Some (List.fold_left ( +. ) 0.0 finished /. float_of_int (List.length finished))

(* Every (config, n_guests) machine run is independent, so the whole
   grid fans out over the shared pool in one submission — the sweep's
   critical path drops from configs x points serial runs to roughly the
   longest single machine run. *)
let sweep ~scale ns =
  Exp.grid (fun kind n -> run_point ~scale kind ~n_guests:n) configs ns
