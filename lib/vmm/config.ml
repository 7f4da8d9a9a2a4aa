type guest_spec = {
  mem_mb : int;
  vcpus : int;
  resident_limit_mb : int option;
  balloon_static_mb : int option;
  warm_all : bool;
  workload : Workload.t;
  start_after : Sim.Time.t;
  data_mb : int;
  misaligned_io_percent : int;
}

type t = {
  host_mem_mb : int;
  vs : Vswapper.Vsconfig.t;
  hbase : Host.Hconfig.t;
  disk : Storage.Disk.config;
  manager : Balloon.Manager.policy option;
  host_swap_mb : int;
  guests : guest_spec list;
  time_limit : Sim.Time.t;
  seed : int;
  faults : Faults.Config.t;
  epoch_faults : bool;
  async_faults : bool;
  tiers : Storage.Tiers.config;
}

let default_guest ~workload =
  {
    mem_mb = 512;
    vcpus = 1;
    resident_limit_mb = None;
    balloon_static_mb = None;
    warm_all = false;
    workload;
    start_after = Sim.Time.zero;
    data_mb = 1024;
    misaligned_io_percent = 0;
  }

let default ~guests =
  {
    host_mem_mb = 2048;
    vs = Vswapper.Vsconfig.baseline;
    hbase = Host.Hconfig.default;
    disk = Storage.Disk.default_config;
    manager = None;
    host_swap_mb = 8192;
    guests;
    time_limit = Sim.Time.sec 36_000;
    seed = 42;
    faults = Faults.Config.none;
    epoch_faults = false;
    async_faults = false;
    tiers = Storage.Tiers.disk_only;
  }

let name_of t =
  let vs_name =
    match (t.vs.mapper, t.vs.preventer) with
    | false, false -> "baseline"
    | true, false -> "mapper"
    | true, true -> "vswapper"
    | false, true -> "preventer-only"
  in
  let ballooned =
    t.manager <> None
    || List.exists (fun g -> g.balloon_static_mb <> None) t.guests
  in
  if ballooned then "balloon+" ^ vs_name else vs_name
