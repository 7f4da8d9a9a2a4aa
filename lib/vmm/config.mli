(** Machine configuration: host sizing, VSwapper features, ballooning
    mode, disk model and the set of guests with their workloads. *)

type guest_spec = {
  mem_mb : int;  (** memory the guest believes it has *)
  vcpus : int;
  resident_limit_mb : int option;
      (** cgroup cap on the guest's host-resident set (paper Section 5:
          "we constrain guest memory size using cgroups") *)
  balloon_static_mb : int option;
      (** if set, pre-inflate the balloon at boot so the guest
          effectively has this many MiB (the paper's static "balloon"
          configurations) *)
  warm_all : bool;
      (** touch all guest memory once before the workload (the state of
          a long-running guest; precondition for stale-read effects) *)
  workload : Workload.t;
  start_after : Sim.Time.t;  (** workload start, relative to the epoch *)
  data_mb : int;  (** file-data area of the guest's virtual disk *)
  misaligned_io_percent : int;
      (** Windows-style guests issue some non-4K-aligned disk requests
          even after a 4K reformat (paper Section 5.4); those bypass the
          Mapper *)
}

type t = {
  host_mem_mb : int;
  vs : Vswapper.Vsconfig.t;
  hbase : Host.Hconfig.t;  (** memory-size fields are derived by [build] *)
  disk : Storage.Disk.config;
  manager : Balloon.Manager.policy option;  (** dynamic balloon manager *)
  host_swap_mb : int;
  guests : guest_spec list;
  time_limit : Sim.Time.t;
  seed : int;
  faults : Faults.Config.t;
      (** deterministic disk fault injection; [Faults.Config.none]
          (the default) injects nothing *)
  epoch_faults : bool;
      (** install the disk fault plan at the workload epoch instead of
          at build — the drive "ages" after boot, so the boot sequence's
          image I/O cannot kill a guest before its workload even starts.
          Tier backends (czram/remote) get the plan at build either way:
          their error streams only fire on swap traffic, which is
          post-epoch by construction.  Off by default. *)
  async_faults : bool;
      (** release a faulting VCPU at I/O issue instead of completion, so
          runnable sibling threads overlap the wait (async page faults).
          Off by default: the sync path reproduces historical output. *)
  tiers : Storage.Tiers.config;
      (** swap-backend tiering; {!Storage.Tiers.disk_only} (the
          default) is a pure passthrough to the disk *)
}

val default_guest : workload:Workload.t -> guest_spec

(** [default ~guests] is the stock machine: 2 GiB host, 8 GiB host
    swap, baseline (no VSwapper), no balloon manager, the default disk
    (one queue), the sync fault path, disk-only swap, no faults, no
    scrubber and no QoS, seed 42.  It reads nothing from the
    environment: every knob is a field of the record, so an experiment
    selects async faults, a multi-queue disk, a fast swap tier, the
    scrubber or QoS admission by overriding [async_faults], [disk],
    [tiers] or [hbase] on the result. *)
val default : guests:guest_spec list -> t

(** [name_of_vs cfg] is the paper's name for a configuration:
    "baseline", "mapper", "vswapper", optionally prefixed "balloon+". *)
val name_of : t -> string
