(* The four benchmark workloads, built directly on the public APIs
   (Vmm.Config / Vmm.Machine, Cluster.Fleet, Parallel.Pool) rather than
   through the experiment registry, whose per-experiment timings charge
   help-executed shards to the wrong experiment.

   Every [Vmm.Config.t] field that [Vmm.Config.default] fills from a
   VSWAPPER_* variable is overwritten here, so a config depends only on
   the workload and the seed.  (The runner also refuses to start with
   such a variable set; pinning keeps the configs honest on their own.)

   Why these four: each one is the only workload that drives some layer
   hard, and each one bypasses layers another stresses, so a change to
   one layer shows up on one workload and stays flat on the others.
   README.md gives the layer-by-layer map. *)

type name = Paper | Swapstorm | Tiered_faulty | Fleet

let all = [ Paper; Swapstorm; Tiered_faulty; Fleet ]

let to_string = function
  | Paper -> "paper"
  | Swapstorm -> "swapstorm"
  | Tiered_faulty -> "tiered-faulty"
  | Fleet -> "fleet"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* One timed repetition of a workload. *)
type rep = {
  setup_s : float;  (** host s building the simulated system *)
  run_s : float;  (** host s running it *)
  wall_s : float;  (** host s of the whole rep, set-up included once *)
  cpu_s : float;  (** process CPU s (all domains) over [wall_s] *)
  events : int;  (** engine events fired *)
  guest_s : float;  (** simulated guest-seconds *)
  stats : Metrics.Stats.t;  (** counters of every machine / shard, summed *)
  fingerprint : int;
  kills : int;  (** guests killed (OOM or unrecoverable I/O) *)
  invariants_ok : bool;  (** fleet self-checks; true elsewhere *)
  helper_jobs : int;  (** pool jobs run by the submitting domain *)
  migrations : int;  (** completed fleet evacuations *)
  throttled_batches : int;  (** fleet migration batches delayed *)
}

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Host wall and CPU seconds spent in the timed parts of a rep; the
   untimed housekeeping between them (GC, fingerprints) is left out. *)
type clock = { mutable wall : float; mutable cpu : float }

let clock () = { wall = 0.0; cpu = 0.0 }

let timed c f =
  let t0 = now_ns () and c0 = cpu_now () in
  let v = f () in
  c.wall <- c.wall +. secs_since t0;
  c.cpu <- c.cpu +. (cpu_now () -. c0);
  v

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

(* The modelled counters, name-sorted and fixed here so that a counter
   added to [Stats] later does not silently change every golden value.
   The engine_* telemetry is left out: it counts simulator bookkeeping
   (events, wheel cascades), which a pure speed-up may legitimately
   change, not behaviour of the modelled system. *)
let fingerprint_fields =
  [
    "async_faults_deferred"; "async_inflight_highwater"; "async_waiter_merges";
    "balloon_deflated_pages"; "balloon_inflated_pages"; "destage_media_errors";
    "destage_transient_retries"; "disk_batch_sectors"; "disk_batched_reads";
    "disk_mq_batches"; "disk_ops"; "disk_queue_depth_highwater";
    "disk_read_batches"; "disk_sectors_read"; "disk_sectors_written";
    "disk_seq_reads"; "emergency_steals"; "false_reads"; "fault_guest_kills";
    "fault_media_reads"; "fault_pages_lost"; "fault_retries";
    "fault_retry_exhausted"; "faults_degraded_batches"; "faults_injected_media";
    "faults_injected_transient"; "guest_context_faults"; "guest_major_faults";
    "guest_swapins"; "guest_swapouts"; "host_context_faults"; "host_swapins";
    "host_swapouts"; "hypervisor_code_faults"; "mapper_discards";
    "mapper_invalidations"; "mapper_refetches"; "mapper_tracked"; "oom_kills";
    "pages_scanned"; "preventer_merges"; "preventer_rejects";
    "preventer_remaps"; "preventer_timeouts"; "qos_throttle_wait_us";
    "qos_throttled"; "scrub_media_found"; "scrub_reloc_failed";
    "scrub_relocations"; "scrub_scans"; "scrub_verify_reads";
    "silent_swap_writes"; "stale_reads"; "swap_full_fallbacks";
    "swap_sectors_read"; "swap_sectors_written"; "tier_admissions";
    "tier_degraded_events"; "tier_demotions"; "tier_failover_routes";
    "tier_fast_swapin_us"; "tier_fast_swapins"; "tier_promotions";
    "tier_recovered_events"; "tier_rejects"; "tier_slow_swapin_us";
    "tier_slow_swapins"; "tier_writeback_sectors";
  ]

let mix h v = Faults.Plan.mix_int (h lxor v)

let mix_stats h (s : Metrics.Stats.t) =
  let fields = Metrics.Stats.fields s in
  List.fold_left
    (fun h name ->
      match List.assoc_opt name fields with
      | Some v -> mix h v
      | None -> failwith ("Stats has no counter " ^ name))
    h fingerprint_fields

(* ------------------------------------------------------------------ *)
(* Machine workloads                                                   *)
(* ------------------------------------------------------------------ *)

(* [pinned ~guests ...] is [Vmm.Config.default] with every
   environment-derived field set explicitly. *)
let pinned ?(disk = Storage.Disk.default_config)
    ?(hbase = Host.Hconfig.default) ?(async_faults = false)
    ?(tiers = Storage.Tiers.disk_only) ?(faults = Faults.Config.none)
    ?(epoch_faults = false) ~seed ~host_mem_mb ~host_swap_mb ~vs guests =
  {
    (Vmm.Config.default ~guests) with
    Vmm.Config.host_mem_mb;
    host_swap_mb;
    vs;
    seed;
    disk;
    hbase;
    async_faults;
    tiers;
    faults;
    epoch_faults;
  }

(* Build and run [cfgs] one after another; set-up is the time spent in
   [Machine.build]. *)
let run_machines cfgs =
  let setup = clock () and run = clock () in
  let stats = Metrics.Stats.create () in
  let fp = ref 0x5EED in
  let kills = ref 0 in
  let guest_s = ref 0.0 in
  List.iter
    (fun cfg ->
      (* Anonymous content ids come from a process-wide counter; restart
         it so every rep simulates exactly the same contents. *)
      Storage.Content.reset_anon_counter ();
      (* Untimed: collect the previous machine, so each one is timed
         (and its memory peaks) on a clean heap. *)
      Gc.full_major ();
      let m =
        timed setup (fun () ->
            Profile.span Profile.build (fun () -> Vmm.Machine.build cfg))
      in
      let r =
        timed run (fun () ->
            Profile.span Profile.run (fun () -> Vmm.Machine.run m))
      in
      Metrics.Stats.add stats r.Vmm.Machine.stats;
      fp := mix_stats !fp r.Vmm.Machine.stats;
      Array.iter
        (fun (g : Vmm.Machine.guest_result) ->
          match g.runtime with
          | Some t -> fp := mix !fp (Sim.Time.to_us t)
          | None ->
              incr kills;
              fp := mix !fp (-1))
        r.Vmm.Machine.guests;
      guest_s :=
        !guest_s
        +. Sim.Time.to_sec_float r.Vmm.Machine.wall
           *. float_of_int (Array.length r.Vmm.Machine.guests))
    cfgs;
  {
    setup_s = setup.wall;
    run_s = run.wall;
    wall_s = setup.wall +. run.wall;
    cpu_s = setup.cpu +. run.cpu;
    events = stats.Metrics.Stats.engine_events_fired;
    guest_s = !guest_s;
    stats;
    fingerprint = !fp;
    kills = !kills;
    invariants_ok = true;
    helper_jobs = 0;
    migrations = 0;
    throttled_batches = 0;
  }

let mb scale x = max 8 (int_of_float (float_of_int x *. scale))

(* paper: the five configurations of Section 5 on the four applications
   of Figs. 3, 5/11, 12 and 13, each at a point of its figure's memory
   grid.  One host, sync faults, one-queue disk, disk-only swap: the
   only workload where the guest OS, the Mapper and the Preventer do
   real work. *)
let paper_configs ~scale ~seed =
  let guest_mb = mb scale 512 in
  let app ~limit ~vcpus ~data_mb ~swap_x2 workload kind =
    let limit_mb = mb scale limit in
    let guest =
      {
        (Vmm.Config.default_guest ~workload) with
        mem_mb = guest_mb;
        vcpus;
        resident_limit_mb = Some limit_mb;
        balloon_static_mb =
          (if Experiments.Exp.ballooned kind then Some limit_mb else None);
        warm_all = true;
        data_mb;
      }
    in
    pinned ~seed ~vs:(Experiments.Exp.vs_of kind) ~host_mem_mb:(guest_mb * 2)
      ~host_swap_mb:(guest_mb * swap_x2 / 2)
      [ guest ]
  in
  let file_mb = mb scale 200 in
  let sysbench =
    app ~limit:100 ~vcpus:1 ~data_mb:(file_mb + 64) ~swap_x2:3
      (Workloads.Sysbench.workload ~iterations:1 ~file_mb ())
  in
  let input_mb = mb scale 192 in
  let pbzip2 =
    app ~limit:256 ~vcpus:8
      ~data_mb:(input_mb + (input_mb / 4) + 64)
      ~swap_x2:6
      (Workloads.Pbzip.workload ~threads:8 ~compute_us_per_page:400
         ~anon_mb_per_thread:(max 2 (mb scale 8))
         ~queue_mb:(max 12 (mb scale 48))
         ~input_mb ())
  in
  let kernbench =
    app ~limit:192 ~vcpus:2 ~data_mb:(mb scale 280 + 128) ~swap_x2:3
      (Workloads.Kernbench.workload ~threads:2
         ~units:(max 60 (int_of_float (800.0 *. scale)))
         ~tree_mb:(mb scale 280) ~compute_us:12_000 ())
  in
  let eclipse =
    app ~limit:320 ~vcpus:1 ~data_mb:(mb scale 32 + 64) ~swap_x2:3
      (Workloads.Eclipse.workload ~heap_mb:(mb scale 224)
         ~overhead_mb:(mb scale 176) ~classes_mb:(mb scale 48)
         ~burst_mb:(mb scale 64)
         ~iterations:(max 8 (int_of_float (24.0 *. scale)))
         ())
  in
  List.concat_map
    (fun app -> List.map app Experiments.Exp.all_configs)
    [ sysbench; pbzip2; kernbench; eclipse ]

let storm_guest ~threads ~rounds ~compute_us ~storm_mb ~limit_mb ~mem_mb
    ~vcpus =
  {
    (Vmm.Config.default_guest
       ~workload:
         (Workloads.Swapstorm.workload ~threads ~rounds ~compute_us
            ~mb:storm_mb ()))
    with
    mem_mb;
    vcpus;
    resident_limit_mb = Some limit_mb;
    data_mb = 64;
  }

(* swapstorm: eight anonymous-memory storms on baseline VSwapper with
   async faults over an 8-queue disk.  Anonymous memory bypasses the
   Mapper and the guest page cache, so swap-slot allocation and the
   async fault path carry the load. *)
let swapstorm_configs ~storm_mb ~seed =
  let guest =
    storm_guest ~threads:4 ~rounds:1 ~compute_us:2 ~storm_mb
      ~limit_mb:(max 4 (storm_mb / 3))
      ~mem_mb:(storm_mb + 16) ~vcpus:1
  in
  let n = 8 in
  [
    pinned ~seed ~vs:Vswapper.Vsconfig.baseline
      ~host_mem_mb:(n * (storm_mb + 16) * 2)
      ~host_swap_mb:(n * (storm_mb + 16))
      ~async_faults:true
      ~disk:
        { Storage.Disk.default_config with num_queues = 8; per_queue_depth = 4 }
      ~hbase:{ Host.Hconfig.default with max_inflight_faults = 16 }
      (List.init n (fun _ -> guest));
  ]

(* tiered-faulty: a light victim storm beside an 8-thread hammer, over a
   czram+disk tier pair, with the scrubber and per-guest QoS armed and an
   aging drive (transient and slow-service faults from the epoch on, no
   media errors, so no guest dies).  The only workload that turns on
   tiers, scrubbing, QoS and retries. *)
let tiered_faulty_configs ~scale ~seed =
  let vstorm = mb scale 128 and hstorm = mb scale 384 in
  let victim =
    storm_guest ~threads:1 ~rounds:3 ~compute_us:4000 ~storm_mb:vstorm
      ~limit_mb:(vstorm * 3 / 4) ~mem_mb:(2 * vstorm) ~vcpus:1
  in
  let hammer =
    storm_guest ~threads:8 ~rounds:1 ~compute_us:3 ~storm_mb:hstorm
      ~limit_mb:(hstorm / 3) ~mem_mb:(2 * hstorm) ~vcpus:4
  in
  [
    pinned ~seed ~vs:Vswapper.Vsconfig.vswapper
      ~host_mem_mb:(mb scale 4096) ~host_swap_mb:(mb scale 1024)
      ~async_faults:true
      ~hbase:
        {
          Host.Hconfig.default with
          scrub_rate_pages_s = 25_000;
          scrub_repair_budget = 64;
          qos_rate = 2000;
          qos_burst = 16;
        }
      ~tiers:
        {
          Storage.Tiers.disk_only with
          fast = Storage.Tiers.Czram;
          fast_share_percent = 50;
        }
      ~faults:
        (Faults.Config.make ~seed ~transient_rate:1e-4 ~degraded_rate:1e-3
           ~degraded_mult:4.0 ())
      ~epoch_faults:true [ victim; hammer ];
  ]

(* ------------------------------------------------------------------ *)
(* Fleet                                                               *)
(* ------------------------------------------------------------------ *)

(* [fleets] independent fleets, each with its own traffic seed drawn
   from [seed].  Traffic spikes are fleet-wide, so one fleet's volume and
   its guest-seconds per unit of work swing with how many spikes its
   seed happens to draw; a rep over several fleets averages that out, and
   a metric then moves with the code rather than with the seed. *)
let fleet_configs ~fleets ~hosts ~epochs ~seed =
  List.init fleets (fun i ->
      {
        Cluster.Fleet.default_config with
        hosts;
        epochs;
        seed = (seed * fleets) + i;
        mean_arrivals = 2.5 *. float_of_int hosts;
      })

(* fleet: [Fleet.run] of each config, one after another, on a private
   pool of [jobs] domains.  Set-up is the pool plus a zero-epoch
   [Fleet.run] per fleet, which builds every shard and stops: the work a
   later change could move out of the epochs. *)
let run_fleets ~jobs cfgs =
  let create_c = clock () and build_c = clock () and run_c = clock () in
  let pool = timed create_c (fun () -> Parallel.Pool.create ~jobs ()) in
  let stats = Metrics.Stats.create () in
  let fp = ref 0xF1EE7 in
  let guest_s = ref 0 and kills = ref 0 and helper_jobs = ref 0 in
  let migrations = ref 0 and throttled = ref 0 and invariants_ok = ref true in
  List.iter
    (fun cfg ->
      ignore
        (timed build_c (fun () ->
             Profile.span Profile.build (fun () ->
                 Cluster.Fleet.run ~pool { cfg with Cluster.Fleet.epochs = 0 }))
          : Cluster.Fleet.result);
      (* Untimed: free the previous fleet and the zero-epoch shards
         before the real ones exist, so the peak RSS is one fleet's. *)
      Gc.full_major ();
      Parallel.Pool.reset_stats pool;
      let r =
        timed run_c (fun () ->
            Profile.span Profile.run (fun () -> Cluster.Fleet.run ~pool cfg))
      in
      helper_jobs :=
        !helper_jobs + (Parallel.Pool.stats pool).Parallel.Pool.helper_jobs;
      let open Cluster.Fleet in
      Metrics.Stats.add stats r.totals;
      fp :=
        List.fold_left mix (mix_stats !fp r.totals)
          [
            r.guests_placed; r.guests_rejected; r.pages_placed;
            r.peak_live_pages; r.guest_seconds; r.migrations;
            r.migrations_aborted; r.migration_throttled_batches; r.oom_kills;
            Bool.to_int r.committed_ok; Bool.to_int r.migration_accounting_ok;
          ];
      guest_s := !guest_s + r.guest_seconds;
      kills := !kills + r.oom_kills;
      migrations := !migrations + r.migrations;
      throttled := !throttled + r.migration_throttled_batches;
      invariants_ok :=
        !invariants_ok && r.committed_ok && r.migration_accounting_ok)
    cfgs;
  Parallel.Pool.shutdown pool;
  {
    setup_s = create_c.wall +. build_c.wall;
    run_s = run_c.wall;
    wall_s = create_c.wall +. run_c.wall;
    cpu_s = create_c.cpu +. run_c.cpu;
    events = stats.Metrics.Stats.engine_events_fired;
    guest_s = float_of_int !guest_s;
    stats;
    fingerprint = !fp;
    kills = !kills;
    invariants_ok = !invariants_ok;
    helper_jobs = !helper_jobs;
    migrations = !migrations;
    throttled_batches = !throttled;
  }

(* Sizes: [Full] is what the benchmark times; [Smoke] is the tiny
   variant the runtest alias uses. *)
type size = Full | Smoke

(* Guests the workload kills by design: over-ballooning OOM-kills some
   paper applications (Figs. 5 and 13); a kill anywhere else is a
   failure. *)
let kills_allowed = function Paper -> true | _ -> false

(* [rep ?jobs size w ~seed] runs one repetition.  [jobs] is the fleet's
   pool width and is ignored by the machine workloads. *)
let rep ?(jobs = 1) size w ~seed =
  let full = size = Full in
  match w with
  | Paper ->
      run_machines (paper_configs ~scale:(if full then 0.5 else 0.05) ~seed)
  | Swapstorm ->
      run_machines (swapstorm_configs ~storm_mb:(if full then 128 else 8) ~seed)
  | Tiered_faulty ->
      run_machines
        (tiered_faulty_configs ~scale:(if full then 0.12 else 0.05) ~seed)
  | Fleet ->
      run_fleets ~jobs
        (fleet_configs ~fleets:(if full then 4 else 2)
           ~hosts:(if full then 8 else 4)
           ~epochs:(if full then 12 else 3) ~seed)
