(* Fleet: multi-host throughput scaling.  Not a figure of the paper — a
   sweep validating this repo's cluster simulator: N independent host
   simulations (each a full engine + host + guests stack) step in
   parallel epochs on a {!Parallel.Pool} under a serial controller that
   places arrivals with overcommit and rebalances pressured hosts by
   live migration.

   The experiment runs the SAME fleet twice, on private pools of width
   1 and 4, and self-checks determinism: the deterministic report (and
   the stats fingerprint) must be byte-identical — the pool width may
   only change which wall-clock instant each shard steps at.  It then
   prints the scaling table.  Wall-clock and heap lines contain the
   words "wall" / "heap" so the smoke matrix can strip them before
   comparing serial vs --jobs 4 stdout; everything else is
   deterministic.

   The grid is [Cluster.Fleet.default_config] with the host count (and
   the arrival rate with it) scaled by [~scale]. *)

let config ~scale =
  let d = Cluster.Fleet.default_config in
  let per_host_arrivals =
    d.Cluster.Fleet.mean_arrivals /. float_of_int d.Cluster.Fleet.hosts
  in
  let hosts = Exp.scaled_int scale d.Cluster.Fleet.hosts ~min:2 in
  {
    d with
    Cluster.Fleet.hosts;
    mean_arrivals = per_host_arrivals *. float_of_int hosts;
  }

let run_width cfg jobs =
  let pool = Parallel.Pool.create ~jobs () in
  let t0 = Unix.gettimeofday () in
  let r = Cluster.Fleet.run ~pool cfg in
  let wall = Unix.gettimeofday () -. t0 in
  Parallel.Pool.shutdown pool;
  (r, wall)

let run ~scale =
  let cfg = config ~scale in
  (* Private pools, not the shared global one: the widths under test
     must be exact, and the global pool cannot be resized while the
     registry sweep has jobs in flight. *)
  let r1, wall1 = run_width cfg 1 in
  let r4, wall4 = run_width cfg 4 in
  let rep1 = Cluster.Fleet.report r1 in
  let rep4 = Cluster.Fleet.report r4 in
  let deterministic =
    rep1 = rep4
    && r1.Cluster.Fleet.fingerprint = r4.Cluster.Fleet.fingerprint
  in
  (* Only the serial run's stats feed the experiment's tally — the
     jobs=4 replay is the same simulation and would double-count. *)
  Exp.record r1.Cluster.Fleet.totals;
  let thr r wall =
    if wall > 0.0 then float_of_int r.Cluster.Fleet.guest_seconds /. wall
    else 0.0
  in
  let thr1 = thr r1 wall1 and thr4 = thr r4 wall4 in
  let speedup4 = if wall4 > 0.0 then wall1 /. wall4 else 0.0 in
  let heap_words_per_page =
    if r1.Cluster.Fleet.peak_live_pages > 0 then
      float_of_int r1.Cluster.Fleet.live_heap_words
      /. float_of_int r1.Cluster.Fleet.peak_live_pages
    else 0.0
  in
  Exp.set_fleet_totals
    {
      Exp.fleet_hosts = cfg.Cluster.Fleet.hosts;
      fleet_guests = r1.Cluster.Fleet.guests_placed;
      fleet_rejected = r1.Cluster.Fleet.guests_rejected;
      fleet_pages = r1.Cluster.Fleet.pages_placed;
      fleet_epochs = cfg.Cluster.Fleet.epochs;
      fleet_migrations = r1.Cluster.Fleet.migrations;
      fleet_migrations_aborted = r1.Cluster.Fleet.migrations_aborted;
      fleet_throttled_batches =
        r1.Cluster.Fleet.migration_throttled_batches;
      fleet_oom_kills = r1.Cluster.Fleet.oom_kills;
      fleet_heap_words_per_page = heap_words_per_page;
      fleet_per_jobs =
        [
          {
            Exp.fj_jobs = 1;
            fj_wall_s = wall1;
            fj_guest_seconds_per_s = thr1;
            fj_speedup = 1.0;
          };
          {
            Exp.fj_jobs = 4;
            fj_wall_s = wall4;
            fj_guest_seconds_per_s = thr4;
            fj_speedup = speedup4;
          };
        ];
    };
  let cores = Domain.recommended_domain_count () in
  let verdict =
    (* The >= 2x gate only means something when the machine actually has
       the cores; on small containers the table is recorded without a
       judgement (the determinism check above is the real invariant). *)
    if cores >= 4 then
      Printf.sprintf
        "parallel verdict: %s -- %.2fx wall speedup at --jobs 4 (target >= \
         2x on %d cores)"
        (if speedup4 >= 2.0 then "PASS" else "FAIL")
        speedup4 cores
    else
      Printf.sprintf
        "parallel verdict: skipped (only %d core%s) -- recorded %.2fx wall \
         speedup at --jobs 4"
        cores
        (if cores = 1 then "" else "s")
        speedup4
  in
  String.concat "\n"
    [
      Printf.sprintf
        "config: %d hosts x %d MB (overcommit %.2fx), %d epochs x %ds, \
         traffic seed %d"
        cfg.Cluster.Fleet.hosts cfg.Cluster.Fleet.host_mem_mb
        cfg.Cluster.Fleet.overcommit cfg.Cluster.Fleet.epochs
        cfg.Cluster.Fleet.epoch_s cfg.Cluster.Fleet.seed;
      "";
      rep1;
      "";
      Printf.sprintf
        "determinism: %s -- report and fingerprint at --jobs 1 vs --jobs 4"
        (if deterministic then "PASS (byte-identical)" else "FAIL (diverged)");
      Printf.sprintf
        "scaling: jobs 1: wall %6.2fs, %8.0f guest-s/wall-s, speedup 1.00"
        wall1 thr1;
      Printf.sprintf
        "scaling: jobs 4: wall %6.2fs, %8.0f guest-s/wall-s, speedup %.2f"
        wall4 thr4 speedup4;
      Printf.sprintf
        "heap: %.1f live words per guest page at the last barrier (peak %d \
         live pages; target < 64)"
        heap_words_per_page r1.Cluster.Fleet.peak_live_pages;
      verdict;
    ]

let exp : Exp.t =
  let title =
    "Fleet-scale parallel simulation: sharded hosts, overcommit placement, \
     diurnal traffic"
  in
  let paper_claim =
    "not in the paper: this repo's perf work; N independent host \
     simulations stepped in parallel epochs must produce byte-identical \
     stats at any --jobs width, and epoch stepping should scale with \
     cores (>= 2x at --jobs 4 on a 4-core machine)"
  in
  {
    id = "fleet";
    title;
    paper_claim;
    run = (fun ~scale -> Exp.header ~id:"fleet" ~title ~paper_claim (run ~scale));
  }
