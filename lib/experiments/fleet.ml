(* Fleet: a multi-host cluster simulation.  Not a figure of the paper —
   a sweep validating this repo's cluster simulator: N independent host
   simulations (each a full engine + host + guests stack) step in
   parallel epochs on a {!Parallel.Pool} under a serial controller that
   places arrivals with overcommit and rebalances pressured hosts by
   live migration.

   The experiment runs the SAME fleet twice, on private pools of width
   1 and 4, and self-checks determinism: the deterministic report (and
   the stats fingerprint) must be byte-identical — the pool width may
   only change which domain steps each shard.  Only the heap line
   varies between runs, so the fleet stays out of the paper-figure
   golden; the line contains the word "heap", and the smoke matrix
   strips it before comparing serial vs --jobs 4 stdout.  Parallel
   scaling is measured by the repo benchmark's fleet workload
   (benchmark/), not here.

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
  let r = Cluster.Fleet.run ~pool cfg in
  Parallel.Pool.shutdown pool;
  r

let run ~scale ~faults:_ =
  let cfg = config ~scale in
  (* Private pools, not the shared global one: the widths under test
     must be exact, and the global pool cannot be resized while the
     registry sweep has jobs in flight. *)
  let r1 = run_width cfg 1 in
  let r4 = run_width cfg 4 in
  let rep1 = Cluster.Fleet.report r1 in
  let rep4 = Cluster.Fleet.report r4 in
  let deterministic =
    rep1 = rep4
    && r1.Cluster.Fleet.fingerprint = r4.Cluster.Fleet.fingerprint
  in
  (* Only the serial run's stats feed the experiment's tally — the
     jobs=4 replay is the same simulation and would double-count. *)
  Exp.record r1.Cluster.Fleet.totals;
  let heap_words_per_page =
    if r1.Cluster.Fleet.peak_live_pages > 0 then
      float_of_int r1.Cluster.Fleet.live_heap_words
      /. float_of_int r1.Cluster.Fleet.peak_live_pages
    else 0.0
  in
  String.concat "\n"
    [
      Printf.sprintf
        "config: %d hosts x %d MB (overcommit %.2fx), %d epochs x %ds, \
         traffic seed %d"
        cfg.Cluster.Fleet.hosts Cluster.Fleet.host_mem_mb
        cfg.Cluster.Fleet.overcommit cfg.Cluster.Fleet.epochs
        Cluster.Fleet.epoch_s cfg.Cluster.Fleet.seed;
      "";
      rep1;
      "";
      Printf.sprintf
        "determinism: %s -- report and fingerprint at --jobs 1 vs --jobs 4"
        (if deterministic then "PASS (byte-identical)" else "FAIL (diverged)");
      Printf.sprintf
        "heap: %.1f live words per guest page at the last barrier (peak %d \
         live pages; target < 64)"
        heap_words_per_page r1.Cluster.Fleet.peak_live_pages;
    ]

let exp =
  Exp.make ~id:"fleet"
    ~title:
      "Fleet-scale parallel simulation: sharded hosts, overcommit placement, \
       diurnal traffic"
    ~paper_claim:
      "not in the paper: this repo's perf work; N independent host \
       simulations stepped in parallel epochs must produce byte-identical \
       stats at any --jobs width"
    run
