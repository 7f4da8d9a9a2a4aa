(* Degraded-media survival: the three robustness layers measured
   together.  Not a figure of the paper — the proactive-repair and
   isolation sweep the reactive fault handling (resilience) leaves
   open:

   (a,b) a background scrubber patrols the swap area with low-priority
   verify reads, catching latent media errors before a guest faults on
   them and relocating the live slots to healthy sectors — measured as
   the fraction of injected swap-area media errors the scrubber hits
   first and as the swapped pages lost with killed guests;

   (c) per-guest token-bucket QoS in front of the disk queues keeps a
   well-behaved guest's p99 swap-in latency bounded while a co-located
   guest hammers a degraded region;

   (d) a czram fast tier that trips its error budget fails over: new
   admissions route to the disk, resident slots drain back, and probes
   bring the tier back to healthy.

   Every point uses swap-storm guests (write once, re-read in passes),
   so nearly all injected read faults land on the swap area the
   scrubber patrols rather than on image I/O.  The whole grid is
   deterministic at any --jobs for a fixed --fault-seed. *)

let mid_scrub = ("scrub-mid", 25_000)
let scrub_cols = [ ("scrub-off", 0); mid_scrub; ("scrub-high", 100_000) ]

(* Fault-rate grid for the scrubber/failover panels (media errors on
   swap reads); --fault-rate overrides it with a single point. *)
let media_rates (faults : Exp.faults) =
  if faults.rate > 0.0 then [ faults.rate ] else [ 1e-4; 5e-4 ]

(* The QoS panel injects no media errors (a killed guest would quiet
   the disk and mask the contention being measured): the hammered
   region degrades via slow batches and retryable transients. *)
let qos_rate_grid = [ 0.0; 2e-3 ]

(* The failover panel needs enough czram pool corruption to burn the
   error budget: the corruption stream draws per page (not per sector),
   so it runs at higher rates than the scrubber panel's media grid. *)
let tier_rates = [ 2e-3; 1e-2 ]

(* Callers pass an already-scaled storm size and derive the resident
   limit from it, so the overcommit ratio survives [Exp.mb]'s 16 MiB
   floor at smoke scales (scaling the two independently collapses the
   ratio to 1 and nothing ever swaps). *)
let storm_guest ~threads ~rounds ~storm_mb ~limit_mb ~compute_us =
  let workload =
    Workloads.Swapstorm.workload ~threads ~rounds ~compute_us ~mb:storm_mb ()
  in
  {
    (Vmm.Config.default_guest ~workload) with
    mem_mb = 2 * storm_mb;
    vcpus = max 1 (threads / 2);
    resident_limit_mb = Some limit_mb;
    data_mb = 64;
  }

type spoint = { caught : int; hits : int; lost : int; relocated : int }

let run_scrub_point ~scale ~seed ~scrub_rate ~rate =
  let storm = Exp.mb scale 256 in
  (* compute_us spaces the storm's touches out so a scrub pass fits
     inside the re-read interval; a zero-compute storm re-reads its
     whole set before the scrubber can complete a single pass, and the
     race the panel measures degenerates to "guest always first". *)
  let guest =
    storm_guest ~threads:2 ~rounds:4 ~storm_mb:storm ~limit_mb:(storm / 2)
      ~compute_us:200
  in
  let base = Vmm.Config.default ~guests:[ guest ] in
  let cfg =
    {
      base with
      Vmm.Config.vs = Exp.vs_of Exp.Vswapper_full;
      host_mem_mb = Exp.mb scale 1024;
      (* A modest swap area keeps a scrub pass shorter than the storm's
         re-read interval — the race the catch rate measures. *)
      host_swap_mb = Exp.mb scale 512;
      faults =
        Faults.Config.make ~seed ~media_rate:rate ();
      (* The drive ages after boot: faults start at the workload epoch,
         so the catch-rate race is between the scrubber and the guest's
         swap-ins — not between boot I/O and either. *)
      epoch_faults = true;
      hbase =
        {
          base.Vmm.Config.hbase with
          Host.Hconfig.scrub_rate_pages_s = scrub_rate;
          scrub_repair_budget = 64;
        };
    }
  in
  let out = Exp.run_machine (Vmm.Machine.build cfg) in
  let s = out.Exp.stats in
  {
    caught = s.Metrics.Stats.scrub_media_found;
    hits = s.Metrics.Stats.fault_media_reads;
    lost = s.Metrics.Stats.fault_pages_lost;
    relocated = s.Metrics.Stats.scrub_relocations;
  }

let catch_pct ~caught ~hits =
  if caught + hits = 0 then None
  else Some (100.0 *. float_of_int caught /. float_of_int (caught + hits))

type qpoint = { p99_ms : float option; throttled : int }

let p99_ms_of lats =
  match List.sort compare lats with
  | [] -> None
  | l ->
      let n = List.length l in
      let i = max 0 (min (n - 1) (((99 * n) + 99) / 100 - 1)) in
      Some (float_of_int (List.nth l i) /. 1000.)

let run_qos_point ~scale ~seed ~rate ~qos =
  let vstorm = Exp.mb scale 128 in
  (* The victim faults well below its own bucket rate, so the QoS layer
     only ever throttles the hammer; its p99 tail is queueing behind
     the hammer's (degraded, slow) batches — the thing QoS cuts. *)
  let victim =
    storm_guest ~threads:1 ~rounds:3 ~storm_mb:vstorm
      ~limit_mb:(vstorm * 3 / 4) ~compute_us:4000
  in
  (* Enough hammer rounds that it outlives the victim whether or not it
     is throttled: both columns then measure a fully-contended victim,
     not different mixes of contended and idle-disk samples. *)
  let hstorm = Exp.mb scale 384 in
  let hammer =
    storm_guest ~threads:8 ~rounds:40 ~storm_mb:hstorm ~limit_mb:(hstorm / 3)
      ~compute_us:3
  in
  let base = Vmm.Config.default ~guests:[ victim; hammer ] in
  let cfg =
    {
      base with
      Vmm.Config.vs = Exp.vs_of Exp.Vswapper_full;
      (* Ample host memory: swap traffic is driven by the per-guest
         resident limits alone, so the victim's fault count does not
         shift with the hammer's pace through host-level pressure. *)
      host_mem_mb = Exp.mb scale 4096;
      host_swap_mb = Exp.mb scale 1024;
      (* Async faults let the hammer keep several swap-ins in flight —
         the queue pressure QoS is there to arbitrate. *)
      async_faults = true;
      (* Degraded service only — no transients, no media kills: the
         victim's own reads must not pay retry latency the QoS layer
         cannot remove, or the verdict measures the fault model instead
         of the arbitration.  Big hammer batches that start in the
         degraded region clog the queues; the victim's own small reads
         that land there are individually cheap. *)
      faults =
        (if rate <= 0.0 then Faults.Config.none
         else
           Faults.Config.make ~seed ~degraded_rate:(rate *. 10.)
             ~degraded_mult:4.0 ());
      epoch_faults = true;
      hbase =
        {
          base.Vmm.Config.hbase with
          (* The cap must sit well under what the disk can absorb (the
             unthrottled hammer saturates it), and the victim's own
             demand well under the cap — so the hammer is squeezed hard
             while the victim always admits inline. *)
          Host.Hconfig.qos_rate = (if qos then 300 else 0);
          qos_burst = 16;
        };
    }
  in
  let machine = Vmm.Machine.build cfg in
  let victim_lats = ref [] in
  Host.Hostmm.set_swapin_probe (Vmm.Machine.host machine)
    (Some (fun ~gid ~us -> if gid = 0 then victim_lats := us :: !victim_lats));
  let out = Exp.run_machine machine in
  {
    p99_ms = p99_ms_of !victim_lats;
    throttled = out.Exp.stats.Metrics.Stats.qos_throttled;
  }

type tpoint = { degraded : int; recovered : int; rerouted : int }

let run_tier_point ~scale ~seed ~rate =
  let storm = Exp.mb scale 256 in
  (* Slowed like the scrubber panel's guest: the scrubber must trip the
     error budget on verify reads before the guest faults on a corrupt
     czram page, or the run ends in a kill instead of a failover. *)
  let guest =
    storm_guest ~threads:2 ~rounds:4 ~storm_mb:storm ~limit_mb:(storm / 2)
      ~compute_us:200
  in
  let base = Vmm.Config.default ~guests:[ guest ] in
  let cfg =
    {
      base with
      Vmm.Config.vs = Exp.vs_of Exp.Vswapper_full;
      host_mem_mb = Exp.mb scale 1024;
      host_swap_mb = Exp.mb scale 512;
      (* Corruption confined to the compressed pool: the disk tier must
         stay healthy to absorb the failover this panel measures. *)
      faults =
        Faults.Config.make ~seed ~czram_rate:rate ();
      epoch_faults = true;
      tiers =
        {
          Storage.Tiers.disk_only with
          Storage.Tiers.fast = Storage.Tiers.Czram;
          fast_share_percent = 50;
          tier_error_budget = 4;
        };
      hbase =
        {
          base.Vmm.Config.hbase with
          Host.Hconfig.scrub_rate_pages_s = 25_000;
          scrub_repair_budget = 64;
        };
    }
  in
  let out = Exp.run_machine (Vmm.Machine.build cfg) in
  let s = out.Exp.stats in
  {
    degraded = s.Metrics.Stats.tier_degraded_events;
    recovered = s.Metrics.Stats.tier_recovered_events;
    rerouted = s.Metrics.Stats.tier_failover_routes;
  }

let run ~scale ~faults =
  let seed = faults.Exp.seed in
  let rates = media_rates faults in
  (* Scrubber grid: scrub-rate columns x media-rate points. *)
  let scrub_rows =
    Exp.grid
      (fun (_, scrub_rate) rate ->
        run_scrub_point ~scale ~seed ~scrub_rate ~rate)
      scrub_cols rates
  in
  (* QoS grid: qos-off/qos-on columns x fault-rate points (0 = the
     fault-free baseline the verdict compares against). *)
  let qos_rows =
    Exp.grid
      (fun qos rate -> run_qos_point ~scale ~seed ~rate ~qos)
      [ false; true ] qos_rate_grid
  in
  (* Czram failover: one tiered column over the media-rate points. *)
  let tier_row =
    Exp.shard (fun rate -> run_tier_point ~scale ~seed ~rate) tier_rates
  in
  let x = List.map (Printf.sprintf "%g") rates in
  let scrub_panel title f =
    Exp.series ~title ~x_label:"rate" ~x fst scrub_rows f
  in
  (* Verdict 1: aggregated over the media-rate points of the mid scrub
     column, the scrubber must hit at least half of the latent errors
     before a guest does. *)
  let mid = List.assoc mid_scrub scrub_rows in
  let agg_caught = List.fold_left (fun a p -> a + p.caught) 0 mid in
  let agg_hits = List.fold_left (fun a p -> a + p.hits) 0 mid in
  let verdict_scrub =
    match catch_pct ~caught:agg_caught ~hits:agg_hits with
    | None -> "scrub verdict: n/a (no media errors were injected)"
    | Some pct ->
        Printf.sprintf
          "scrub verdict: scrubber caught %.1f%% of latent media errors \
           before a guest fault at the mid scrub rate (%d scrubbed first vs \
           %d guest hits; >=50%% required)%s"
          pct agg_caught agg_hits
          (if pct >= 50.0 then "" else "  ** NOT >=50% **")
  in
  (* Verdict 2: with QoS on, the victim's p99 swap-in under the
     degraded hammer stays within 2x its fault-free baseline. *)
  let qpoint qos rate =
    match
      List.assoc_opt rate (List.combine qos_rate_grid (List.assoc qos qos_rows))
    with
    | Some p -> p.p99_ms
    | None -> None
  in
  let hammer_rate = List.fold_left max 0.0 qos_rate_grid in
  let verdict_qos =
    match (qpoint false 0.0, qpoint true hammer_rate) with
    | Some base_ms, Some on_ms ->
        Printf.sprintf
          "qos verdict: victim p99 swap-in %.3f ms under a degraded hammer \
           with QoS vs %.3f ms fault-free baseline (<=2x required)%s"
          on_ms base_ms
          (if on_ms <= 2.0 *. base_ms then "" else "  ** NOT <=2x **")
    | _ -> "qos verdict: n/a (victim recorded no swap-ins)"
  in
  String.concat "\n"
    [
      scrub_panel
        "(a) latent media errors the scrubber caught before a guest fault \
         [%] vs injected media rate"
        (fun p -> catch_pct ~caught:p.caught ~hits:p.hits);
      scrub_panel
        "(b) swapped pages lost with killed guests [count] -- scrubbing \
         turns losses into relocations"
        (fun p -> Some (float_of_int p.lost));
      Exp.series
        ~title:
          "(c) victim p99 swap-in latency [ms] while a co-located guest \
           hammers a degraded region (rate 0 = fault-free baseline)"
        ~x_label:"rate"
        ~x:(List.map (Printf.sprintf "%g") qos_rate_grid)
        (fun qos -> if qos then "qos-on" else "qos-off")
        qos_rows
        (fun p -> p.p99_ms);
      Metrics.Table.render_series
        ~title:
          "(d) czram fast-tier failover under pool corruption (error budget \
           4, scrubber mid) [count]"
        ~x_label:"rate"
        ~x:(List.map (Printf.sprintf "%g") tier_rates)
        ~cols:
          [
            ( "degraded",
              List.map (fun p -> Some (float_of_int p.degraded)) tier_row );
            ( "recovered",
              List.map (fun p -> Some (float_of_int p.recovered)) tier_row );
            ( "rerouted",
              List.map (fun p -> Some (float_of_int p.rerouted)) tier_row );
          ];
      verdict_scrub;
      verdict_qos;
    ]

let exp =
  Exp.make ~id:"degradation"
    ~title:"Degraded media: scrubber, per-guest QoS and tier failover"
    ~paper_claim:
      "not in the paper: proactive repair and isolation under failing media \
       -- the background scrubber catches latent swap errors before guests \
       fault on them, token-bucket QoS keeps a victim's p99 swap-in bounded \
       under a noisy neighbor, and a czram tier that trips its error budget \
       fails over and recovers"
    run
