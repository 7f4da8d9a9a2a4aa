type t = {
  id : string;
  title : string;
  paper_claim : string;
  run : scale:float -> string;
}

type config_kind =
  | Baseline
  | Balloon_baseline
  | Mapper_only
  | Vswapper_full
  | Balloon_vswapper

let config_name = function
  | Baseline -> "baseline"
  | Balloon_baseline -> "balloon+base"
  | Mapper_only -> "mapper"
  | Vswapper_full -> "vswapper"
  | Balloon_vswapper -> "balloon+vswap"

let all_configs =
  [ Baseline; Balloon_baseline; Mapper_only; Vswapper_full; Balloon_vswapper ]

let vs_of = function
  | Baseline | Balloon_baseline -> Vswapper.Vsconfig.baseline
  | Mapper_only -> Vswapper.Vsconfig.mapper_only
  | Vswapper_full | Balloon_vswapper -> Vswapper.Vsconfig.vswapper

let ballooned = function
  | Balloon_baseline | Balloon_vswapper -> true
  | Baseline | Mapper_only | Vswapper_full -> false

let mb scale x = max 16 (int_of_float (float_of_int x *. scale))
let scaled_int scale x ~min:lo = max lo (int_of_float (float_of_int x *. scale))

type mark = { index : int; at : Sim.Time.t; snapshot : Metrics.Stats.t }

let mark_collector machine_ref =
  let acc = ref [] in
  let on_mark index =
    match !machine_ref with
    | None -> ()
    | Some m ->
        acc :=
          {
            index;
            at = Sim.Engine.now (Vmm.Machine.engine m);
            snapshot = Metrics.Stats.copy (Vmm.Machine.stats m);
          }
          :: !acc
  in
  (on_mark, fun () -> List.rev !acc)

type run_out = {
  runtime_s : float option;
  per_guest_s : float option array;
  stats : Metrics.Stats.t;
  oomed : bool;
  marks : mark list;
}

(* Cross-run disk-batching totals.  Machines run on worker domains under
   the parallel sweep, so the accumulators are atomics; sums are
   order-independent, keeping the totals deterministic at any job
   count. *)
type disk_totals = {
  reads : int;  (** individual read requests served from the media *)
  batches : int;  (** media accesses those reads were coalesced into *)
  batch_sectors : int;  (** total sectors spanned by read batches *)
}

let acc_reads = Atomic.make 0
let acc_batches = Atomic.make 0
let acc_batch_sectors = Atomic.make 0

let reset_disk_totals () =
  Atomic.set acc_reads 0;
  Atomic.set acc_batches 0;
  Atomic.set acc_batch_sectors 0

let disk_totals () =
  {
    reads = Atomic.get acc_reads;
    batches = Atomic.get acc_batches;
    batch_sectors = Atomic.get acc_batch_sectors;
  }

(* Fault-injection totals, same atomic discipline as the disk totals. *)
type fault_totals = {
  injected : int;
  retried : int;
  degraded : int;
  killed : int;
  destage_lost : int;
  destage_retried : int;
}

let acc_injected = Atomic.make 0
let acc_retried = Atomic.make 0
let acc_degraded = Atomic.make 0
let acc_killed = Atomic.make 0
let acc_destage_lost = Atomic.make 0
let acc_destage_retried = Atomic.make 0

let reset_fault_totals () =
  Atomic.set acc_injected 0;
  Atomic.set acc_retried 0;
  Atomic.set acc_degraded 0;
  Atomic.set acc_killed 0;
  Atomic.set acc_destage_lost 0;
  Atomic.set acc_destage_retried 0

let fault_totals () =
  {
    injected = Atomic.get acc_injected;
    retried = Atomic.get acc_retried;
    degraded = Atomic.get acc_degraded;
    killed = Atomic.get acc_killed;
    destage_lost = Atomic.get acc_destage_lost;
    destage_retried = Atomic.get acc_destage_retried;
  }

(* Tiered swap-backend totals, same atomic discipline.  All zero when
   every run used the disk-only passthrough. *)
type tier_totals = {
  admissions : int;
  rejects : int;
  promotions : int;
  demotions : int;
  writeback_sectors : int;
  fast_swapins : int;
  slow_swapins : int;
  fast_swapin_us : int;
  slow_swapin_us : int;
}

let acc_tier_admissions = Atomic.make 0
let acc_tier_rejects = Atomic.make 0
let acc_tier_promotions = Atomic.make 0
let acc_tier_demotions = Atomic.make 0
let acc_tier_writeback = Atomic.make 0
let acc_tier_fast_ins = Atomic.make 0
let acc_tier_slow_ins = Atomic.make 0
let acc_tier_fast_us = Atomic.make 0
let acc_tier_slow_us = Atomic.make 0

let reset_tier_totals () =
  Atomic.set acc_tier_admissions 0;
  Atomic.set acc_tier_rejects 0;
  Atomic.set acc_tier_promotions 0;
  Atomic.set acc_tier_demotions 0;
  Atomic.set acc_tier_writeback 0;
  Atomic.set acc_tier_fast_ins 0;
  Atomic.set acc_tier_slow_ins 0;
  Atomic.set acc_tier_fast_us 0;
  Atomic.set acc_tier_slow_us 0

let tier_totals () =
  {
    admissions = Atomic.get acc_tier_admissions;
    rejects = Atomic.get acc_tier_rejects;
    promotions = Atomic.get acc_tier_promotions;
    demotions = Atomic.get acc_tier_demotions;
    writeback_sectors = Atomic.get acc_tier_writeback;
    fast_swapins = Atomic.get acc_tier_fast_ins;
    slow_swapins = Atomic.get acc_tier_slow_ins;
    fast_swapin_us = Atomic.get acc_tier_fast_us;
    slow_swapin_us = Atomic.get acc_tier_slow_us;
  }

(* Degraded-media survival totals (scrubber, QoS, tier failover), same
   atomic discipline.  All zero when no run armed the scrubber, the QoS
   layer, or a fault-injecting tier pair. *)
type resilience2_totals = {
  scrub_scans : int;
  scrub_verify_reads : int;
  scrub_media_found : int;
  scrub_relocations : int;
  scrub_reloc_failed : int;
  qos_throttled : int;
  qos_throttle_wait_us : int;
  tier_degraded_events : int;
  tier_recovered_events : int;
  tier_failover_routes : int;
  media_reads : int;
  pages_lost : int;
}

let acc_scrub_scans = Atomic.make 0
let acc_scrub_verify = Atomic.make 0
let acc_scrub_found = Atomic.make 0
let acc_scrub_reloc = Atomic.make 0
let acc_scrub_reloc_failed = Atomic.make 0
let acc_qos_throttled = Atomic.make 0
let acc_qos_wait_us = Atomic.make 0
let acc_tier_degraded = Atomic.make 0
let acc_tier_recovered = Atomic.make 0
let acc_tier_failover = Atomic.make 0
let acc_media_reads = Atomic.make 0
let acc_pages_lost = Atomic.make 0

let reset_resilience2_totals () =
  Atomic.set acc_scrub_scans 0;
  Atomic.set acc_scrub_verify 0;
  Atomic.set acc_scrub_found 0;
  Atomic.set acc_scrub_reloc 0;
  Atomic.set acc_scrub_reloc_failed 0;
  Atomic.set acc_qos_throttled 0;
  Atomic.set acc_qos_wait_us 0;
  Atomic.set acc_tier_degraded 0;
  Atomic.set acc_tier_recovered 0;
  Atomic.set acc_tier_failover 0;
  Atomic.set acc_media_reads 0;
  Atomic.set acc_pages_lost 0

let resilience2_totals () =
  {
    scrub_scans = Atomic.get acc_scrub_scans;
    scrub_verify_reads = Atomic.get acc_scrub_verify;
    scrub_media_found = Atomic.get acc_scrub_found;
    scrub_relocations = Atomic.get acc_scrub_reloc;
    scrub_reloc_failed = Atomic.get acc_scrub_reloc_failed;
    qos_throttled = Atomic.get acc_qos_throttled;
    qos_throttle_wait_us = Atomic.get acc_qos_wait_us;
    tier_degraded_events = Atomic.get acc_tier_degraded;
    tier_recovered_events = Atomic.get acc_tier_recovered;
    tier_failover_routes = Atomic.get acc_tier_failover;
    media_reads = Atomic.get acc_media_reads;
    pages_lost = Atomic.get acc_pages_lost;
  }

(* Engine telemetry totals, same atomic discipline.  Per-experiment
   attribution rides on a domain-local tag: the registry tags the job
   running an experiment, and [shard] re-establishes the submitting
   experiment's tag around every sub-job — the pool's help-execution
   means a domain waiting in one experiment may execute another
   experiment's shard, so the tag must travel with the job, not the
   domain. *)
type engine_totals = { fired : int; cancels_reclaimed : int; cascades : int }

let acc_engine_fired = Atomic.make 0
let acc_engine_cancels = Atomic.make 0
let acc_engine_cascades = Atomic.make 0

let reset_engine_totals () =
  Atomic.set acc_engine_fired 0;
  Atomic.set acc_engine_cancels 0;
  Atomic.set acc_engine_cascades 0

let engine_totals () =
  {
    fired = Atomic.get acc_engine_fired;
    cancels_reclaimed = Atomic.get acc_engine_cancels;
    cascades = Atomic.get acc_engine_cascades;
  }

(* Async fault-path and multi-queue totals, same atomic discipline.
   Sums are order-independent; the two highwaters combine via a CAS max,
   which is equally order-independent. *)
type async_totals = {
  waiter_merges : int;
  deferred : int;
  inflight_highwater : int;
  mq_batches : int;
  queue_depth_highwater : int;
}

let acc_waiter_merges = Atomic.make 0
let acc_deferred = Atomic.make 0
let acc_inflight_hw = Atomic.make 0
let acc_mq_batches = Atomic.make 0
let acc_qdepth_hw = Atomic.make 0

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let reset_async_totals () =
  Atomic.set acc_waiter_merges 0;
  Atomic.set acc_deferred 0;
  Atomic.set acc_inflight_hw 0;
  Atomic.set acc_mq_batches 0;
  Atomic.set acc_qdepth_hw 0

let async_totals () =
  {
    waiter_merges = Atomic.get acc_waiter_merges;
    deferred = Atomic.get acc_deferred;
    inflight_highwater = Atomic.get acc_inflight_hw;
    mq_batches = Atomic.get acc_mq_batches;
    queue_depth_highwater = Atomic.get acc_qdepth_hw;
  }

(* Fleet-experiment totals for the bench JSON summary.  Unlike the
   atomic counters above these are set wholesale, once, by the fleet
   experiment (both of its runs happen inside one experiment body), so
   a mutex'd option cell is enough. *)
type fleet_jobs_point = {
  fj_jobs : int;
  fj_wall_s : float;
  fj_guest_seconds_per_s : float;
  fj_speedup : float;
}

type fleet_totals = {
  fleet_hosts : int;
  fleet_guests : int;
  fleet_rejected : int;
  fleet_pages : int;
  fleet_epochs : int;
  fleet_migrations : int;
  fleet_migrations_aborted : int;
  fleet_throttled_batches : int;
  fleet_oom_kills : int;
  fleet_heap_words_per_page : float;
  fleet_per_jobs : fleet_jobs_point list;
}

let fleet_acc : fleet_totals option ref = ref None
let fleet_mu = Mutex.create ()

let reset_fleet_totals () =
  Mutex.protect fleet_mu (fun () -> fleet_acc := None)

let set_fleet_totals t = Mutex.protect fleet_mu (fun () -> fleet_acc := Some t)
let fleet_totals () = Mutex.protect fleet_mu (fun () -> !fleet_acc)

let exp_tag : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_exp_tag tag f =
  let saved = Domain.DLS.get exp_tag in
  Domain.DLS.set exp_tag tag;
  Fun.protect ~finally:(fun () -> Domain.DLS.set exp_tag saved) f

(* Per-experiment fired-event counts.  The table is guarded by a mutex
   (cells are created lazily from worker domains); the counts themselves
   are atomics, so sums stay order-independent and deterministic at any
   job count. *)
let exp_engine_tbl : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 31
let exp_engine_mu = Mutex.create ()

let bump_exp_engine_events id n =
  let cell =
    Mutex.protect exp_engine_mu (fun () ->
        match Hashtbl.find_opt exp_engine_tbl id with
        | Some c -> c
        | None ->
            let c = Atomic.make 0 in
            Hashtbl.add exp_engine_tbl id c;
            c)
  in
  ignore (Atomic.fetch_and_add cell n)

let exp_engine_events () =
  Mutex.protect exp_engine_mu (fun () ->
      Hashtbl.fold
        (fun id c acc -> (id, Atomic.get c) :: acc)
        exp_engine_tbl []
      |> List.sort compare)

(* Fault knobs (bench --fault-seed / --fault-rate): consumed by the
   resilience experiment.  Set once before the sweep starts, so worker
   domains only ever read them. *)
let fault_seed = Atomic.make 1
let fault_rate = Atomic.make 0.0

let set_fault_knobs ?seed ?rate () =
  (match seed with Some s -> Atomic.set fault_seed s | None -> ());
  match rate with Some r -> Atomic.set fault_rate r | None -> ()

let fault_seed_knob () = Atomic.get fault_seed
let fault_rate_knob () = Atomic.get fault_rate

let record_disk_stats (s : Metrics.Stats.t) =
  ignore (Atomic.fetch_and_add acc_reads s.Metrics.Stats.disk_batched_reads);
  ignore (Atomic.fetch_and_add acc_batches s.Metrics.Stats.disk_read_batches);
  ignore
    (Atomic.fetch_and_add acc_batch_sectors s.Metrics.Stats.disk_batch_sectors);
  ignore
    (Atomic.fetch_and_add acc_injected
       (s.Metrics.Stats.faults_injected_media
       + s.Metrics.Stats.faults_injected_transient));
  ignore (Atomic.fetch_and_add acc_retried s.Metrics.Stats.fault_retries);
  ignore
    (Atomic.fetch_and_add acc_degraded s.Metrics.Stats.faults_degraded_batches);
  ignore (Atomic.fetch_and_add acc_killed s.Metrics.Stats.fault_guest_kills);
  ignore
    (Atomic.fetch_and_add acc_destage_lost s.Metrics.Stats.destage_media_errors);
  ignore
    (Atomic.fetch_and_add acc_destage_retried
       s.Metrics.Stats.destage_transient_retries);
  ignore
    (Atomic.fetch_and_add acc_tier_admissions s.Metrics.Stats.tier_admissions);
  ignore (Atomic.fetch_and_add acc_tier_rejects s.Metrics.Stats.tier_rejects);
  ignore
    (Atomic.fetch_and_add acc_tier_promotions s.Metrics.Stats.tier_promotions);
  ignore
    (Atomic.fetch_and_add acc_tier_demotions s.Metrics.Stats.tier_demotions);
  ignore
    (Atomic.fetch_and_add acc_tier_writeback
       s.Metrics.Stats.tier_writeback_sectors);
  ignore
    (Atomic.fetch_and_add acc_tier_fast_ins s.Metrics.Stats.tier_fast_swapins);
  ignore
    (Atomic.fetch_and_add acc_tier_slow_ins s.Metrics.Stats.tier_slow_swapins);
  ignore
    (Atomic.fetch_and_add acc_tier_fast_us s.Metrics.Stats.tier_fast_swapin_us);
  ignore
    (Atomic.fetch_and_add acc_tier_slow_us s.Metrics.Stats.tier_slow_swapin_us);
  ignore (Atomic.fetch_and_add acc_scrub_scans s.Metrics.Stats.scrub_scans);
  ignore
    (Atomic.fetch_and_add acc_scrub_verify s.Metrics.Stats.scrub_verify_reads);
  ignore
    (Atomic.fetch_and_add acc_scrub_found s.Metrics.Stats.scrub_media_found);
  ignore
    (Atomic.fetch_and_add acc_scrub_reloc s.Metrics.Stats.scrub_relocations);
  ignore
    (Atomic.fetch_and_add acc_scrub_reloc_failed
       s.Metrics.Stats.scrub_reloc_failed);
  ignore (Atomic.fetch_and_add acc_qos_throttled s.Metrics.Stats.qos_throttled);
  ignore
    (Atomic.fetch_and_add acc_qos_wait_us s.Metrics.Stats.qos_throttle_wait_us);
  ignore
    (Atomic.fetch_and_add acc_tier_degraded
       s.Metrics.Stats.tier_degraded_events);
  ignore
    (Atomic.fetch_and_add acc_tier_recovered
       s.Metrics.Stats.tier_recovered_events);
  ignore
    (Atomic.fetch_and_add acc_tier_failover
       s.Metrics.Stats.tier_failover_routes);
  ignore
    (Atomic.fetch_and_add acc_media_reads s.Metrics.Stats.fault_media_reads);
  ignore
    (Atomic.fetch_and_add acc_pages_lost s.Metrics.Stats.fault_pages_lost);
  ignore
    (Atomic.fetch_and_add acc_engine_fired s.Metrics.Stats.engine_events_fired);
  ignore
    (Atomic.fetch_and_add acc_engine_cancels
       s.Metrics.Stats.engine_cancels_reclaimed);
  ignore
    (Atomic.fetch_and_add acc_engine_cascades s.Metrics.Stats.engine_cascades);
  ignore
    (Atomic.fetch_and_add acc_waiter_merges
       s.Metrics.Stats.async_waiter_merges);
  ignore
    (Atomic.fetch_and_add acc_deferred s.Metrics.Stats.async_faults_deferred);
  atomic_max acc_inflight_hw s.Metrics.Stats.async_inflight_highwater;
  ignore (Atomic.fetch_and_add acc_mq_batches s.Metrics.Stats.disk_mq_batches);
  atomic_max acc_qdepth_hw s.Metrics.Stats.disk_queue_depth_highwater;
  match Domain.DLS.get exp_tag with
  | Some id -> bump_exp_engine_events id s.Metrics.Stats.engine_events_fired
  | None -> ()

let run_machine ?(get_marks = fun () -> []) machine =
  let result = Vmm.Machine.run machine in
  record_disk_stats result.Vmm.Machine.stats;
  let to_s = Option.map Sim.Time.to_sec_float in
  let per_guest_s =
    Array.map (fun g -> to_s g.Vmm.Machine.runtime) result.Vmm.Machine.guests
  in
  let oomed =
    Array.exists (fun g -> g.Vmm.Machine.oomed) result.Vmm.Machine.guests
  in
  {
    runtime_s = per_guest_s.(0);
    per_guest_s;
    stats = result.Vmm.Machine.stats;
    oomed;
    marks = get_marks ();
  }

let opt_s r = r.runtime_s

(* Fan a per-configuration loop out over the shared global pool.  [map]
   on the global pool is re-entrant — the calling domain helps execute
   queued jobs instead of blocking — so experiments sharded here may
   themselves be jobs of the outer registry sweep.  Results come back in
   submission order, and a job's exception is re-raised here, so a
   failing point fails the whole experiment exactly as the serial loop
   did (the registry captures it per-experiment). *)
let shard f xs =
  (* Sub-jobs inherit the submitting experiment's telemetry tag: they may
     execute on any pool domain (including one that is itself running a
     different experiment and merely helping). *)
  let tag = Domain.DLS.get exp_tag in
  let f x = with_exp_tag tag (fun () -> f x) in
  Parallel.Pool.map (Parallel.Pool.global ()) f xs
  |> List.map (function Ok v -> v | Error e -> raise e)

(* [group k xs] splits [xs] into consecutive chunks of [k] — undoes the
   configs-major flattening the sweeps use to submit every (config,
   point) pair as one pool job. *)
let group k xs =
  let rec take i acc l =
    if i = 0 then (List.rev acc, l)
    else
      match l with
      | [] -> (List.rev acc, [])
      | x :: r -> take (i - 1) (x :: acc) r
  in
  let rec go = function
    | [] -> []
    | l ->
        let c, rest = take k [] l in
        c :: go rest
  in
  if k <= 0 then invalid_arg "Exp.group" else go xs

let header ~id ~title ~paper_claim body =
  let line = String.make 72 '=' in
  Printf.sprintf "%s\n%s: %s\npaper: %s\n%s\n%s" line (String.uppercase_ascii id)
    title paper_claim line body
