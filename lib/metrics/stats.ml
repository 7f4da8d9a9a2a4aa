type t = {
  mutable disk_ops : int;
  mutable disk_sectors_read : int;
  mutable disk_sectors_written : int;
  mutable disk_seq_reads : int;
  mutable disk_read_batches : int;
  mutable disk_batched_reads : int;
  mutable disk_batch_sectors : int;
  mutable disk_mq_batches : int;
  mutable disk_queue_depth_highwater : int;
  mutable swap_sectors_read : int;
  mutable swap_sectors_written : int;
  mutable host_swapins : int;
  mutable host_swapouts : int;
  mutable silent_swap_writes : int;
  mutable stale_reads : int;
  mutable false_reads : int;
  mutable hypervisor_code_faults : int;
  mutable host_context_faults : int;
  mutable guest_context_faults : int;
  mutable pages_scanned : int;
  mutable guest_swapins : int;
  mutable guest_swapouts : int;
  mutable guest_major_faults : int;
  mutable oom_kills : int;
  mutable mapper_tracked : int;
  mutable mapper_discards : int;
  mutable mapper_refetches : int;
  mutable mapper_invalidations : int;
  mutable preventer_remaps : int;
  mutable preventer_merges : int;
  mutable preventer_timeouts : int;
  mutable preventer_rejects : int;
  mutable balloon_inflated_pages : int;
  mutable balloon_deflated_pages : int;
  mutable faults_injected_media : int;
  mutable faults_injected_transient : int;
  mutable faults_degraded_batches : int;
  mutable fault_retries : int;
  mutable fault_retry_exhausted : int;
  mutable fault_guest_kills : int;
  mutable destage_media_errors : int;
  mutable destage_transient_retries : int;
  mutable swap_full_fallbacks : int;
  mutable emergency_steals : int;
  mutable async_waiter_merges : int;
  mutable async_faults_deferred : int;
  mutable async_inflight_highwater : int;
  mutable engine_events_fired : int;
  mutable engine_cancels_reclaimed : int;
  mutable engine_cascades : int;
  mutable tier_admissions : int;
  mutable tier_rejects : int;
  mutable tier_promotions : int;
  mutable tier_demotions : int;
  mutable tier_writeback_sectors : int;
  mutable tier_fast_swapins : int;
  mutable tier_slow_swapins : int;
  mutable tier_fast_swapin_us : int;
  mutable tier_slow_swapin_us : int;
  mutable scrub_scans : int;
  mutable scrub_verify_reads : int;
  mutable scrub_media_found : int;
  mutable scrub_relocations : int;
  mutable scrub_reloc_failed : int;
  mutable qos_throttled : int;
  mutable qos_throttle_wait_us : int;
  mutable tier_degraded_events : int;
  mutable tier_recovered_events : int;
  mutable tier_failover_routes : int;
  mutable fault_media_reads : int;
  mutable fault_pages_lost : int;
}

let create () =
  {
    disk_ops = 0;
    disk_sectors_read = 0;
    disk_sectors_written = 0;
    disk_seq_reads = 0;
    disk_read_batches = 0;
    disk_batched_reads = 0;
    disk_batch_sectors = 0;
    disk_mq_batches = 0;
    disk_queue_depth_highwater = 0;
    swap_sectors_read = 0;
    swap_sectors_written = 0;
    host_swapins = 0;
    host_swapouts = 0;
    silent_swap_writes = 0;
    stale_reads = 0;
    false_reads = 0;
    hypervisor_code_faults = 0;
    host_context_faults = 0;
    guest_context_faults = 0;
    pages_scanned = 0;
    guest_swapins = 0;
    guest_swapouts = 0;
    guest_major_faults = 0;
    oom_kills = 0;
    mapper_tracked = 0;
    mapper_discards = 0;
    mapper_refetches = 0;
    mapper_invalidations = 0;
    preventer_remaps = 0;
    preventer_merges = 0;
    preventer_timeouts = 0;
    preventer_rejects = 0;
    balloon_inflated_pages = 0;
    balloon_deflated_pages = 0;
    faults_injected_media = 0;
    faults_injected_transient = 0;
    faults_degraded_batches = 0;
    fault_retries = 0;
    fault_retry_exhausted = 0;
    fault_guest_kills = 0;
    destage_media_errors = 0;
    destage_transient_retries = 0;
    swap_full_fallbacks = 0;
    emergency_steals = 0;
    async_waiter_merges = 0;
    async_faults_deferred = 0;
    async_inflight_highwater = 0;
    engine_events_fired = 0;
    engine_cancels_reclaimed = 0;
    engine_cascades = 0;
    tier_admissions = 0;
    tier_rejects = 0;
    tier_promotions = 0;
    tier_demotions = 0;
    tier_writeback_sectors = 0;
    tier_fast_swapins = 0;
    tier_slow_swapins = 0;
    tier_fast_swapin_us = 0;
    tier_slow_swapin_us = 0;
    scrub_scans = 0;
    scrub_verify_reads = 0;
    scrub_media_found = 0;
    scrub_relocations = 0;
    scrub_reloc_failed = 0;
    qos_throttled = 0;
    qos_throttle_wait_us = 0;
    tier_degraded_events = 0;
    tier_recovered_events = 0;
    tier_failover_routes = 0;
    fault_media_reads = 0;
    fault_pages_lost = 0;
  }

let copy t = { t with disk_ops = t.disk_ops }

(* In-place [dst += src].  Every counter is a plain sum except the two
   highwater gauges, which merge with max: "deepest queue on any host"
   is the meaningful fleet-wide reading, and max keeps the merge
   order-independent so barrier reductions stay deterministic. *)
let add dst src =
  dst.disk_ops <- dst.disk_ops + src.disk_ops;
  dst.disk_sectors_read <- dst.disk_sectors_read + src.disk_sectors_read;
  dst.disk_sectors_written <-
    dst.disk_sectors_written + src.disk_sectors_written;
  dst.disk_seq_reads <- dst.disk_seq_reads + src.disk_seq_reads;
  dst.disk_read_batches <- dst.disk_read_batches + src.disk_read_batches;
  dst.disk_batched_reads <- dst.disk_batched_reads + src.disk_batched_reads;
  dst.disk_batch_sectors <- dst.disk_batch_sectors + src.disk_batch_sectors;
  dst.disk_mq_batches <- dst.disk_mq_batches + src.disk_mq_batches;
  dst.disk_queue_depth_highwater <-
    max dst.disk_queue_depth_highwater src.disk_queue_depth_highwater;
  dst.swap_sectors_read <- dst.swap_sectors_read + src.swap_sectors_read;
  dst.swap_sectors_written <-
    dst.swap_sectors_written + src.swap_sectors_written;
  dst.host_swapins <- dst.host_swapins + src.host_swapins;
  dst.host_swapouts <- dst.host_swapouts + src.host_swapouts;
  dst.silent_swap_writes <- dst.silent_swap_writes + src.silent_swap_writes;
  dst.stale_reads <- dst.stale_reads + src.stale_reads;
  dst.false_reads <- dst.false_reads + src.false_reads;
  dst.hypervisor_code_faults <-
    dst.hypervisor_code_faults + src.hypervisor_code_faults;
  dst.host_context_faults <- dst.host_context_faults + src.host_context_faults;
  dst.guest_context_faults <-
    dst.guest_context_faults + src.guest_context_faults;
  dst.pages_scanned <- dst.pages_scanned + src.pages_scanned;
  dst.guest_swapins <- dst.guest_swapins + src.guest_swapins;
  dst.guest_swapouts <- dst.guest_swapouts + src.guest_swapouts;
  dst.guest_major_faults <- dst.guest_major_faults + src.guest_major_faults;
  dst.oom_kills <- dst.oom_kills + src.oom_kills;
  dst.mapper_tracked <- dst.mapper_tracked + src.mapper_tracked;
  dst.mapper_discards <- dst.mapper_discards + src.mapper_discards;
  dst.mapper_refetches <- dst.mapper_refetches + src.mapper_refetches;
  dst.mapper_invalidations <-
    dst.mapper_invalidations + src.mapper_invalidations;
  dst.preventer_remaps <- dst.preventer_remaps + src.preventer_remaps;
  dst.preventer_merges <- dst.preventer_merges + src.preventer_merges;
  dst.preventer_timeouts <- dst.preventer_timeouts + src.preventer_timeouts;
  dst.preventer_rejects <- dst.preventer_rejects + src.preventer_rejects;
  dst.balloon_inflated_pages <-
    dst.balloon_inflated_pages + src.balloon_inflated_pages;
  dst.balloon_deflated_pages <-
    dst.balloon_deflated_pages + src.balloon_deflated_pages;
  dst.faults_injected_media <-
    dst.faults_injected_media + src.faults_injected_media;
  dst.faults_injected_transient <-
    dst.faults_injected_transient + src.faults_injected_transient;
  dst.faults_degraded_batches <-
    dst.faults_degraded_batches + src.faults_degraded_batches;
  dst.fault_retries <- dst.fault_retries + src.fault_retries;
  dst.fault_retry_exhausted <-
    dst.fault_retry_exhausted + src.fault_retry_exhausted;
  dst.fault_guest_kills <- dst.fault_guest_kills + src.fault_guest_kills;
  dst.destage_media_errors <-
    dst.destage_media_errors + src.destage_media_errors;
  dst.destage_transient_retries <-
    dst.destage_transient_retries + src.destage_transient_retries;
  dst.swap_full_fallbacks <- dst.swap_full_fallbacks + src.swap_full_fallbacks;
  dst.emergency_steals <- dst.emergency_steals + src.emergency_steals;
  dst.async_waiter_merges <- dst.async_waiter_merges + src.async_waiter_merges;
  dst.async_faults_deferred <-
    dst.async_faults_deferred + src.async_faults_deferred;
  dst.async_inflight_highwater <-
    max dst.async_inflight_highwater src.async_inflight_highwater;
  dst.engine_events_fired <- dst.engine_events_fired + src.engine_events_fired;
  dst.engine_cancels_reclaimed <-
    dst.engine_cancels_reclaimed + src.engine_cancels_reclaimed;
  dst.engine_cascades <- dst.engine_cascades + src.engine_cascades;
  dst.tier_admissions <- dst.tier_admissions + src.tier_admissions;
  dst.tier_rejects <- dst.tier_rejects + src.tier_rejects;
  dst.tier_promotions <- dst.tier_promotions + src.tier_promotions;
  dst.tier_demotions <- dst.tier_demotions + src.tier_demotions;
  dst.tier_writeback_sectors <-
    dst.tier_writeback_sectors + src.tier_writeback_sectors;
  dst.tier_fast_swapins <- dst.tier_fast_swapins + src.tier_fast_swapins;
  dst.tier_slow_swapins <- dst.tier_slow_swapins + src.tier_slow_swapins;
  dst.tier_fast_swapin_us <- dst.tier_fast_swapin_us + src.tier_fast_swapin_us;
  dst.tier_slow_swapin_us <- dst.tier_slow_swapin_us + src.tier_slow_swapin_us;
  dst.scrub_scans <- dst.scrub_scans + src.scrub_scans;
  dst.scrub_verify_reads <- dst.scrub_verify_reads + src.scrub_verify_reads;
  dst.scrub_media_found <- dst.scrub_media_found + src.scrub_media_found;
  dst.scrub_relocations <- dst.scrub_relocations + src.scrub_relocations;
  dst.scrub_reloc_failed <- dst.scrub_reloc_failed + src.scrub_reloc_failed;
  dst.qos_throttled <- dst.qos_throttled + src.qos_throttled;
  dst.qos_throttle_wait_us <-
    dst.qos_throttle_wait_us + src.qos_throttle_wait_us;
  dst.tier_degraded_events <-
    dst.tier_degraded_events + src.tier_degraded_events;
  dst.tier_recovered_events <-
    dst.tier_recovered_events + src.tier_recovered_events;
  dst.tier_failover_routes <-
    dst.tier_failover_routes + src.tier_failover_routes;
  dst.fault_media_reads <- dst.fault_media_reads + src.fault_media_reads;
  dst.fault_pages_lost <- dst.fault_pages_lost + src.fault_pages_lost

let fields t =
  [
    ("disk_ops", t.disk_ops);
    ("disk_sectors_read", t.disk_sectors_read);
    ("disk_sectors_written", t.disk_sectors_written);
    ("disk_seq_reads", t.disk_seq_reads);
    ("disk_read_batches", t.disk_read_batches);
    ("disk_batched_reads", t.disk_batched_reads);
    ("disk_batch_sectors", t.disk_batch_sectors);
    ("disk_mq_batches", t.disk_mq_batches);
    ("disk_queue_depth_highwater", t.disk_queue_depth_highwater);
    ("swap_sectors_read", t.swap_sectors_read);
    ("swap_sectors_written", t.swap_sectors_written);
    ("host_swapins", t.host_swapins);
    ("host_swapouts", t.host_swapouts);
    ("silent_swap_writes", t.silent_swap_writes);
    ("stale_reads", t.stale_reads);
    ("false_reads", t.false_reads);
    ("hypervisor_code_faults", t.hypervisor_code_faults);
    ("host_context_faults", t.host_context_faults);
    ("guest_context_faults", t.guest_context_faults);
    ("pages_scanned", t.pages_scanned);
    ("guest_swapins", t.guest_swapins);
    ("guest_swapouts", t.guest_swapouts);
    ("guest_major_faults", t.guest_major_faults);
    ("oom_kills", t.oom_kills);
    ("mapper_tracked", t.mapper_tracked);
    ("mapper_discards", t.mapper_discards);
    ("mapper_refetches", t.mapper_refetches);
    ("mapper_invalidations", t.mapper_invalidations);
    ("preventer_remaps", t.preventer_remaps);
    ("preventer_merges", t.preventer_merges);
    ("preventer_timeouts", t.preventer_timeouts);
    ("preventer_rejects", t.preventer_rejects);
    ("balloon_inflated_pages", t.balloon_inflated_pages);
    ("balloon_deflated_pages", t.balloon_deflated_pages);
    ("faults_injected_media", t.faults_injected_media);
    ("faults_injected_transient", t.faults_injected_transient);
    ("faults_degraded_batches", t.faults_degraded_batches);
    ("fault_retries", t.fault_retries);
    ("fault_retry_exhausted", t.fault_retry_exhausted);
    ("fault_guest_kills", t.fault_guest_kills);
    ("destage_media_errors", t.destage_media_errors);
    ("destage_transient_retries", t.destage_transient_retries);
    ("swap_full_fallbacks", t.swap_full_fallbacks);
    ("emergency_steals", t.emergency_steals);
    ("async_waiter_merges", t.async_waiter_merges);
    ("async_faults_deferred", t.async_faults_deferred);
    ("async_inflight_highwater", t.async_inflight_highwater);
    ("engine_events_fired", t.engine_events_fired);
    ("engine_cancels_reclaimed", t.engine_cancels_reclaimed);
    ("engine_cascades", t.engine_cascades);
    ("tier_admissions", t.tier_admissions);
    ("tier_rejects", t.tier_rejects);
    ("tier_promotions", t.tier_promotions);
    ("tier_demotions", t.tier_demotions);
    ("tier_writeback_sectors", t.tier_writeback_sectors);
    ("tier_fast_swapins", t.tier_fast_swapins);
    ("tier_slow_swapins", t.tier_slow_swapins);
    ("tier_fast_swapin_us", t.tier_fast_swapin_us);
    ("tier_slow_swapin_us", t.tier_slow_swapin_us);
    ("scrub_scans", t.scrub_scans);
    ("scrub_verify_reads", t.scrub_verify_reads);
    ("scrub_media_found", t.scrub_media_found);
    ("scrub_relocations", t.scrub_relocations);
    ("scrub_reloc_failed", t.scrub_reloc_failed);
    ("qos_throttled", t.qos_throttled);
    ("qos_throttle_wait_us", t.qos_throttle_wait_us);
    ("tier_degraded_events", t.tier_degraded_events);
    ("tier_recovered_events", t.tier_recovered_events);
    ("tier_failover_routes", t.tier_failover_routes);
    ("fault_media_reads", t.fault_media_reads);
    ("fault_pages_lost", t.fault_pages_lost);
  ]

let pp fmt t =
  List.iter
    (fun (name, v) -> if v <> 0 then Format.fprintf fmt "%-26s %d@." name v)
    (fields t)
