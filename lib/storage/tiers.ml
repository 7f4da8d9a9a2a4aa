type kind = Disk_tier | Czram | Remote

type config = {
  fast : kind;
  fast_share_percent : int;
  czram_admit_ratio : float;
  remote_rtt_us : int;
  writeback_idle_us : int;
  tier_error_budget : int;
}

let disk_only =
  {
    fast = Disk_tier;
    fast_share_percent = 50;
    czram_admit_ratio = 0.75;
    remote_rtt_us = 20;
    writeback_idle_us = 2_000_000;
    tier_error_budget = 0;
  }

(* The compressed tier's model: the seed of its per-page
   compressibility hash and its CPU cost per page swapped out / in. *)
let czram_seed = 0
let czram_compress_us = 10
let czram_decompress_us = 5

(* The remote tier's link bandwidth, gigabits per second. *)
let remote_gbps = 10.0

(* Clock-hand slots swept per swap-out under capacity pressure, and per
   drain interval while the fast tier is degraded. *)
let writeback_batch = 64

(* Interval between probes of a degraded fast tier. *)
let tier_probe_us = 500_000

type t = {
  engine : Sim.Engine.t;
  stats : Metrics.Stats.t;
  disk : Disk.t;
  swap : Swap_area.t;
  cfg : config;
  passthrough : bool;
  faults : Faults.Plan.t;
  czram_key : int64;  (* keys the per-page compressibility hash *)
  pool_bytes : int;  (* the compressed pool's capacity *)
  mutable pool_used : int;
  (* The fast tier's one serializing resource, the compressor CPU or
     the network link: the microsecond at which it next falls idle. *)
  mutable busy_until_us : int;
  fast_cap : int;  (* slot share of the fast tier *)
  mutable fast_slots : int;
  last_access : int array;  (* per-slot µs timestamp; [||] in passthrough *)
  mutable hand : int;  (* demotion clock hand *)
  (* Fast-tier health (Healthy <-> Degraded), active only when
     [tier_error_budget > 0]. *)
  mutable fast_errors : int;  (* errors since the last recovery *)
  mutable fast_degraded : bool;
  mutable probe_attempt : int;  (* keys the remote probe's fault hash *)
}

let page_sectors = Geom.sectors_per_page
let now_us t = Sim.Time.to_us (Sim.Engine.now t.engine)

let validate cfg =
  let require ok field range =
    if not ok then
      invalid_arg
        (Printf.sprintf "Tiers.create: Tiers.config.%s must be %s" field range)
  in
  require
    (0 <= cfg.fast_share_percent && cfg.fast_share_percent <= 100)
    "fast_share_percent" "in [0, 100]";
  require (cfg.czram_admit_ratio >= 0.0) "czram_admit_ratio" ">= 0";
  require (cfg.remote_rtt_us >= 0) "remote_rtt_us" ">= 0";
  require (cfg.writeback_idle_us >= 0) "writeback_idle_us" ">= 0";
  require (cfg.tier_error_budget >= 0) "tier_error_budget" ">= 0"

(* ------------------------------------------------------------------ *)
(* The fast tier                                                       *)
(* ------------------------------------------------------------------ *)

(* Only a tiered composite reaches these, so [cfg.fast] is [Czram] or
   [Remote]; the passthrough talks to the disk directly. *)

(* Each page has an intrinsic compressed/uncompressed ratio drawn from
   the same pure-hash family as the fault plans: a deterministic
   function of the page index, independent of request order.  The
   range [0.15, 1.25) covers zero pages through already-compressed
   data; pages whose ratio exceeds [czram_admit_ratio] are rejected as
   incompressible, like zswap refusing pages that compress badly. *)
let czram_ratio t sector =
  0.15 +. (1.10 *. Faults.Plan.hash01 t.czram_key (sector / page_sectors) 0)

let czram_bytes t sector =
  int_of_float (czram_ratio t sector *. float_of_int Geom.page_bytes)

(* Occupy the fast tier's resource for [cost] microseconds starting now
   (or when it frees up); returns the absolute finish time. *)
let occupy t cost =
  let start = max (now_us t) t.busy_until_us in
  t.busy_until_us <- start + cost;
  t.busy_until_us

(* A transfer's time on the remote link: the payload at its bandwidth
   (bytes per µs), at least 1 µs. *)
let link_us nsectors =
  max 1
    (int_of_float
       (Float.round
          (float_of_int (nsectors * Geom.sector_bytes)
          /. (remote_gbps *. 125.0))))

let fast_admits t ~sector =
  match t.cfg.fast with
  | Czram ->
      czram_ratio t sector <= t.cfg.czram_admit_ratio
      && t.pool_used + czram_bytes t sector <= t.pool_bytes
  | Remote | Disk_tier -> true

(* Fire-and-forget, like a buffered disk write: nobody awaits the ack,
   but compression still takes the CPU and an outbound page the link,
   delaying concurrent reads. *)
let fast_write t ~sector =
  match t.cfg.fast with
  | Czram ->
      ignore (occupy t czram_compress_us);
      t.pool_used <- t.pool_used + czram_bytes t sector
  | Remote | Disk_tier -> ignore (occupy t (link_us page_sectors))

(* The compressed size is a pure hash of the page, so release
   recomputes it instead of keeping a side table. *)
let fast_release t ~sector =
  if t.cfg.fast = Czram then t.pool_used <- t.pool_used - czram_bytes t sector

(* A fast-tier read completes when the resource has served it (plus the
   round trip, for the remote tier).  Pool corruption is a Media error
   keyed on the page alone, so it persists across attempts, and the
   decompressor is charged either way: the failure is discovered at the
   end of the decompress.  A link timeout is Transient, keyed on
   (sector, attempt) so a retry re-hashes, and the full RTT and
   transfer are paid before it is noticed, like a real timeout. *)
let fast_read t ~sector ~nsectors ~attempt k =
  let now = now_us t in
  let finish, error =
    match t.cfg.fast with
    | Czram ->
        let npages = (nsectors + page_sectors - 1) / page_sectors in
        ( occupy t (czram_decompress_us * npages),
          Faults.Plan.czram_error t.faults ~page:(sector / page_sectors) )
    | Remote | Disk_tier ->
        ( occupy t (link_us nsectors) + t.cfg.remote_rtt_us,
          Faults.Plan.remote_error t.faults ~sector ~attempt )
  in
  let dt = Sim.Time.us (finish - now) in
  let result = match error with Some e -> Error e | None -> Ok () in
  Sim.Engine.run_after t.engine dt (fun () -> k { Disk.result; service = dt })

let create ?(faults = Faults.Plan.none) ~engine ~stats ~disk ~swap
    (cfg : config) =
  validate cfg;
  let passthrough = cfg.fast = Disk_tier in
  let nslots = Swap_area.nslots swap in
  let fast_cap = nslots * cfg.fast_share_percent / 100 in
  let t =
    {
      engine;
      stats;
      disk;
      swap;
      cfg;
      passthrough;
      faults;
      czram_key = Sim.Rng.next_int64 (Sim.Rng.of_int (0x5a + czram_seed));
      (* Sized to the fast share at a typical compressed ratio;
         admission rejects both incompressible pages and overflow. *)
      pool_bytes = max Geom.page_bytes (fast_cap * Geom.page_bytes * 3 / 5);
      pool_used = 0;
      busy_until_us = 0;
      fast_cap;
      fast_slots = 0;
      last_access = (if passthrough then [||] else Array.make nslots 0);
      hand = 0;
      fast_errors = 0;
      fast_degraded = false;
      probe_attempt = 0;
    }
  in
  if not passthrough then
    Swap_area.set_on_free swap
      (Some
         (fun ~slot ~tier ->
           if tier = 0 then begin
             t.fast_slots <- t.fast_slots - 1;
             fast_release t ~sector:(Swap_area.sector_of_slot swap slot)
           end));
  t

(* Writeback of cold fast-tier slots, driven by capacity pressure (the
   zswap shrinker runs under allocation pressure, not on a timer — and
   a timer here would also stretch every run's final drain).  Only when
   the fast tier is at its slot cap does a swap-out advance a clock
   hand over [writeback_batch] slots and demote the fast-tier ones
   idle for [writeback_idle_us] or more; an under-capacity fast tier
   keeps its pages, however cold — demoting a RAM-resident page costs a
   disk write and buys nothing until the slots are needed. *)
let demote_slot t slot =
  let sector = Swap_area.sector_of_slot t.swap slot in
  fast_release t ~sector;
  Disk.write_buffered t.disk ~sector ~nsectors:page_sectors;
  Swap_area.set_tier t.swap slot 1;
  t.fast_slots <- t.fast_slots - 1;
  t.stats.Metrics.Stats.tier_demotions <-
    t.stats.Metrics.Stats.tier_demotions + 1;
  t.stats.Metrics.Stats.tier_writeback_sectors <-
    t.stats.Metrics.Stats.tier_writeback_sectors + page_sectors

let demote_cold t =
  let n = Swap_area.nslots t.swap in
  let now = now_us t in
  for _ = 1 to min n writeback_batch do
    let slot = t.hand in
    t.hand <- (t.hand + 1) mod n;
    if
      Swap_area.is_allocated t.swap slot
      && Swap_area.tier t.swap slot = 0
      && now - t.last_access.(slot) >= t.cfg.writeback_idle_us
    then demote_slot t slot
  done

(* ------------------------------------------------------------------ *)
(* Fast-tier health: Healthy <-> Degraded                              *)
(* ------------------------------------------------------------------ *)

(* Failover watches the fast tier only — it is the only tier with a
   "next tier" to route to.  Disk errors count in the disk's own fault
   stats and surface to the caller, who retries or kills as usual. *)
let failover_enabled t = (not t.passthrough) && t.cfg.tier_error_budget > 0

(* While degraded, resident fast-tier slots drain back to the disk
   through the ordinary writeback path, [writeback_batch] slots per
   interval, ignoring idle age — the tier is being evacuated, not
   shrunk.  The interval keeps the evacuation from monopolizing the
   disk's write bandwidth in one burst. *)
let drain_interval_us = 10_000

let drain_batch t =
  let n = Swap_area.nslots t.swap in
  let budget = ref writeback_batch in
  let scanned = ref 0 in
  while !budget > 0 && !scanned < n && t.fast_slots > 0 do
    let slot = t.hand in
    t.hand <- (t.hand + 1) mod n;
    incr scanned;
    if Swap_area.is_allocated t.swap slot && Swap_area.tier t.swap slot = 0
    then begin
      demote_slot t slot;
      decr budget
    end
  done

let rec arm_drain t =
  Sim.Engine.run_after t.engine (Sim.Time.us drain_interval_us) (fun () ->
      if t.fast_degraded && t.fast_slots > 0 then begin
        drain_batch t;
        arm_drain t
      end)

(* Probe the degraded tier back to health.  The remote link re-hashes
   its transient stream under a fresh attempt number — a flapping link
   comes back when the hash clears.  A corrupted czram pool is treated
   as reinitialized after one probe interval (its pages were already
   evacuated by the drain), so it recovers on the first probe. *)
let rec arm_probe t =
  Sim.Engine.run_after t.engine (Sim.Time.us tier_probe_us) (fun () ->
      if t.fast_degraded then begin
        t.probe_attempt <- t.probe_attempt + 1;
        let healthy =
          match t.cfg.fast with
          | Remote ->
              Faults.Plan.remote_error t.faults ~sector:0
                ~attempt:t.probe_attempt
              = None
          | Czram | Disk_tier -> true
        in
        if healthy then begin
          t.fast_degraded <- false;
          t.fast_errors <- 0;
          t.stats.Metrics.Stats.tier_recovered_events <-
            t.stats.Metrics.Stats.tier_recovered_events + 1
        end
        else arm_probe t
      end)

let note_fast_error t =
  if failover_enabled t && not t.fast_degraded then begin
    t.fast_errors <- t.fast_errors + 1;
    if t.fast_errors >= t.cfg.tier_error_budget then begin
      t.fast_degraded <- true;
      t.stats.Metrics.Stats.tier_degraded_events <-
        t.stats.Metrics.Stats.tier_degraded_events + 1;
      arm_probe t;
      if t.fast_slots > 0 then arm_drain t
    end
  end

(* The disk counts its own injected errors in [Disk.submit]; the
   composite counts the fast tier's here, and they feed the failover
   budget. *)
let account_read t ~tier (reply : Disk.reply) =
  match reply.result with
  | Error e when tier = 0 ->
      let s = t.stats in
      (match e with
      | Faults.Error.Media ->
          s.Metrics.Stats.faults_injected_media <-
            s.Metrics.Stats.faults_injected_media + 1
      | Faults.Error.Transient ->
          s.Metrics.Stats.faults_injected_transient <-
            s.Metrics.Stats.faults_injected_transient + 1);
      note_fast_error t
  | Ok () | Error _ -> ()

(* One tier's read: the fast tier's model, or the disk. *)
let read t ~tier ~sector ~nsectors ~queue ~attempt k =
  if tier = 0 then fast_read t ~sector ~nsectors ~attempt k
  else Disk.submit t.disk ~sector ~nsectors ~kind:Disk.Read ~queue ~attempt k

let swap_out t ~slot =
  let sector = Swap_area.sector_of_slot t.swap slot in
  if t.passthrough then Disk.write_buffered t.disk ~sector ~nsectors:page_sectors
  else if t.fast_degraded then begin
    (* Failover: the fast tier is evacuating; every new admission goes
       straight to the disk. *)
    Swap_area.set_tier t.swap slot 1;
    t.stats.Metrics.Stats.tier_rejects <-
      t.stats.Metrics.Stats.tier_rejects + 1;
    t.stats.Metrics.Stats.tier_failover_routes <-
      t.stats.Metrics.Stats.tier_failover_routes + 1;
    Disk.write_buffered t.disk ~sector ~nsectors:page_sectors
  end
  else begin
    if t.fast_slots >= t.fast_cap && t.fast_cap > 0 then demote_cold t;
    if t.fast_slots < t.fast_cap && fast_admits t ~sector then begin
      Swap_area.set_tier t.swap slot 0;
      t.fast_slots <- t.fast_slots + 1;
      t.last_access.(slot) <- now_us t;
      t.stats.Metrics.Stats.tier_admissions <-
        t.stats.Metrics.Stats.tier_admissions + 1;
      fast_write t ~sector
    end
    else begin
      Swap_area.set_tier t.swap slot 1;
      t.stats.Metrics.Stats.tier_rejects <-
        t.stats.Metrics.Stats.tier_rejects + 1;
      Disk.write_buffered t.disk ~sector ~nsectors:page_sectors
    end
  end

(* Copy a just-read disk-tier page into the fast tier (target pages
   only — readahead neighbours stay put until they prove hot). *)
let promote t ~slot =
  if
    Swap_area.is_allocated t.swap slot
    && Swap_area.tier t.swap slot = 1
    && t.fast_slots < t.fast_cap
    && not t.fast_degraded
  then begin
    let sector = Swap_area.sector_of_slot t.swap slot in
    if fast_admits t ~sector then begin
      fast_write t ~sector;
      Swap_area.set_tier t.swap slot 0;
      t.fast_slots <- t.fast_slots + 1;
      t.last_access.(slot) <- now_us t;
      t.stats.Metrics.Stats.tier_promotions <-
        t.stats.Metrics.Stats.tier_promotions + 1
    end
  end

let swap_in t ~slot ~sector ~nsectors ~queue ~attempt k =
  if t.passthrough then
    Disk.submit t.disk ~sector ~nsectors ~kind:Disk.Read ~queue ~attempt k
  else begin
    let tier = Swap_area.tier t.swap slot in
    t.last_access.(slot) <- now_us t;
    read t ~tier ~sector ~nsectors ~queue ~attempt (fun (reply : Disk.reply) ->
        let us = Sim.Time.to_us reply.service in
        let s = t.stats in
        if tier = 0 then begin
          s.Metrics.Stats.tier_fast_swapins <-
            s.Metrics.Stats.tier_fast_swapins + 1;
          s.Metrics.Stats.tier_fast_swapin_us <-
            s.Metrics.Stats.tier_fast_swapin_us + us
        end
        else begin
          s.Metrics.Stats.tier_slow_swapins <-
            s.Metrics.Stats.tier_slow_swapins + 1;
          s.Metrics.Stats.tier_slow_swapin_us <-
            s.Metrics.Stats.tier_slow_swapin_us + us;
          match reply.result with
          | Ok () -> promote t ~slot
          | Error _ -> ()
        end;
        account_read t ~tier reply;
        k reply)
  end

(* A scrubber verify read: served by the slot's tier like a swap-in,
   but it neither refreshes the slot's last-access time nor promotes —
   scrubbing every slot must not look like the whole area turning hot.
   Errors still count (and feed the fast tier's failover budget). *)
let verify_read t ~slot ~queue ~attempt k =
  let sector = Swap_area.sector_of_slot t.swap slot in
  if t.passthrough then
    Disk.submit t.disk ~sector ~nsectors:page_sectors ~kind:Disk.Read ~queue
      ~attempt k
  else begin
    let tier = Swap_area.tier t.swap slot in
    read t ~tier ~sector ~nsectors:page_sectors ~queue ~attempt (fun reply ->
        account_read t ~tier reply;
        k reply)
  end

let same_tier t a b =
  t.passthrough || Swap_area.tier t.swap a = Swap_area.tier t.swap b

let is_passthrough t = t.passthrough
let fast_degraded t = t.fast_degraded
let fast_slots t = t.fast_slots
let fast_capacity t = t.fast_cap
