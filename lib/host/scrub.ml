(* Background swap scrubber: an engine-driven clock-rate scan over the
   swap area that issues low-priority verify reads of allocated slots,
   so latent media errors are found — and their live pages relocated —
   before a guest faults on them.

   The scan runs in chunks: [chunk] consecutive slot positions are
   examined per tick, with the tick period chosen so the long-run pace
   is [rate] slots per simulated second.  Repairs are budgeted per full
   pass over the area ([repair_budget]), so a badly decayed region
   costs bounded repair writes per pass instead of a write storm that
   starves foreground I/O.  Everything advances in virtual time off the
   engine, so the scan schedule is deterministic at any [--jobs]
   width — and a machine run that completes simply abandons the pending
   tick ([Machine.run] exits on completion, not on queue drain). *)

type t = {
  host : Hostmm.t;
  stats : Metrics.Stats.t;
  chunk : int;  (* slot positions examined per tick *)
  tick_us : int;
  repair_budget : int;
  mutable cursor : int;
  mutable repairs_left : int;
  mutable budget : int;  (* slot positions this tick may still examine *)
  mutable inflight : int;  (* verify reads awaiting completion *)
}

(* "Low priority" is enforced as back-pressure, not queue position: at
   most this many verify reads may be outstanding.  When the window is
   full the remaining tick budget is parked, and each completion pumps
   the scan again — so a requested rate the backends cannot absorb
   degrades to whatever they can sustain at this depth, instead of
   growing the disk queue without bound behind the guests' own
   faults. *)
let max_inflight = 8

let rec verify t slot =
  t.stats.Metrics.Stats.scrub_verify_reads <-
    t.stats.Metrics.Stats.scrub_verify_reads + 1;
  t.inflight <- t.inflight + 1;
  Storage.Tiers.verify_read (Hostmm.tiers t.host) ~slot ~queue:0 ~attempt:0
    (fun (reply : Storage.Disk.reply) ->
      t.inflight <- t.inflight - 1;
      (match reply.result with
      | Ok () | Error Faults.Error.Transient ->
          (* A transient blip is not media damage; the next pass will
             look again. *)
          ()
      | Error Faults.Error.Media ->
          t.stats.Metrics.Stats.scrub_media_found <-
            t.stats.Metrics.Stats.scrub_media_found + 1;
          if t.repairs_left > 0 && Hostmm.relocate_slot t.host slot then begin
            t.repairs_left <- t.repairs_left - 1;
            t.stats.Metrics.Stats.scrub_relocations <-
              t.stats.Metrics.Stats.scrub_relocations + 1
          end
          else
            (* Budget exhausted, or the slot went stale between verify
               and repair (freed, re-faulted, guest killed). *)
            t.stats.Metrics.Stats.scrub_reloc_failed <-
              t.stats.Metrics.Stats.scrub_reloc_failed + 1);
      pump t)

and pump t =
  let swap = Hostmm.swap_area t.host in
  let n = Storage.Swap_area.nslots swap in
  while t.budget > 0 && t.inflight < max_inflight do
    t.budget <- t.budget - 1;
    let slot = t.cursor in
    t.cursor <- t.cursor + 1;
    if t.cursor >= n then begin
      (* Pass complete: the repair budget renews with the wrap. *)
      t.cursor <- 0;
      t.repairs_left <- t.repair_budget;
      t.stats.Metrics.Stats.scrub_scans <-
        t.stats.Metrics.Stats.scrub_scans + 1
    end;
    if Storage.Swap_area.is_allocated swap slot then verify t slot
  done

let tick t =
  (* A fresh chunk, not an accumulating debt: budget the window could
     not absorb last tick is dropped, so a saturated backend degrades
     the pace instead of building an unbounded backlog. *)
  t.budget <- t.chunk;
  pump t

let rec arm t =
  Sim.Engine.run_after (Hostmm.engine t.host) (Sim.Time.us t.tick_us) (fun () ->
      tick t;
      arm t)

let start host =
  let { Hconfig.scrub_rate_pages_s = rate; scrub_repair_budget; _ } =
    Hostmm.config host
  in
  if rate > 0 then begin
    (* Examine ~1% of the per-second rate per tick, so the scan is
       spread over ~100 ticks a second instead of one burst. *)
    let chunk = max 1 (rate / 100) in
    arm
      {
        host;
        stats = Hostmm.stats host;
        chunk;
        tick_us = max 1 (chunk * 1_000_000 / rate);
        repair_budget = scrub_repair_budget;
        cursor = 0;
        repairs_left = scrub_repair_budget;
        budget = 0;
        inflight = 0;
      }
  end
