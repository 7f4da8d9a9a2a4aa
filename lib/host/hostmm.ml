module Content = Storage.Content
module Mapper = Vswapper.Mapper
module Preventer = Vswapper.Preventer
module Itbl = Mem.Itbl

type guest_id = int

(* Cost model and I/O retry policy.  CPU-side costs are in microseconds,
   calibrated so that the simulated testbed behaves like the paper's
   Dell R420 (Section 5); disk costs are constants of {!Storage.Disk}. *)

(* Fault-time readahead window when the Mapper refetches named pages
   from the disk image. *)
let image_readahead_pages = 32

(* Pages reclaimed per direct-reclaim episode. *)
let reclaim_batch = 32

(* Hypervisor pages touched by each virtual I/O, and by each major
   fault. *)
let hv_touch_per_vio = 2
let hv_touch_per_fault = 1

(* Named pages of the hosted hypervisor (QEMU) serving each guest: the
   false-page-anonymity substrate. *)
let hv_pages_per_guest = 64

(* The disk region in front of every host's images and swap area: a
   hypervisor-page refault reads no disk, but the region keeps seek
   distances where the paper's testbed has them. *)
let hv_region_sectors =
  Storage.Geom.sectors_of_pages (Storage.Geom.pages_of_mb 64)

(* Cost of refaulting an evicted hypervisor page (usually still in the
   host's own file cache, so no disk read is charged). *)
let hv_refault_us = 80
let minor_fault_us = 1

(* CPU part of a major fault; disk latency comes on top. *)
let major_fault_us = 4

(* Write to a present named page (Mapper COW). *)
let cow_exit_us = 2

(* Per-page cost of the Mapper's mmap+ioctl install path (the paper
   attributes VSwapper's residual slowdown to it). *)
let mapper_map_page_us = 12

(* Preventer per-store emulation cost. *)
let emulated_write_us = 2

(* Exit + QEMU dispatch per virtual I/O request. *)
let vio_overhead_us = 12

(* Buffered eviction writes beyond 24 MiB pace the allocator, by
   [writeback_throttle_us] per allocation. *)
let writeback_throttle_sectors = 49_152
let writeback_throttle_us = 250

(* CPU cost per page scanned by reclaim. *)
let reclaim_page_us = 0.15

(* Resubmissions of a transiently failed read before giving up. *)
let io_retry_limit = 4

(* Backoff before the first retry; doubles per attempt. *)
let io_retry_base_us = 500

(* Per-guest cap on retries; exhausted => the guest is killed. *)
let io_error_budget = 256

type page_state = Not_backed | Ballooned | Present | In_swap | In_image

(* EPT entries are packed ints — tag in the low 3 bits, payload (frame
   number, swap slot or image block) above — so a million-page guest's
   page table is one flat [int array] instead of a million boxed
   variants.  The tag is the index of the entry's [page_state]
   constructor; [state] decodes it without allocating, and the
   constructors below are the only encoders. *)
module Ept = struct
  let not_backed = 0
  let ballooned = 1
  let present frame = (frame lsl 3) lor 2
  let in_swap slot = (slot lsl 3) lor 3
  let in_image block = (block lsl 3) lor 4

  let[@inline] state e =
    match e land 7 with
    | 0 -> Not_backed
    | 1 -> Ballooned
    | 2 -> Present
    | 3 -> In_swap
    | _ -> In_image

  (* The frame, slot or block of a present, swapped or discarded page. *)
  let arg e = e lsr 3
end

type guest = {
  gid : int;
  vdisk : Storage.Vdisk.t;
  ept : int array;  (* packed entries; see [Ept] *)
  cgroup : Cgroup.t;
  mapper : Mapper.t;
  preventer : Preventer.t;
  hv_frames : int array;  (* frame backing hv page idx, or -1 *)
  mutable hv_rr : int;
  mutable timer : Sim.Engine.event option;
  (* gpa -> write generation of the currently buffered (Preventer)
     write; generations are drawn from [Content.fresh_gen] and thus
     nonzero, so 0 is the table's absent value. *)
  pending_gen : Itbl.t;
  mutable killed : bool;  (* torn down by the host; holds no resources *)
  mutable error_budget : int;  (* remaining I/O retries before giving up *)
  mutable inflight_faults : int;  (* target faults currently on the disk *)
  pending_faults : (unit -> unit) Queue.t;
      (* fault starters deferred by [max_inflight_faults]; drained FIFO as
         in-flight faults complete *)
}

type t = {
  engine : Sim.Engine.t;
  disk : Storage.Disk.t;
  tiers : Storage.Tiers.t;  (* swap traffic routes through this *)
  stats : Metrics.Stats.t;
  config : Hconfig.t;
  vs : Vswapper.Vsconfig.t;
  swap : Storage.Swap_area.t;
  frames : Frames.t;
  mutable guests : guest option array;  (* dense gids index directly *)
  mutable nguests : int;  (* gids 0 .. nguests - 1 are registered *)
  mutable holdable : int;  (* frames the registered guests can hold *)
  (* packed (guest, gpa) -> waiter-list index: continuations waiting for
     an in-flight fault live in [inflight_ws] at the index the slab
     assigned; the flat index table makes the per-fault existence checks
     allocation-free. *)
  inflight_idx : Itbl.t;
  mutable inflight_ws : (unit -> unit) list array;
  inflight_slab : Itbl.Slab.t;
  mutable inflight_targets : int;  (* machine-wide gauge, for the highwater *)
  mutable reclaim_toggle : bool;  (* fairness when named_preference is off *)
  mutable global_rr : int;  (* round-robin cursor for global reclaim *)
  mutable kill_handler : guest_id -> unit;  (* VMM notification on kill *)
  qos : Qos.t option;  (* per-guest swap-in admission; None = disabled *)
  images : Storage.Vdisk.t array;  (* laid out by [create], id = index *)
  mutable image_cursor : int;  (* next free sector past the swap area *)
  mutable swapin_probe : (gid:int -> us:int -> unit) option;
      (* observer of per-guest swap-in fault latency (QoS wait included) *)
}

let page_sectors = Storage.Geom.sectors_per_page

(* (guest, gpa) pairs are packed into one int, so a swap slot's owner
   is an immediate the swap area stores beside its content, and the
   in-flight lookups ([inflight_idx]) hash and compare an immediate
   instead of allocating a tuple per probe.  40 bits of gpa covers a
   four-petabyte guest; gids are bounded by the guest table. *)
let owner_gpa_bits = 40
let owner_gpa_mask = (1 lsl owner_gpa_bits) - 1
let owner_key ~gid ~gpa = (gid lsl owner_gpa_bits) lor gpa
let owner_gid key = key lsr owner_gpa_bits
let owner_gpa key = key land owner_gpa_mask

(* Reject an out-of-range config field up front, naming it, rather than
   fail somewhere downstream.  [named_preference] takes either value. *)
let validate (c : Hconfig.t) (vs : Vswapper.Vsconfig.t) =
  let check record ok field range =
    if not ok then
      invalid_arg
        (Printf.sprintf "Hostmm.create: %s.%s must be %s" record field range)
  in
  let require = check "Hconfig" in
  require (c.total_frames >= 1) "total_frames" ">= 1";
  require (c.low_watermark_frames >= 0) "low_watermark_frames" ">= 0";
  require
    (c.high_watermark_frames >= c.low_watermark_frames)
    "high_watermark_frames" ">= low_watermark_frames";
  require (0 <= c.page_cluster && c.page_cluster <= 16) "page_cluster"
    "in [0, 16]";
  require (c.max_inflight_faults >= 0) "max_inflight_faults" ">= 0";
  require (c.scrub_rate_pages_s >= 0) "scrub_rate_pages_s" ">= 0";
  require (c.scrub_repair_budget >= 0) "scrub_repair_budget" ">= 0";
  require (c.qos_rate >= 0) "qos_rate" ">= 0";
  require
    (c.qos_rate = 0 || c.qos_burst >= 1)
    "qos_burst" ">= 1 when qos_rate > 0";
  check "Vsconfig" (vs.preventer_window > Sim.Time.zero) "preventer_window"
    "> 0";
  check "Vsconfig" (vs.preventer_max_buffers >= 1) "preventer_max_buffers"
    ">= 1"

(* Disk layout: [hv region | [images] | swap area | [add_image]s]. *)
let create ?(faults = Faults.Plan.none) ?(disk = Storage.Disk.default_config)
    ?(tiers = Storage.Tiers.disk_only) ~config ~vsconfig ~swap_slots ~images
    () =
  let engine = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let disk = Storage.Disk.create ~engine ~stats ~faults disk in
  let cursor = ref hv_region_sectors in
  let images =
    Array.of_list
      (List.mapi
         (fun id nblocks ->
           let vd = Storage.Vdisk.create ~id ~base_sector:!cursor ~nblocks in
           cursor := Storage.Vdisk.end_sector vd;
           vd)
         images)
  in
  let swap =
    Storage.Swap_area.create ~base_sector:!cursor ~nslots:swap_slots
  in
  let tiers = Storage.Tiers.create ~faults ~engine ~stats ~disk ~swap tiers in
  validate config vsconfig;
  {
    engine;
    disk;
    tiers;
    stats;
    config;
    vs = vsconfig;
    swap;
    frames = Frames.create ~nframes:config.Hconfig.total_frames;
    guests = Array.make 8 None;
    nguests = 0;
    holdable = 0;
    inflight_idx = Itbl.create ~capacity:64 ();
    inflight_ws = Array.make 64 [];
    inflight_slab = Itbl.Slab.create ();
    inflight_targets = 0;
    reclaim_toggle = false;
    global_rr = 0;
    kill_handler = ignore;
    qos =
      (if config.Hconfig.qos_rate > 0 then
         Some
           (Qos.create ~engine ~stats ~rate:config.Hconfig.qos_rate
              ~burst:config.Hconfig.qos_burst)
       else None);
    images;
    image_cursor = !cursor + Storage.Geom.sectors_of_pages swap_slots;
    swapin_probe = None;
  }

let image t i = t.images.(i)

let add_image t ~id ~nblocks =
  let vd = Storage.Vdisk.create ~id ~base_sector:t.image_cursor ~nblocks in
  t.image_cursor <- Storage.Vdisk.end_sector vd;
  vd

let engine t = t.engine
let stats t = t.stats
let config t = t.config

let tally t =
  let tel = Sim.Engine.telemetry t.engine in
  t.stats.engine_events_fired <- tel.events_fired;
  t.stats.engine_cancels_reclaimed <- tel.cancels_reclaimed;
  t.stats.engine_cascades <- tel.cascades;
  t.stats

let set_kill_handler t f = t.kill_handler <- f

let register_guest t ~vdisk ~gpa_pages ~resident_limit =
  (* The frame table grows here, in set-up code, to what the guests can
     hold: a capped guest its cap (or its memory, if smaller) plus its
     hypervisor pages, an uncapped one the whole host. *)
  t.holdable <-
    (match resident_limit with
    | Some limit -> t.holdable + min limit gpa_pages + hv_pages_per_guest
    | None -> Frames.nframes t.frames);
  Frames.reserve t.frames t.holdable;
  let gid = t.nguests in
  let g =
    {
      gid;
      vdisk;
      ept = Array.make gpa_pages Ept.not_backed;
      cgroup =
        Cgroup.create ~arena:(Frames.arena t.frames)
          ~limit_frames:resident_limit;
      mapper = Mapper.create ~stats:t.stats ();
      preventer =
        Preventer.create ~stats:t.stats ~window:t.vs.preventer_window
          ~max_buffers:t.vs.preventer_max_buffers;
      hv_frames = Array.make hv_pages_per_guest (-1);
      hv_rr = 0;
      timer = None;
      pending_gen = Itbl.create ~capacity:64 ();
      killed = false;
      error_budget = io_error_budget;
      inflight_faults = 0;
      pending_faults = Queue.create ();
    }
  in
  if t.nguests = Array.length t.guests then begin
    let bigger = Array.make (2 * t.nguests) None in
    Array.blit t.guests 0 bigger 0 t.nguests;
    t.guests <- bigger
  end;
  t.guests.(gid) <- Some g;
  t.nguests <- t.nguests + 1;
  gid

let guest t gid =
  match if gid >= 0 && gid < t.nguests then t.guests.(gid) else None with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Hostmm: unknown guest %d" gid)

let after t cost_us k = Sim.Engine.run_after t.engine (Sim.Time.us cost_us) k

(* [join t n k] returns a thunk to be invoked [n] times; [k] runs after
   the n-th call.  With [n = 0], [k] is scheduled immediately. *)
let join t n k =
  if n = 0 then begin
    after t 0 k;
    fun () -> ()
  end
  else begin
    let remaining = ref n in
    fun () ->
      decr remaining;
      if !remaining = 0 then k ()
  end

(* In-flight fault registry helpers.  [inflight_add] registers a key and
   returns its waiter-list index; [inflight_take] unregisters it and
   hands back the accumulated waiters. *)
let inflight_mem t key = Itbl.mem t.inflight_idx key

let inflight_add t key =
  let idx = Itbl.Slab.alloc t.inflight_slab in
  if idx >= Array.length t.inflight_ws then begin
    let bigger = Array.make (2 * Array.length t.inflight_ws) [] in
    Array.blit t.inflight_ws 0 bigger 0 (Array.length t.inflight_ws);
    t.inflight_ws <- bigger
  end;
  t.inflight_ws.(idx) <- [];
  Itbl.set t.inflight_idx key idx;
  idx

let inflight_take t key idx =
  Itbl.remove t.inflight_idx key;
  let ws = t.inflight_ws.(idx) in
  t.inflight_ws.(idx) <- [];
  Itbl.Slab.release t.inflight_slab idx;
  ws

(* ------------------------------------------------------------------ *)
(* Reclaim                                                             *)
(* ------------------------------------------------------------------ *)

(* Is writing [content] of [g]'s page to host swap a silent write?  Yes
   when an identical copy already sits in the guest's disk image. *)
let is_silent_write g content =
  match content with
  | Content.Block { disk; block; version } ->
      disk = Storage.Vdisk.id g.vdisk
      && block >= 0
      && block < Storage.Vdisk.nblocks g.vdisk
      && version = Storage.Vdisk.version g.vdisk block
  | Content.Zero | Content.Anon _ -> false

(* Release the swap-cache slot backing a present frame, if any: called
   whenever the frame's content is about to change, so the stale copy in
   the swap area is never resurrected, and when a named frame is
   dropped. *)
let drop_swap_backing t frame =
  let slot = Frames.backing_slot t.frames frame in
  if slot >= 0 then begin
    Frames.set_backing_slot t.frames frame (-1);
    Storage.Swap_area.free t.swap slot
  end

(* Evict one frame: named guest pages are dropped (the Mapper remembers
   where to find them), hypervisor pages are dropped (refetchable),
   everything else goes to host swap — unconditionally written, because
   without EPT dirty bits the host must assume guest pages are dirty.
   Returns [false] — leaving the frame in place — when the page would
   need a swap slot and the swap area is full; callers must then skip
   this frame rather than abort. *)
let evict_frame t frame =
  match Frames.owner_kind t.frames frame with
  | Frames.Free -> assert false
  | Frames.Hv_page ->
      let gid = Frames.owner_guest t.frames frame in
      let idx = Frames.owner_payload t.frames frame in
      let g = guest t gid in
      g.hv_frames.(idx) <- -1;
      Cgroup.remove g.cgroup frame;
      Frames.release t.frames frame;
      true
  | Frames.Guest_page ->
      let gid = Frames.owner_guest t.frames frame in
      let gpa = Frames.owner_payload t.frames frame in
      let g = guest t gid in
      let evicted =
        if Frames.named t.frames frame then begin
          let block = Mapper.tracked_block g.mapper ~gpa in
          if block >= 0 then begin
            assert (
              Storage.Vdisk.version g.vdisk block
              = Mapper.tracked_version g.mapper ~gpa);
            (* Write-then-map names a present page without touching the
               swap-cache slot it may have been swapped in from; the
               slot dies with the frame, or nothing would refer to it. *)
            drop_swap_backing t frame;
            g.ept.(gpa) <- Ept.in_image block;
            t.stats.mapper_discards <- t.stats.mapper_discards + 1;
            true
          end
          else assert false
        end
        else begin
          let bslot = Frames.backing_slot t.frames frame in
          if bslot >= 0 then begin
            (* Swap cache hit: an identical copy already sits in the
               slot; drop the frame without any I/O. *)
            assert (
              Storage.Swap_area.owner t.swap bslot = owner_key ~gid ~gpa);
            assert (
              Content.equal
                (Frames.content t.frames frame)
                (Storage.Swap_area.content t.swap bslot));
            g.ept.(gpa) <- Ept.in_swap bslot;
            true
          end
          else begin
            let content = Frames.content t.frames frame in
            match
              Storage.Swap_area.alloc t.swap content
                ~owner:(owner_key ~gid ~gpa)
            with
            | None ->
                (* Swap area full: this page cannot be evicted.  The
                   caller degrades (skips anon, prefers named discard)
                   instead of the old fatal failure. *)
                t.stats.swap_full_fallbacks <-
                  t.stats.swap_full_fallbacks + 1;
                false
            | Some slot ->
                g.ept.(gpa) <- Ept.in_swap slot;
                t.stats.host_swapouts <- t.stats.host_swapouts + 1;
                t.stats.swap_sectors_written <-
                  t.stats.swap_sectors_written + page_sectors;
                if is_silent_write g content then
                  t.stats.silent_swap_writes <-
                    t.stats.silent_swap_writes + 1;
                (* Fire-and-forget: nobody awaits the swap-out ack, so
                   skip the completion event entirely.  The tier
                   composite picks where the page lands. *)
                Storage.Tiers.swap_out t.tiers ~slot;
                true
          end
        end
      in
      if evicted then begin
        Cgroup.remove g.cgroup frame;
        Frames.release t.frames frame
      end;
      evicted

(* Move pages from the active tail to the inactive head while the
   inactive list is low, clearing referenced bits (shrink_active_list). *)
let refill_inactive t g ~file ~scanned =
  let active = if file then Cgroup.File_active else Cgroup.Anon_active in
  let inactive = if file then Cgroup.File_inactive else Cgroup.Anon_inactive in
  let moved = ref 0 in
  while
    Cgroup.inactive_low g.cgroup ~file
    && Cgroup.length g.cgroup active > 0
    && !moved < reclaim_batch
  do
    match Cgroup.tail g.cgroup active with
    | None -> moved := reclaim_batch
    | Some frame ->
        incr scanned;
        incr moved;
        Frames.set_referenced t.frames frame false;
        Cgroup.move g.cgroup inactive frame
  done

(* Shrink one cgroup by up to [target] frames; returns (freed, scanned). *)
let shrink_cgroup t g ~target =
  let freed = ref 0 and scanned = ref 0 in
  let max_scan = (4 * Cgroup.resident g.cgroup) + 64 in
  (* With named preference, scan file pages seven times as often as
     anonymous ones (swappiness-like: under file streaming Linux
     reclaims almost exclusively from the page cache, but never starves
     either list absolutely); without it, alternate. *)
  let rotor = ref 0 in
  (* Once the swap area has refused a slot, no anonymous page can leave
     in this call: scan the file lists only, as Linux's get_scan_count
     does when no swap is free, instead of trying every anon page
     until the scan budget runs out. *)
  let swap_full = ref false in
  let victim_order () =
    incr rotor;
    let file_first =
      if t.config.named_preference then !rotor mod 8 <> 0
      else begin
        t.reclaim_toggle <- not t.reclaim_toggle;
        t.reclaim_toggle
      end
    in
    if !swap_full then [ Cgroup.File_inactive ]
    else if file_first then [ Cgroup.File_inactive; Cgroup.Anon_inactive ]
    else [ Cgroup.Anon_inactive; Cgroup.File_inactive ]
  in
  let continue_ = ref true in
  while !continue_ && !freed < target do
    refill_inactive t g ~file:true ~scanned;
    if not !swap_full then refill_inactive t g ~file:false ~scanned;
    let victim =
      let rec try_lists = function
        | [] -> None
        | id :: rest -> (
            match Cgroup.tail g.cgroup id with
            | Some frame -> Some (id, frame)
            | None -> try_lists rest)
      in
      try_lists (victim_order ())
    in
    match victim with
    | None -> continue_ := false
    | Some (list_id, frame) ->
        incr scanned;
        t.stats.pages_scanned <- t.stats.pages_scanned + 1;
        let forced = !scanned > max_scan in
        let active_of_list =
          match list_id with
          | Cgroup.File_inactive | Cgroup.File_active -> Cgroup.File_active
          | Cgroup.Anon_inactive | Cgroup.Anon_active -> Cgroup.Anon_active
        in
        if Frames.referenced t.frames frame && not forced then begin
          (* Second chance: promote to the active list of its type. *)
          Frames.set_referenced t.frames frame false;
          Cgroup.move g.cgroup active_of_list frame
        end
        else if evict_frame t frame then incr freed
        else begin
          (* Unevictable right now (swap area full): park the page on
             its active list so the scan moves past it; once even
             forced eviction fails there is nothing left to free. *)
          Cgroup.move g.cgroup active_of_list frame;
          swap_full := true;
          if forced then continue_ := false
        end
  done;
  (!freed, !scanned)

(* Make room for [need] frames for guest [g]: first enforce its cgroup
   limit, then the global watermarks (shrinking the largest cgroups).
   Returns the CPU cost in microseconds of the scanning performed.
   The batch a cgroup reclaim adds is at most half its limit: a full
   batch would empty a small cgroup, pages just faulted in for a virtual
   I/O still awaiting its other buffers included, and refault forever. *)
let ensure_frames t g ~need =
  let scanned_total = ref 0 in
  (match Cgroup.limit g.cgroup with
  | Some lim when Cgroup.resident g.cgroup + need > lim ->
      let target =
        Cgroup.resident g.cgroup + need - lim + min reclaim_batch (lim / 2)
      in
      let _, scanned = shrink_cgroup t g ~target in
      scanned_total := !scanned_total + scanned
  | Some _ | None -> ());
  if Frames.nfree t.frames < t.config.low_watermark_frames + need then begin
    let goal = t.config.high_watermark_frames + need in
    (* Global reclaim visits cgroups round-robin (like Linux walking
       memcgs), skipping the small ones, so pressure is shared instead of
       convoying on one victim. *)
    let n = t.nguests in
    let consecutive_failures = ref 0 in
    while Frames.nfree t.frames < goal && !consecutive_failures < max 1 n do
      if n = 0 then consecutive_failures := 1
      else begin
        let victim = guest t (t.global_rr mod n) in
        t.global_rr <- t.global_rr + 1;
        if Cgroup.resident victim.cgroup * n < t.config.total_frames / 4 then
          incr consecutive_failures
        else begin
          let freed, scanned =
            shrink_cgroup t victim ~target:reclaim_batch
          in
          scanned_total := !scanned_total + scanned;
          if freed = 0 then incr consecutive_failures
          else consecutive_failures := 0
        end
      end
    done
  end;
  int_of_float
    (Float.round (float_of_int !scanned_total *. reclaim_page_us))

(* Drop whatever backs [gpa] — present frame, swap slot, image mapping,
   pending Preventer buffer — leaving the page not backed.  Used when
   the old content is dead (DMA overwrite, Preventer remap, balloon). *)
let discard_backing t g ~gpa =
  if t.vs.preventer then Preventer.abandon g.preventer ~gpa;
  Itbl.remove g.pending_gen gpa;
  (let e = g.ept.(gpa) in
   match Ept.state e with
   | Present ->
       let frame = Ept.arg e in
       Mapper.untrack g.mapper ~gpa;
       drop_swap_backing t frame;
       Cgroup.remove g.cgroup frame;
       Frames.release t.frames frame
   | In_swap ->
       let slot = Ept.arg e in
       if Storage.Swap_area.owner t.swap slot = owner_key ~gid:g.gid ~gpa then
         Storage.Swap_area.free t.swap slot
   | In_image -> Mapper.untrack g.mapper ~gpa
   | Not_backed -> ()
   | Ballooned -> invalid_arg "Hostmm.discard_backing: ballooned page");
  g.ept.(gpa) <- Ept.not_backed

(* ------------------------------------------------------------------ *)
(* Guest teardown and emergency reclaim                                 *)
(* ------------------------------------------------------------------ *)

(* Tear one guest down, releasing everything it holds: frames, swap
   slots, Preventer buffers, hypervisor pages.  The host's last-resort
   response to a failing disk or exhausted memory — the blast radius is
   one guest, never the machine. *)
let kill_guest t gid =
  let g = guest t gid in
  if not g.killed then begin
    g.killed <- true;
    t.stats.fault_guest_kills <- t.stats.fault_guest_kills + 1;
    (match g.timer with
    | Some ev ->
        Sim.Engine.cancel t.engine ev;
        g.timer <- None
    | None -> ());
    Array.iteri
      (fun gpa e ->
        match Ept.state e with
        | Not_backed -> ()
        | Ballooned -> g.ept.(gpa) <- Ept.not_backed
        | In_swap ->
            (* Swapped-out pages die with the guest (the scrubber's
               "pages lost" panel; everything still present or
               refetchable is not lost). *)
            t.stats.fault_pages_lost <- t.stats.fault_pages_lost + 1;
            discard_backing t g ~gpa
        | Present | In_image -> discard_backing t g ~gpa)
      g.ept;
    Array.iteri
      (fun idx frame ->
        if frame >= 0 then begin
          g.hv_frames.(idx) <- -1;
          Cgroup.remove g.cgroup frame;
          Frames.release t.frames frame
        end)
      g.hv_frames;
    Itbl.clear g.pending_gen;
    (* Parked fault starters must not strand their continuations: each
       re-enters the fault path, sees [killed], and resolves inertly.
       Transfer first so a starter cannot mutate the queue mid-drain. *)
    let parked = Queue.create () in
    Queue.transfer g.pending_faults parked;
    Queue.iter (fun start -> start ()) parked;
    t.kill_handler gid
  end

let guest_killed t gid = (guest t gid).killed

(* Last-ditch memory recovery when ordinary reclaim freed nothing (all
   lists empty or unevictable with the swap area full).  Pass 1 steals
   any frame droppable without swap I/O — hypervisor pages, Mapper-named
   pages, swap-cache-backed anon — from every guest.  Pass 2 OOM-kills
   whole guests, largest resident first (preferring a guest other than
   the requester), until [need] frames are free or nobody is left. *)
let emergency_reclaim t ~requester ~need =
  let frame = ref 0 in
  (* Frames at or above the high water are free: nothing to steal. *)
  while Frames.nfree t.frames < need && !frame < Frames.high_water t.frames do
    (match Frames.owner_kind t.frames !frame with
    | Frames.Free -> ()
    | Frames.Hv_page ->
        if evict_frame t !frame then
          t.stats.emergency_steals <- t.stats.emergency_steals + 1
    | Frames.Guest_page ->
        let droppable =
          Frames.named t.frames !frame
          || Frames.backing_slot t.frames !frame >= 0
        in
        if droppable && evict_frame t !frame then
          t.stats.emergency_steals <- t.stats.emergency_steals + 1);
    incr frame
  done;
  let rec kill_pass () =
    if Frames.nfree t.frames < need then begin
      let best = ref None in
      for gid = 0 to t.nguests - 1 do
        let g = guest t gid in
        if (not g.killed) && Cgroup.resident g.cgroup > 0 then begin
          let cand = (gid <> requester, Cgroup.resident g.cgroup, -gid) in
          match !best with
          | None -> best := Some (cand, gid)
          | Some (b, _) -> if cand > b then best := Some (cand, gid)
        end
      done;
      match !best with
      | None -> ()
      | Some (_, gid) ->
          kill_guest t gid;
          kill_pass ()
    end
  in
  kill_pass ()

(* A free frame for [g], falling back to emergency reclaim when ordinary
   reclaim left none.  That fallback may OOM-kill [g] itself, so callers
   check [g.killed] before installing the frame. *)
let take_frame t g =
  match Frames.alloc t.frames with
  | Some frame -> frame
  | None -> (
      emergency_reclaim t ~requester:g.gid ~need:1;
      match Frames.alloc t.frames with
      | Some frame -> frame
      | None ->
          (* Only reachable with zero usable frames in the whole
             machine (degenerate configuration, not a fault path). *)
          failwith "Hostmm: out of host memory (no frames configured)")

(* Allocate a frame for guest page [gpa]; returns (frame, reclaim cost).
   When the disk's write buffer is saturated by eviction traffic, the
   allocating context is paced at roughly the media write rate — the
   balance_dirty_pages effect. *)
let alloc_frame t g ~gpa ~content ~named ~active ~referenced =
  let throttle =
    if Storage.Disk.buffered_write_sectors t.disk > writeback_throttle_sectors
    then writeback_throttle_us
    else 0
  in
  let cost = throttle + ensure_frames t g ~need:1 in
  let frame = take_frame t g in
  if g.killed then begin
    (* The emergency path above chose the requester itself as the OOM
       victim; its teardown already ran.  Installing now would resurrect
       a page inside a dead guest and leak the frame forever, so hand
       the frame back instead.  -1 is safe to return: every caller's
       continuation is inert once [killed] is set. *)
    Frames.put_back t.frames frame;
    (-1, cost)
  end
  else begin
    Frames.set_guest_owner t.frames frame ~guest:g.gid ~gpa;
    Frames.set_content t.frames frame content;
    Frames.set_named t.frames frame named;
    Frames.set_referenced t.frames frame referenced;
    let id =
      match (named, active) with
      | true, true -> Cgroup.File_active
      | true, false -> Cgroup.File_inactive
      | false, true -> Cgroup.Anon_active
      | false, false -> Cgroup.Anon_inactive
    in
    Cgroup.insert g.cgroup id frame;
    g.ept.(gpa) <- Ept.present frame;
    (frame, cost)
  end

(* ------------------------------------------------------------------ *)
(* Hypervisor (QEMU) named pages — the false-anonymity substrate        *)
(* ------------------------------------------------------------------ *)

(* Touch [n] hypervisor pages round-robin; refaults of evicted pages are
   charged [hv_refault_us] each and counted as host-context faults. *)
let hv_touch t g n =
  let cost = ref 0 in
  for _ = 1 to n do
    let idx = g.hv_rr mod hv_pages_per_guest in
    g.hv_rr <- g.hv_rr + 1;
    let hv_frame = g.hv_frames.(idx) in
    if hv_frame >= 0 then Frames.set_referenced t.frames hv_frame true
    else begin
      t.stats.host_context_faults <- t.stats.host_context_faults + 1;
      t.stats.hypervisor_code_faults <- t.stats.hypervisor_code_faults + 1;
      cost := !cost + hv_refault_us + ensure_frames t g ~need:1;
      let frame = take_frame t g in
      if g.killed then
        (* Emergency reclaim OOM-killed this guest mid-touch: its
           hv_frames were already torn down, so don't repopulate. *)
        Frames.put_back t.frames frame
      else begin
        Frames.set_hv_owner t.frames frame ~guest:g.gid ~idx;
        Frames.set_content t.frames frame Content.Zero;
        Frames.set_named t.frames frame true;
        Frames.set_referenced t.frames frame true;
        Cgroup.insert g.cgroup Cgroup.File_inactive frame;
        g.hv_frames.(idx) <- frame
      end
    end
  done;
  !cost

(* ------------------------------------------------------------------ *)
(* Fault-in                                                            *)
(* ------------------------------------------------------------------ *)

(* Policy for a failed guest read.  Transient errors are resubmitted
   with exponential backoff while attempts and the guest's error budget
   last; media errors and exhausted retries kill the guest (the host
   cannot fabricate the lost bytes) and then run [give_up] so the
   in-flight fault unwinds instead of hanging its waiters.  [swap_read]
   scopes the media-fault counter to swap-area reads — the only region
   the scrubber patrols, so the catch-rate denominator stays honest. *)
let handle_read_error t g ~swap_read ~err ~attempt ~retry ~give_up =
  match (err : Storage.Disk.error) with
  | Transient
    when attempt < io_retry_limit && g.error_budget > 0 && not g.killed ->
      g.error_budget <- g.error_budget - 1;
      t.stats.fault_retries <- t.stats.fault_retries + 1;
      after t (io_retry_base_us lsl attempt) (fun () ->
          if g.killed then give_up () else retry ~attempt:(attempt + 1))
  | Transient ->
      t.stats.fault_retry_exhausted <- t.stats.fault_retry_exhausted + 1;
      kill_guest t g.gid;
      after t 0 give_up
  | Media ->
      (* A guest fault landed on a latent media error: the scrubber's
         miss (it relocates what it finds first). *)
      if swap_read then
        t.stats.fault_media_reads <- t.stats.fault_media_reads + 1;
      kill_guest t g.gid;
      after t 0 give_up

(* The two installers a read-around takes: put the page of [owner] (a
   packed (guest, gpa) key) read back from swap slot or image block [id]
   in place, if the world still looks like it did at submission time.
   [target] marks the faulting page, which enters the active list. *)

let install_from_swap t ~target slot owner =
  let g = guest t (owner_gid owner) and gpa = owner_gpa owner in
  if
    Storage.Swap_area.owner t.swap slot = owner
    && g.ept.(gpa) = Ept.in_swap slot
  then begin
    let content = Storage.Swap_area.content t.swap slot in
    (* Linux keeps swapped-in pages in the swap cache (slot retained, so
       a clean re-eviction is free) until the swap area is half full
       (vm_swap_full), after which slots are freed eagerly. *)
    let vm_swap_full =
      2 * Storage.Swap_area.in_use t.swap > Storage.Swap_area.nslots t.swap
    in
    let frame, _ =
      alloc_frame t g ~gpa ~content ~named:false ~active:target
        ~referenced:target
    in
    (* [alloc_frame]'s emergency path may have OOM-killed this very
       guest, releasing the slot along with everything else; touching it
       again would double-free. *)
    if not g.killed then begin
      (* Only the faulting (mapped) page frees its slot under swap
         pressure; readahead pages sit in the swap cache and always keep
         theirs, so unused prefetch never relocates anything. *)
      if target && vm_swap_full then Storage.Swap_area.free t.swap slot
      else Frames.set_backing_slot t.frames frame slot;
      t.stats.host_swapins <- t.stats.host_swapins + 1
    end
  end

let install_from_image t ~target block owner =
  let g = guest t (owner_gid owner) and gpa = owner_gpa owner in
  if
    g.ept.(gpa) = Ept.in_image block
    && Mapper.tracked_block g.mapper ~gpa = block
  then begin
    assert (
      Mapper.tracked_version g.mapper ~gpa
      = Storage.Vdisk.version g.vdisk block);
    let content = Storage.Vdisk.content g.vdisk block in
    ignore
      (alloc_frame t g ~gpa ~content ~named:true ~active:target
         ~referenced:target);
    t.stats.mapper_refetches <- t.stats.mapper_refetches + 1
  end

(* Minor fault: back the unbacked page [gpa] with a fresh anonymous
   frame holding [content], then run [k]. *)
let minor_fault t g ~gpa ~content k =
  let _, cost =
    alloc_frame t g ~gpa ~content ~named:false ~active:true ~referenced:true
  in
  after t (minor_fault_us + cost) k

(* [fault_in t g ~gpa ~host_context k]: make [gpa] present, charging all
   latencies, then run [k].  [k] itself re-checks presence (the page can
   be re-evicted between the disk completion and the continuation), so
   callers typically pass a retry loop.

   The major-fault path is a completion-callback structure: the disk read
   is enqueued and the machine loop continues; [k] and every piggybacked
   waiter resume from the completion event.  [max_inflight_faults] (when
   nonzero) bounds how many target faults a guest may have on the disk at
   once — starts beyond it are parked in [g.pending_faults] and released
   FIFO as completions drain, modelling a bounded async-page-fault queue
   rather than an infinitely wide one. *)
let rec fault_in t g ~gpa ~host_context k =
  if g.killed then after t 0 k
  else
    match Ept.state g.ept.(gpa) with
    | Present -> after t 0 k
    | Ballooned -> invalid_arg "Hostmm.fault_in: ballooned page"
    | Not_backed -> minor_fault t g ~gpa ~content:Content.Zero k
    | In_swap | In_image ->
        let key = owner_key ~gid:g.gid ~gpa in
        let widx = Itbl.find t.inflight_idx key ~default:(-1) in
        if widx >= 0 then begin
          (* Piggyback: when the in-flight read lands, try again (the
             retry will hit the fast path if the install succeeded). *)
          t.stats.async_waiter_merges <- t.stats.async_waiter_merges + 1;
          t.inflight_ws.(widx) <-
            (fun () -> fault_in t g ~gpa ~host_context k)
            :: t.inflight_ws.(widx)
        end
        else begin
          let bound = t.config.max_inflight_faults in
          if bound > 0 && g.inflight_faults >= bound then begin
            (* At the in-flight bound: park the start.  The starter
               re-enters [fault_in] from scratch, so any state change
               while parked (page installed by a prefetch, guest killed,
               another fault in flight on the same key) is handled by the
               normal dispatch above. *)
            t.stats.async_faults_deferred <- t.stats.async_faults_deferred + 1;
            Queue.add
              (fun () -> fault_in t g ~gpa ~host_context k)
              g.pending_faults
          end
          else start_fault t g ~gpa ~host_context k
        end

(* Issue the disk read for a target fault that holds an in-flight slot. *)
and start_fault t g ~gpa ~host_context k =
  let key = owner_key ~gid:g.gid ~gpa in
  let widx = inflight_add t key in
  g.inflight_faults <- g.inflight_faults + 1;
  t.inflight_targets <- t.inflight_targets + 1;
  if t.inflight_targets > t.stats.async_inflight_highwater then
    t.stats.async_inflight_highwater <- t.inflight_targets;
  (* Handling a major fault runs hypervisor code. *)
  let hv_cost = hv_touch t g hv_touch_per_fault in
  let t0 = Sim.Time.to_us (Sim.Engine.now t.engine) in
  let swap_fault = Ept.state g.ept.(gpa) = In_swap in
  let finish0 () =
    (match t.swapin_probe with
    | Some probe when swap_fault ->
        (* End-to-end swap-in fault latency, QoS park time included —
           what the guest's thread actually waited. *)
        probe ~gid:g.gid ~us:(Sim.Time.to_us (Sim.Engine.now t.engine) - t0)
    | Some _ | None -> ());
    let ws = inflight_take t key widx in
    g.inflight_faults <- g.inflight_faults - 1;
    t.inflight_targets <- t.inflight_targets - 1;
    (match Ept.state g.ept.(gpa) with
    | Present -> k ()
    | Not_backed | Ballooned | In_swap | In_image ->
        fault_in t g ~gpa ~host_context k);
    List.iter (fun w -> w ()) ws;
    (* The freed slot may admit parked starts (of this guest). *)
    drain_pending t g
  in
  let finish () =
    if hv_cost = 0 then finish0 () else after t hv_cost finish0
  in
  let issue () =
    (* Re-read the entry: a QoS-parked fault can find the world changed
       by the time it is released (slot discarded by a DMA overwrite,
       guest killed).  [finish] re-dispatches through [fault_in], which
       handles every state. *)
    if g.killed then finish ()
    else
      let e = g.ept.(gpa) in
      match Ept.state e with
      | In_swap ->
          swapin_cluster t g ~gpa ~slot:(Ept.arg e) ~host_context finish
      | In_image ->
          refetch_image t g ~gpa ~block:(Ept.arg e) ~host_context finish
      | Not_backed | Ballooned | Present -> finish ()
  in
  match t.qos with
  | Some qos when swap_fault ->
      (* Token-bucket admission applies to swap-in faults: the traffic
         that competes for the (possibly degraded) swap backends. *)
      Qos.admit qos ~gid:g.gid issue
  | _ -> issue ()

(* Release parked fault starts while in-flight capacity lasts.  A popped
   starter that resolves without occupying a slot (page became present,
   piggyback on another key, guest killed) does not stop the drain. *)
and drain_pending t g =
  let bound = t.config.max_inflight_faults in
  while
    (bound = 0 || g.inflight_faults < bound)
    && not (Queue.is_empty g.pending_faults)
  do
    (Queue.pop g.pending_faults) ()
  done

(* Swap-in with cluster readahead: one request covers the naturally
   aligned cluster around [slot]; every slot in it that still backs a
   swapped-out page is installed.  Decayed sequentiality shows up here:
   when neighbouring slots hold unrelated pages, the prefetch wins
   nothing and every page pays a full random read. *)
and swapin_cluster t g ~gpa ~slot ~host_context k =
  let cluster = 1 lsl t.config.page_cluster in
  let s0 = slot - (slot mod cluster) in
  let s_end = min (s0 + cluster) (Storage.Swap_area.nslots t.swap) in
  (* Prefetch at most the free-frame headroom beyond the target page. *)
  let headroom = ref (max 0 (Frames.nfree t.frames - 1)) in
  let ahead = ref [] in
  for s = s0 to s_end - 1 do
    let owner = Storage.Swap_area.owner t.swap s in
    if
      s <> slot && !headroom > 0 && owner >= 0
      && (not (inflight_mem t owner))
      (* One request has one latency model: readahead never spans
         backend tiers (constant-true in passthrough mode). *)
      && Storage.Tiers.same_tier t.tiers slot s
      && (guest t (owner_gid owner)).ept.(owner_gpa owner) = Ept.in_swap s
    then begin
      decr headroom;
      ahead := (s, owner, inflight_add t owner) :: !ahead
    end
  done;
  let ahead = List.rev !ahead in
  t.stats.swap_sectors_read <-
    t.stats.swap_sectors_read + ((1 + List.length ahead) * page_sectors);
  read_around t g ~gpa ~id:slot ~ahead ~swap_read:true ~page_us:0
    ~sector_of:(Storage.Swap_area.sector_of_slot t.swap)
    ~submit:(fun ~sector ~nsectors ~attempt on_reply ->
      Storage.Tiers.swap_in t.tiers ~slot ~sector ~nsectors ~queue:g.gid
        ~attempt on_reply)
    ~install:install_from_swap ~host_context k

(* Fault on a Mapper-discarded page: re-read from the disk image, with
   readahead over the consecutive run of tracked blocks — which stays
   sequential forever, the Mapper's answer to decayed sequentiality. *)
and refetch_image t g ~gpa ~block ~host_context k =
  let window =
    Mapper.readahead_window g.mapper ~disk:(Storage.Vdisk.id g.vdisk) ~block
      ~max:image_readahead_pages
  in
  let headroom = ref (max 0 (Frames.nfree t.frames - 1)) in
  let ahead = ref [] in
  List.iter
    (fun (b, gpas) ->
      List.iter
        (fun p ->
          let owner = owner_key ~gid:g.gid ~gpa:p in
          if
            p <> gpa && !headroom > 0
            && g.ept.(p) = Ept.in_image b
            && not (inflight_mem t owner)
          then begin
            decr headroom;
            ahead := (b, owner, inflight_add t owner) :: !ahead
          end)
        gpas)
    window;
  read_around t g ~gpa ~id:block ~ahead:(List.rev !ahead) ~swap_read:false
    ~page_us:mapper_map_page_us
    ~sector_of:(Storage.Vdisk.sector_of_block g.vdisk)
    ~submit:(fun ~sector ~nsectors ~attempt on_reply ->
      Storage.Disk.submit t.disk ~sector ~nsectors ~kind:Storage.Disk.Read
        ~queue:g.gid ~attempt on_reply)
    ~install:install_from_image ~host_context k

(* The read both major faults share.  One request covers the target [id]
   (a swap slot or image block, at [sector_of id]) and every readahead
   page in [ahead]: (id, owner key, waiter index) triples, already
   marked in flight.  On success it installs the target, then each
   readahead page, releasing that page's waiters, and charges
   [major_fault_us] plus [page_us] per page.  On an error the readahead
   is released uninstalled — it was best-effort — and a request wider
   than the target narrows to the target page before charging the guest
   a retry, since the failing sector may be a neighbour's. *)
and read_around t g ~gpa ~id ~ahead ~swap_read ~page_us ~sector_of ~submit
    ~install ~host_context k =
  if host_context then
    t.stats.host_context_faults <- t.stats.host_context_faults + 1
  else t.stats.guest_context_faults <- t.stats.guest_context_faults + 1;
  let owner = owner_key ~gid:g.gid ~gpa in
  let first = List.fold_left (fun acc (i, _, _) -> min acc i) id ahead in
  let last = List.fold_left (fun acc (i, _, _) -> max acc i) id ahead in
  let nsectors = (last - first + 1) * page_sectors in
  let release ~installed =
    List.iter
      (fun (i, o, widx) ->
        if installed then install t ~target:false i o;
        List.iter (fun w -> w ()) (inflight_take t o widx))
      ahead
  in
  let rec retry ~attempt =
    submit ~sector:(sector_of id) ~nsectors:page_sectors ~attempt
      (fun (reply : Storage.Disk.reply) ->
        match reply.result with
        | Ok () ->
            install t ~target:true id owner;
            after t (major_fault_us + page_us) k
        | Error err ->
            handle_read_error t g ~swap_read ~err ~attempt ~retry ~give_up:k)
  in
  submit ~sector:(sector_of first) ~nsectors ~attempt:0
    (fun (reply : Storage.Disk.reply) ->
      match reply.result with
      | Ok () ->
          install t ~target:true id owner;
          release ~installed:true;
          after t (major_fault_us + ((1 + List.length ahead) * page_us)) k
      | Error err ->
          release ~installed:false;
          if nsectors = page_sectors then
            (* The request was just the target page; the error is its. *)
            handle_read_error t g ~swap_read ~err ~attempt:0 ~retry
              ~give_up:k
          else retry ~attempt:0)

(* ------------------------------------------------------------------ *)
(* Guest-context accesses                                              *)
(* ------------------------------------------------------------------ *)

(* Private-mapping COW semantics: a store to a present named page breaks
   its Mapper association and retypes it anonymous.  Returns the cost of
   the exit this takes (none for an anonymous page). *)
let cow_break t g ~gpa frame =
  if Frames.named t.frames frame then begin
    Mapper.untrack g.mapper ~gpa;
    Frames.set_named t.frames frame false;
    Cgroup.move g.cgroup Cgroup.Anon_active frame;
    cow_exit_us
  end
  else 0

(* Store [content] to the present page [gpa] in [frame]; returns the
   COW-break cost. *)
let store_present t g ~gpa frame content =
  let cost = cow_break t g ~gpa frame in
  drop_swap_backing t frame;
  Frames.set_content t.frames frame content;
  Frames.set_referenced t.frames frame true;
  cost

(* Merge a (possibly expired/abandoned) Preventer buffer with the page's
   old content: fault the old bytes in, then overlay generation [gen]. *)
let rec apply_merge t g ~gpa ~gen ~host_context k =
  let e = g.ept.(gpa) in
  match Ept.state e with
  | Present ->
      let frame = Ept.arg e in
      let merged = Content.combine (Frames.content t.frames frame) gen in
      ignore (store_present t g ~gpa frame merged);
      after t 0 k
  | In_swap | In_image ->
      fault_in t g ~gpa ~host_context (fun () ->
          apply_merge t g ~gpa ~gen ~host_context k)
  | Not_backed ->
      ignore
        (alloc_frame t g ~gpa
           ~content:(Content.combine Content.Zero gen)
           ~named:false ~active:true ~referenced:true);
      after t 0 k
  | Ballooned -> after t 0 k

(* Fetch-or-mint the pending write generation for [gpa]; generations are
   nonzero, so 0 reads as absent. *)
let pending_gen_of g gpa =
  let gen = Itbl.find g.pending_gen gpa ~default:0 in
  if gen = 0 then Content.fresh_gen () else gen

(* Expiry timer for Preventer buffers. *)
let rec arm_timer t g =
  (match g.timer with
  | Some ev ->
      Sim.Engine.cancel t.engine ev;
      g.timer <- None
  | None -> ());
  match Preventer.next_deadline g.preventer with
  | None -> ()
  | Some deadline ->
      let deadline = Sim.Time.max deadline (Sim.Engine.now t.engine) in
      g.timer <-
        Some
          (Sim.Engine.schedule_at t.engine deadline (fun () ->
               g.timer <- None;
               let gone =
                 Preventer.expired g.preventer ~now:(Sim.Engine.now t.engine)
               in
               List.iter
                 (fun gpa ->
                   let gen = pending_gen_of g gpa in
                   Itbl.remove g.pending_gen gpa;
                   apply_merge t g ~gpa ~gen ~host_context:true (fun () -> ()))
                 gone;
               arm_timer t g))

(* The Preventer's remap: a whole-page overwrite of a swapped or
   discarded page drops the old backing unread and installs [content]
   in a fresh frame, charging the emulation instead of a fault. *)
let remap t g ~gpa ~content k =
  discard_backing t g ~gpa;
  let _, cost =
    alloc_frame t g ~gpa ~content ~named:false ~active:true ~referenced:true
  in
  after t (emulated_write_us + cost) k

let touch_read t ~guest:gid ~gpa k =
  let g = guest t gid in
  let rec attempt () =
    if g.killed then after t 0 (fun () -> k Content.Zero)
    else
      let e = g.ept.(gpa) in
      match Ept.state e with
      | Present ->
          let frame = Ept.arg e in
          Frames.set_referenced t.frames frame true;
          let c = Frames.content t.frames frame in
          after t 0 (fun () -> k c)
      | Ballooned -> invalid_arg "Hostmm.touch_read: ballooned page"
      | Not_backed ->
          minor_fault t g ~gpa ~content:Content.Zero (fun () -> k Content.Zero)
      | In_swap | In_image ->
          if t.vs.preventer && Preventer.is_buffered g.preventer ~gpa then begin
            (* Guest reads a page under write emulation.  Whole-page reads
               are never fully covered by a partial buffer, so this is the
               suspend-and-merge path. *)
            match
              Preventer.on_read g.preventer ~gpa ~offset:0
                ~len:Storage.Geom.page_bytes
            with
            | Preventer.Served_from_buffer ->
                let gen = pending_gen_of g gpa in
                after t emulated_write_us (fun () -> k (Content.Anon gen))
            | Preventer.Suspend ->
                Preventer.abandon g.preventer ~gpa;
                t.stats.preventer_merges <- t.stats.preventer_merges + 1;
                let gen = pending_gen_of g gpa in
                Itbl.remove g.pending_gen gpa;
                apply_merge t g ~gpa ~gen ~host_context:false attempt
          end
          else fault_in t g ~gpa ~host_context:false attempt
  in
  attempt ()

let touch_write t ~guest:gid ~gpa ~offset ~len ~gen ~intent_full_page k =
  let g = guest t gid in
  let full = offset = 0 && len >= Storage.Geom.page_bytes in
  let false_read_counted = ref false in
  let rec attempt () =
    if g.killed then after t 0 k
    else
      let e = g.ept.(gpa) in
      match Ept.state e with
      | Present ->
          let frame = Ept.arg e in
          let c =
            if full then Content.Anon gen
            else Content.combine (Frames.content t.frames frame) gen
          in
          after t (store_present t g ~gpa frame c) k
      | Ballooned -> invalid_arg "Hostmm.touch_write: ballooned page"
      | Not_backed ->
          minor_fault t g ~gpa k
            ~content:
              (if full then Content.Anon gen
               else Content.combine Content.Zero gen)
      | In_swap | In_image ->
          if t.vs.preventer then
            match
              Preventer.on_write g.preventer ~now:(Sim.Engine.now t.engine)
                ~gpa ~offset ~len
            with
            | Preventer.Completed ->
                remap t g ~gpa ~content:(Content.Anon gen) k
            | Preventer.Buffered { first_write } ->
                Itbl.set g.pending_gen gpa gen;
                if first_write then arm_timer t g;
                after t emulated_write_us k
            | Preventer.Needs_merge ->
                Itbl.remove g.pending_gen gpa;
                apply_merge t g ~gpa ~gen ~host_context:false k
            | Preventer.Rejected -> baseline ()
          else baseline ()
  and baseline () =
    if intent_full_page && not !false_read_counted then begin
      false_read_counted := true;
      t.stats.false_reads <- t.stats.false_reads + 1
    end;
    fault_in t g ~gpa ~host_context:false attempt
  in
  attempt ()

let rep_write t ~guest:gid ~gpa ~content k =
  let g = guest t gid in
  let false_read_counted = ref false in
  let rec attempt () =
    if g.killed then after t 0 k
    else
      let e = g.ept.(gpa) in
      match Ept.state e with
      | Present -> after t (store_present t g ~gpa (Ept.arg e) content) k
      | Ballooned -> invalid_arg "Hostmm.rep_write: ballooned page"
      | Not_backed -> minor_fault t g ~gpa ~content k
      | In_swap | In_image ->
          if t.vs.preventer then begin
            (* REP-prefixed whole-page store: recognized outright; the old
               content is never read (paper Section 4.2, last paragraph). *)
            Preventer.on_rep_write g.preventer ~gpa;
            Itbl.remove g.pending_gen gpa;
            remap t g ~gpa ~content k
          end
          else begin
            if not !false_read_counted then begin
              false_read_counted := true;
              t.stats.false_reads <- t.stats.false_reads + 1
            end;
            fault_in t g ~gpa ~host_context:false attempt
          end
  in
  attempt ()

(* ------------------------------------------------------------------ *)
(* Virtual disk I/O (the QEMU emulation path)                          *)
(* ------------------------------------------------------------------ *)

(* Install a freshly read file page under the Mapper regime: the page
   becomes named, clean and tracked; any stale backing is dropped. *)
let install_file_page t g ~gpa ~block =
  let v = Storage.Vdisk.version g.vdisk block in
  let content = Storage.Vdisk.content g.vdisk block in
  let cost = ref 0 in
  (let e = g.ept.(gpa) in
   match Ept.state e with
   | Present ->
       let frame = Ept.arg e in
       drop_swap_backing t frame;
       Frames.set_content t.frames frame content;
       if not (Frames.named t.frames frame) then begin
         Frames.set_named t.frames frame true;
         Cgroup.move g.cgroup Cgroup.File_inactive frame
       end
   | Ballooned -> ()
   | Not_backed | In_swap | In_image ->
       discard_backing t g ~gpa;
       let _, c =
         alloc_frame t g ~gpa ~content ~named:true ~active:false
           ~referenced:false
       in
       cost := c);
  if Ept.state g.ept.(gpa) = Present then
    Mapper.track g.mapper ~gpa ~disk:(Storage.Vdisk.id g.vdisk) ~block
      ~version:v;
  !cost + mapper_map_page_us

(* Baseline DMA landing: overwrite the (pinned) destination page. *)
let force_dma_install t g ~gpa ~block =
  let content = Storage.Vdisk.content g.vdisk block in
  let e = g.ept.(gpa) in
  match Ept.state e with
  | Present ->
      let frame = Ept.arg e in
      drop_swap_backing t frame;
      Frames.set_content t.frames frame content;
      Frames.set_referenced t.frames frame true
  | Ballooned -> ()
  | Not_backed | In_swap | In_image ->
      discard_backing t g ~gpa;
      ignore
        (alloc_frame t g ~gpa ~content ~named:false ~active:false
           ~referenced:true)

(* Make a virtual I/O's guest buffers resident: touch the present ones,
   zero-fill the unbacked ones, and collect the swapped or discarded
   ones, which must be faulted in before the I/O may proceed.  Returns
   the zero-fill cost and the pages to fault, last first. *)
let pin_buffers t g ~op gpas =
  let cost = ref 0 and faults = ref [] in
  Array.iter
    (fun gpa ->
      let e = g.ept.(gpa) in
      match Ept.state e with
      | Present -> Frames.set_referenced t.frames (Ept.arg e) true
      | Not_backed ->
          let _, c =
            alloc_frame t g ~gpa ~content:Content.Zero ~named:false
              ~active:false ~referenced:true
          in
          cost := !cost + minor_fault_us + c
      | In_swap | In_image -> faults := gpa :: !faults
      | Ballooned -> invalid_arg ("Hostmm." ^ op ^ ": ballooned page"))
    gpas;
  (!cost, !faults)

(* Fault [gpas] in from hypervisor context, then run [k]. *)
let fault_all t g gpas k =
  let done_one = join t (List.length gpas) k in
  List.iter (fun gpa -> fault_in t g ~gpa ~host_context:true done_one) gpas

(* Read [nsectors] of [g]'s image at [sector] into its buffers,
   resubmitting on transient errors, then run [landed] — or just [k], if
   the guest died while the read was on the disk. *)
let read_image t g ~sector ~nsectors ~landed k =
  let rec submit ~attempt =
    Storage.Disk.submit t.disk ~sector ~nsectors ~kind:Storage.Disk.Read
      ~queue:g.gid ~attempt (fun (reply : Storage.Disk.reply) ->
        match reply.result with
        | Ok () when g.killed -> after t 0 k
        | Ok () -> landed ()
        | Error err ->
            handle_read_error t g ~swap_read:false ~err ~attempt ~retry:submit
              ~give_up:k)
  in
  submit ~attempt:0

let vio_read t ?(aligned = true) ~guest:gid ~block0 ~gpas k =
  let g = guest t gid in
  let n = Array.length gpas in
  if n = 0 || g.killed then after t 0 k
  else begin
    let base_cost = vio_overhead_us + hv_touch t g hv_touch_per_vio in
    let sector = Storage.Vdisk.sector_of_block g.vdisk block0 in
    let nsectors = n * page_sectors in
    if t.vs.mapper && aligned then begin
      (* mmap path: destinations are simply remapped; no fault-in. *)
      Array.iter (fun gpa -> discard_backing t g ~gpa) gpas;
      read_image t g ~sector ~nsectors k ~landed:(fun () ->
          let cost = ref base_cost in
          Array.iteri
            (fun i gpa ->
              cost := !cost + install_file_page t g ~gpa ~block:(block0 + i))
            gpas;
          after t !cost k)
    end
    else begin
      (* Baseline: the destination buffers must be resident before the
         device can DMA into them — the stale-read pathology.  Under the
         Mapper, a misaligned request faults its discarded pages back in
         just to overwrite them: still stale reads. *)
      let cost, faults = pin_buffers t g ~op:"vio_read" gpas in
      t.stats.stale_reads <- t.stats.stale_reads + List.length faults;
      fault_all t g faults (fun () ->
          read_image t g ~sector ~nsectors k ~landed:(fun () ->
              Array.iteri
                (fun i gpa -> force_dma_install t g ~gpa ~block:(block0 + i))
                gpas;
              after t (base_cost + cost) k))
    end
  end

(* Logical content of a vio-write source page.  Normally present (phase
   1 faulted it in); if it was re-evicted before the write executed we
   read the backing store directly — in reality the page would have been
   pinned for the duration of the I/O. *)
let source_content t g gpa =
  let e = g.ept.(gpa) in
  match Ept.state e with
  | Present -> Frames.content t.frames (Ept.arg e)
  | In_swap -> Storage.Swap_area.content t.swap (Ept.arg e)
  | In_image -> Storage.Vdisk.content g.vdisk (Ept.arg e)
  | Not_backed | Ballooned -> Content.Zero

(* Preserve-and-untrack one page whose backing block is about to be
   overwritten: the Mapper's data-consistency protocol (Section 4.1).
   A discarded page must be faulted back in before the block changes. *)
let rec preserve_victim t g ~gpa k =
  let e = g.ept.(gpa) in
  match Ept.state e with
  | Present ->
      ignore (cow_break t g ~gpa (Ept.arg e));
      after t 0 k
  | In_image ->
      fault_in t g ~gpa ~host_context:true (fun () ->
          preserve_victim t g ~gpa k)
  | In_swap ->
      (* Tracked pages are never in swap; the mapping must be gone. *)
      after t 0 k
  | Not_backed | Ballooned ->
      Mapper.untrack g.mapper ~gpa;
      after t 0 k

let vio_write t ?(aligned = true) ~guest:gid ~block0 ~gpas k =
  let g = guest t gid in
  let n = Array.length gpas in
  if n = 0 || g.killed then after t 0 k
  else begin
    let base_cost = vio_overhead_us + hv_touch t g hv_touch_per_vio in
    let disk_id = Storage.Vdisk.id g.vdisk in
    let sector = Storage.Vdisk.sector_of_block g.vdisk block0 in
    let track_path = t.vs.mapper && aligned in
    (* Phase 3+4: bump versions, re-map sources, submit the write. *)
    let phase3 () =
      if g.killed then after t 0 k
      else begin
        Array.iteri
          (fun i gpa ->
            let block = block0 + i in
            let content = source_content t g gpa in
            let version = Storage.Vdisk.write g.vdisk block content in
            if track_path then begin
              (* Write-then-map: the page now mirrors the block. *)
              let e = g.ept.(gpa) in
              match Ept.state e with
              | Present ->
                  let frame = Ept.arg e in
                  Mapper.track g.mapper ~gpa ~disk:disk_id ~block ~version;
                  if not (Frames.named t.frames frame) then begin
                    Frames.set_named t.frames frame true;
                    Cgroup.move g.cgroup Cgroup.File_inactive frame
                  end;
                  Frames.set_referenced t.frames frame true
              | Not_backed | Ballooned | In_swap | In_image -> ()
            end)
          gpas;
        Storage.Disk.submit t.disk ~sector ~nsectors:(n * page_sectors)
          ~kind:Storage.Disk.Write (fun _ -> after t base_cost k)
      end
    in
    (* Phase 2: consistency protocol for every overwritten block. *)
    let phase2 () =
      if not t.vs.mapper then phase3 ()
      else begin
        let victims = ref [] in
        for i = 0 to n - 1 do
          let block = block0 + i in
          match Mapper.gpas_of_block g.mapper ~disk:disk_id ~block with
          | [] -> ()
          | gpas_of_block ->
              t.stats.mapper_invalidations <-
                t.stats.mapper_invalidations + 1;
              victims := gpas_of_block @ !victims
        done;
        let done_one = join t (List.length !victims) phase3 in
        List.iter (fun gpa -> preserve_victim t g ~gpa done_one) !victims
      end
    in
    (* Phase 1: make all source pages readable. *)
    let _, faults = pin_buffers t g ~op:"vio_write" gpas in
    fault_all t g faults phase2
  end

(* ------------------------------------------------------------------ *)
(* Ballooning                                                          *)
(* ------------------------------------------------------------------ *)

let balloon_steal t ~guest:gid ~gpa =
  let g = guest t gid in
  if g.ept.(gpa) = Ept.ballooned then
    invalid_arg "Hostmm.balloon_steal: already ballooned"
  else discard_backing t g ~gpa;
  g.ept.(gpa) <- Ept.ballooned;
  t.stats.balloon_inflated_pages <- t.stats.balloon_inflated_pages + 1

let balloon_return t ~guest:gid ~gpa =
  let g = guest t gid in
  if g.ept.(gpa) = Ept.ballooned then begin
    g.ept.(gpa) <- Ept.not_backed;
    t.stats.balloon_deflated_pages <- t.stats.balloon_deflated_pages + 1
  end
  else invalid_arg "Hostmm.balloon_return: page is not ballooned"

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let free_frames t = Frames.nfree t.frames
let resident t gid = Cgroup.resident (guest t gid).cgroup
let mapper_tracked t gid = Mapper.tracked (guest t gid).mapper
let gpa_pages t gid = Array.length (guest t gid).ept
let page_state t ~guest:gid ~gpa = Ept.state (guest t gid).ept.(gpa)

let frame_content t ~guest:gid ~gpa =
  let e = (guest t gid).ept.(gpa) in
  match Ept.state e with
  | Present -> Some (Frames.content t.frames (Ept.arg e))
  | Not_backed | Ballooned | In_swap | In_image -> None

let vdisk t gid = (guest t gid).vdisk

type page_view =
  | V_unbacked
  | V_present of {
      content : Storage.Content.t;
      named : bool;
      backing_block : int option;
    }
  | V_in_swap of { slot : int }
  | V_in_image of { block : int }

let page_view t ~guest:gid ~gpa =
  let g = guest t gid in
  let e = g.ept.(gpa) in
  match Ept.state e with
  | Present ->
      V_present
        {
          content = Frames.content t.frames (Ept.arg e);
          named = Frames.named t.frames (Ept.arg e);
          backing_block =
            Option.map
              (fun (b : Mapper.backing) -> b.block)
              (Mapper.lookup g.mapper ~gpa);
        }
  | In_swap -> V_in_swap { slot = Ept.arg e }
  | In_image -> V_in_image { block = Ept.arg e }
  | Not_backed | Ballooned -> V_unbacked

let swap_slot_sector t slot = Storage.Swap_area.sector_of_slot t.swap slot
let disk t = t.disk
let tiers t = t.tiers
let swap_area t = t.swap
let set_swapin_probe t probe = t.swapin_probe <- probe

(* ------------------------------------------------------------------ *)
(* Scrubber repair: slot relocation                                    *)
(* ------------------------------------------------------------------ *)

(* Move the live page of [slot] to a freshly allocated slot — the
   scrubber's repair action when verify finds latent media damage.  The
   two views of the slot (the swap area with its owner, the owner's EPT
   entry or swap-cache backing pointer) are updated together, with no
   intervening event, so no fault can observe a half-moved slot; the
   content travels by reference (the surviving copy) and the new slot
   is written out through the ordinary tier write-back path.  Returns
   false — changing nothing — when the slot is not live, its read is in
   flight, its guest is gone, or the area has no free slot. *)
let relocate_slot t slot =
  let owner = Storage.Swap_area.owner t.swap slot in
  if owner < 0 then false
  else if inflight_mem t owner then false
  else begin
    let gid = owner_gid owner and gpa = owner_gpa owner in
    let g = guest t gid in
    if g.killed then false
    else begin
      let content = Storage.Swap_area.content t.swap slot in
      match Storage.Swap_area.alloc t.swap content ~owner with
      | None -> false
      | Some nslot ->
          (* An allocated slot's owner maps back to it ([check_invariants]):
             its EPT entry is [In_swap slot], or its present frame is a
             swap-cache copy of [slot], and then only the backing pointer
             moves. *)
          let e = g.ept.(gpa) in
          if e = Ept.in_swap slot then g.ept.(gpa) <- Ept.in_swap nslot
          else begin
            assert (
              Ept.state e = Present
              && Frames.backing_slot t.frames (Ept.arg e) = slot);
            Frames.set_backing_slot t.frames (Ept.arg e) nslot
          end;
          Storage.Swap_area.free t.swap slot;
          Storage.Tiers.swap_out t.tiers ~slot:nslot;
          true
    end
  end

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  for gid = 0 to t.nguests - 1 do
    match t.guests.(gid) with
    | None -> ()
    | Some g ->
        Array.iteri
          (fun gpa e ->
            match Ept.state e with
            | Not_backed | Ballooned -> ()
            | Present ->
                let frame = Ept.arg e in
                if
                  not
                    (Frames.owner_kind t.frames frame = Frames.Guest_page
                    && Frames.owner_guest t.frames frame = gid
                    && Frames.owner_payload t.frames frame = gpa)
                then
                  fail "guest %d gpa %d: frame %d owner mismatch" gid gpa frame;
                let slot = Frames.backing_slot t.frames frame in
                if slot >= 0 then begin
                  if not (Storage.Swap_area.is_allocated t.swap slot) then
                    fail "guest %d gpa %d: backing slot %d free" gid gpa slot;
                  if Storage.Swap_area.owner t.swap slot <> owner_key ~gid ~gpa
                  then
                    fail "guest %d gpa %d: backing slot %d owner" gid gpa slot;
                  if
                    not
                      (Content.equal
                         (Frames.content t.frames frame)
                         (Storage.Swap_area.content t.swap slot))
                  then fail "guest %d gpa %d: backing content diverged" gid gpa
                end;
                if Frames.named t.frames frame then begin
                  match Mapper.lookup g.mapper ~gpa with
                  | None -> fail "guest %d gpa %d: named but untracked" gid gpa
                  | Some b ->
                      if Storage.Vdisk.version g.vdisk b.block <> b.version then
                        fail "guest %d gpa %d: tracked version stale" gid gpa;
                      if
                        not
                          (Content.equal
                             (Frames.content t.frames frame)
                             (Storage.Vdisk.content g.vdisk b.block))
                      then
                        fail "guest %d gpa %d: tracked content diverged" gid gpa
                end
            | In_swap ->
                let slot = Ept.arg e in
                if not (Storage.Swap_area.is_allocated t.swap slot) then
                  fail "guest %d gpa %d: swap slot %d not allocated" gid gpa
                    slot;
                if Storage.Swap_area.owner t.swap slot <> owner_key ~gid ~gpa
                then
                  fail "guest %d gpa %d: swap slot %d owner mismatch" gid gpa
                    slot
            | In_image -> (
                let block = Ept.arg e in
                match Mapper.lookup g.mapper ~gpa with
                | Some b when b.block = block ->
                    if Storage.Vdisk.version g.vdisk block <> b.version then
                      fail "guest %d gpa %d: in-image version stale" gid gpa
                | Some _ | None ->
                    fail "guest %d gpa %d: in-image but untracked" gid gpa))
          g.ept
  done;
  (* One owner per swap slot, and no slot leaked: every allocated slot
     is the live swap copy of its owner's page, or the swap-cache copy
     behind the owner's present frame. *)
  let owned = ref 0 in
  Storage.Swap_area.iter_allocated t.swap (fun ~slot ~owner ->
      incr owned;
      let gid = owner_gid owner and gpa = owner_gpa owner in
      match if gid < t.nguests then t.guests.(gid) else None with
      | None -> fail "slot %d owned by absent guest %d" slot gid
      | Some g ->
          if g.killed then fail "slot %d owned by killed guest %d" slot gid;
          let e =
            if gpa < Array.length g.ept then g.ept.(gpa) else Ept.not_backed
          in
          let maps_back =
            e = Ept.in_swap slot
            || Ept.state e = Present
               && Frames.backing_slot t.frames (Ept.arg e) = slot
          in
          if not maps_back then
            fail "slot %d owner (%d,%d) does not map back" slot gid gpa);
  if !owned <> Storage.Swap_area.in_use t.swap then
    fail "%d owned slots <> %d in use" !owned (Storage.Swap_area.in_use t.swap)
