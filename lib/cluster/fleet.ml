module H = Host.Hostmm

type config = {
  hosts : int;
  overcommit : float;
  epochs : int;
  seed : int;
  mean_arrivals : float;
}

let default_config =
  {
    hosts = 128;
    overcommit = 1.5;
    epochs = 12;
    seed = 42;
    mean_arrivals = 2.5 *. 128.0;
  }

let host_mem_mb = 96
let host_swap_mb = 256 (* host swap area per host *)
let epoch_s = 20
let base_load = 0.3 (* fraction of a VM's pages touched per epoch at load 1 *)

(* Host swap-ins per simulated second above which the controller
   evacuates a VM from the host. *)
let rebalance_swapin_rate = 50.0

let link = Migration.Migrate.gbe (* evacuation network link *)

(* ------------------------------------------------------------------ *)
(* Shard-local state                                                   *)
(* ------------------------------------------------------------------ *)

type vm = {
  tenant : int;
  mem_mb : int;
  pages : int;
  born : int;  (* epoch placed *)
  lifetime : int;
  mutable gid : H.guest_id;  (* on the current host *)
  mutable host : int;  (* current host index *)
  mutable dead : bool;  (* OOM-killed by its host *)
  mutable migrating : bool;
  mutable parked : bool;  (* driver chain idle, safe to re-arm *)
  mutable populated : bool;  (* first write pass complete *)
  mutable quota : int;  (* touches remaining this epoch *)
  mutable cursor : int;  (* next gpa to touch *)
  mutable gap_us : int;  (* pacing between touches *)
  mutable anon_next : int;  (* deterministic Anon content ids *)
}

type shard = {
  hid : int;
  host : H.t;
  gid_vm : (int, vm) Hashtbl.t;  (* controller-maintained gid map *)
  mutable vms : vm list;  (* live VMs, stable placement order *)
  mutable committed_mb : int;
  mutable run_to : Sim.Time.t;  (* epoch boundary for the step thunk *)
  mutable swapins_prev : int;  (* barrier snapshots for rate deltas *)
  mutable swapouts_prev : int;
}

(* A rebalancing evacuation in flight.  [outcome] is written by the
   migration completion event inside the source shard's epoch; the
   controller reads it at barriers only. *)
type mig = {
  mvm : vm;
  src : int;
  dst : int;
  mutable outcome : Migration.Migrate.outcome option;
  mutable resolved : bool;
}

type epoch_row = {
  epoch : int;
  load : float;
  live : int;
  placed : int;
  rejected : int;
  departed : int;
  oom_killed : int;
  migrations_started : int;
  migrations_done : int;
  migrations_aborted : int;
  swapins : int;
  swapouts : int;
  max_committed_mb : int;
}

type result = {
  rows : epoch_row list;
  guests_placed : int;
  guests_rejected : int;
  pages_placed : int;
  peak_live_pages : int;
  guest_seconds : int;
  migrations : int;
  migrations_aborted : int;
  migration_throttled_batches : int;
  oom_kills : int;
  totals : Metrics.Stats.t;
  fingerprint : int;
  committed_ok : bool;
  migration_accounting_ok : bool;
  live_heap_words : int;
}

(* A shard's host starts with no image: [admit] lays one out past the
   swap area per placed VM (never reused — tenants are short-lived but
   sectors are cheap). *)
let build_shard hid =
  let host =
    H.create
      ~config:(Host.Hconfig.with_memory_mb Host.Hconfig.default host_mem_mb)
      ~vsconfig:Vswapper.Vsconfig.baseline
      ~swap_slots:(Storage.Geom.pages_of_mb host_swap_mb)
      ~images:[] ()
  in
  let shard =
    {
      hid;
      host;
      gid_vm = Hashtbl.create 64;
      vms = [];
      committed_mb = 0;
      run_to = Sim.Time.zero;
      swapins_prev = 0;
      swapouts_prev = 0;
    }
  in
  (* The host OOM-kills guests on its own during an epoch; the handler
     only flags the VM (shard-local state) — the controller harvests the
     flag at the next barrier.  Controller-initiated kills (departures,
     migration source release) remove the gid from [gid_vm] first, so
     the handler ignores them. *)
  H.set_kill_handler host (fun gid ->
      match Hashtbl.find_opt shard.gid_vm gid with
      | Some vm when vm.gid = gid -> vm.dead <- true
      | _ -> ());
  shard

(* Register [vm] on [shard]: a fresh vdisk region, a fresh guest id. *)
let admit shard vm =
  let vdisk = H.add_image shard.host ~id:vm.tenant ~nblocks:vm.pages in
  let gid =
    H.register_guest shard.host ~vdisk ~gpa_pages:vm.pages
      ~resident_limit:None
  in
  vm.gid <- gid;
  vm.host <- shard.hid;
  vm.parked <- true;
  Hashtbl.replace shard.gid_vm gid vm;
  shard.vms <- shard.vms @ [ vm ];
  shard.committed_mb <- shard.committed_mb + vm.mem_mb

(* The per-VM driver chain: one self-rescheduling event that touches the
   guest's pages round-robin, paced by [gap_us], burning [quota].  The
   first pass over the address space writes (populating frames with
   deterministic Anon content — [Content.fresh_anon]'s global counter
   would leak domain interleaving into page contents); later passes
   read, so a page the host reclaimed costs a swap-in.  Every
   continuation is an engine event ([Hostmm] defers through the engine),
   so the chain never grows the OCaml stack.  The chain stops (parking
   or dying) when the quota is gone, the VM migrates away, or the host
   killed it; the controller re-arms parked chains at the barrier. *)
let arm shard vm ~at =
  let engine = H.engine shard.host in
  let rec chain () =
    if vm.dead || vm.host <> shard.hid then ()
    else if vm.migrating || vm.quota <= 0 then vm.parked <- true
    else begin
      vm.quota <- vm.quota - 1;
      let gpa = vm.cursor in
      vm.cursor <- vm.cursor + 1;
      if vm.cursor >= vm.pages then begin
        vm.cursor <- 0;
        vm.populated <- true
      end;
      let next () =
        Sim.Engine.run_after engine (Sim.Time.us vm.gap_us) chain
      in
      if not vm.populated then begin
        vm.anon_next <- vm.anon_next + 1;
        H.rep_write shard.host ~guest:vm.gid ~gpa
          ~content:(Storage.Content.Anon vm.anon_next) next
      end
      else H.touch_read shard.host ~guest:vm.gid ~gpa (fun _ -> next ())
    end
  in
  vm.parked <- false;
  Sim.Engine.run_at engine at chain

(* Deterministic fingerprint: a SplitMix fold over the reduced
   counters, so "same everything" is one comparable int. *)
let mix h v = Faults.Plan.mix_int (h lxor v)

let validate cfg =
  let require ok field range =
    if not ok then
      invalid_arg
        (Printf.sprintf "Fleet.run: Fleet.config.%s must be %s" field range)
  in
  require (cfg.hosts >= 1) "hosts" ">= 1";
  require
    (Float.is_finite cfg.overcommit && cfg.overcommit > 0.0)
    "overcommit" "finite and > 0";
  require (cfg.epochs >= 0) "epochs" ">= 0";
  require
    (Float.is_finite cfg.mean_arrivals && cfg.mean_arrivals >= 0.0)
    "mean_arrivals" "finite and >= 0"

let run ?pool (cfg : config) =
  validate cfg;
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  let bound_mb = int_of_float (float_of_int host_mem_mb *. cfg.overcommit) in
  let epoch_us = epoch_s * 1_000_000 in
  let shards = Array.init cfg.hosts build_shard in
  let traffic =
    Traffic.create ~seed:cfg.seed ~mean_arrivals:cfg.mean_arrivals ()
  in
  (* Preallocated step thunks: the epoch hot loop submits these
     unchanged every round — per-shard flat state, no cross-shard
     allocation while the pool is stepping. *)
  let thunks =
    Array.map
      (fun shard ->
        let engine = H.engine shard.host in
        fun () -> ignore (Sim.Engine.run_until engine shard.run_to))
      shards
  in
  let committed_ok = ref true in
  let check_committed shard =
    if shard.committed_mb > bound_mb then committed_ok := false
  in
  let migration_accounting_ok = ref true in
  let migs : mig list ref = ref [] in
  let rows = ref [] in
  let guests_placed = ref 0 in
  let guests_rejected = ref 0 in
  let pages_placed = ref 0 in
  let peak_live_pages = ref 0 in
  let guest_seconds = ref 0 in
  let migrations_done = ref 0 in
  let migrations_aborted = ref 0 in
  let throttled = ref 0 in
  let oom_total = ref 0 in
  let live_heap_words = ref 0 in
  let release_vm shard vm =
    Hashtbl.remove shard.gid_vm vm.gid;
    shard.vms <- List.filter (fun v -> v != vm) shard.vms;
    shard.committed_mb <- shard.committed_mb - vm.mem_mb
  in
  for e = 0 to cfg.epochs - 1 do
    let t_start = Sim.Time.us (e * epoch_us) in
    let t_end = Sim.Time.us ((e + 1) * epoch_us) in
    let load = Traffic.load traffic ~epoch:e in
    let oom_killed = ref 0 in
    let departed = ref 0 in
    (* 1. Harvest host-initiated OOM kills, then voluntary departures.
       Serial, host-index order. *)
    Array.iter
      (fun shard ->
        List.iter
          (fun vm ->
            if vm.dead then begin
              incr oom_killed;
              release_vm shard vm
            end)
          shard.vms;
        List.iter
          (fun vm ->
            if (not vm.migrating) && vm.born + vm.lifetime <= e then begin
              incr departed;
              release_vm shard vm;
              H.kill_guest shard.host vm.gid
            end)
          shard.vms)
      shards;
    oom_total := !oom_total + !oom_killed;
    (* 2. Resolve evacuations that finished during the last epoch, in
       start order. *)
    let migs_done = ref 0 in
    let migs_aborted = ref 0 in
    List.iter
      (fun m ->
        match m.outcome with
        | None -> ()
        | Some _ when m.resolved -> ()
        | Some outcome ->
            m.resolved <- true;
            let vm = m.mvm in
            let dst = shards.(m.dst) in
            (match outcome with
            | Migration.Migrate.Completed r ->
                throttled := !throttled + r.throttled_batches;
                if
                  r.pages_copied + r.mappings_sent + r.pages_skipped
                  <> vm.pages
                then migration_accounting_ok := false;
                if vm.dead then
                  (* The source OOM-killed the VM mid-copy: the dead
                     harvest already released it; drop the
                     reservation. *)
                  dst.committed_mb <- dst.committed_mb - vm.mem_mb
                else begin
                  incr migs_done;
                  (* Land on the destination: release the source side
                     (unmapping the gid first so the kill handler knows
                     this is not an OOM), then register afresh.  The
                     copied pages arrive as swapped-out state would on a
                     real target — cold; the driver chain repopulates,
                     recreating the memory pressure the VM carries. *)
                  let src = shards.(m.src) in
                  Hashtbl.remove src.gid_vm vm.gid;
                  src.vms <- List.filter (fun v -> v != vm) src.vms;
                  src.committed_mb <- src.committed_mb - vm.mem_mb;
                  H.kill_guest src.host vm.gid;
                  dst.committed_mb <- dst.committed_mb - vm.mem_mb;
                  admit dst vm;
                  check_committed dst;
                  vm.populated <- false;
                  vm.cursor <- 0
                end
            | Migration.Migrate.Aborted _ ->
                incr migs_aborted;
                dst.committed_mb <- dst.committed_mb - vm.mem_mb);
            vm.migrating <- false)
      (List.rev !migs);
    migrations_done := !migrations_done + !migs_done;
    migrations_aborted := !migrations_aborted + !migs_aborted;
    (* 3. Place arrivals: first-fit decreasing by requested memory under
       the overcommit bound. *)
    let placed = ref 0 in
    let rejected = ref 0 in
    let specs =
      List.stable_sort
        (fun (a : Traffic.vm_spec) b -> compare (-a.mem_mb) (-b.mem_mb))
        (Traffic.arrivals traffic ~epoch:e)
    in
    List.iter
      (fun (spec : Traffic.vm_spec) ->
        let rec fit i =
          if i >= cfg.hosts then None
          else if shards.(i).committed_mb + spec.mem_mb <= bound_mb then
            Some shards.(i)
          else fit (i + 1)
        in
        match fit 0 with
        | None -> incr rejected
        | Some shard ->
            let pages = Storage.Geom.pages_of_mb spec.mem_mb in
            let vm =
              {
                tenant = spec.tenant;
                mem_mb = spec.mem_mb;
                pages;
                born = e;
                lifetime = spec.lifetime_epochs;
                gid = -1;
                host = shard.hid;
                dead = false;
                migrating = false;
                parked = true;
                populated = false;
                quota = 0;
                cursor = 0;
                gap_us = 1000;
                anon_next = spec.tenant lsl 24;
              }
            in
            admit shard vm;
            check_committed shard;
            incr placed;
            pages_placed := !pages_placed + pages)
      specs;
    guests_placed := !guests_placed + !placed;
    guests_rejected := !guests_rejected + !rejected;
    (* 4. Pressure-driven rebalancing: a host whose swap-in rate crossed
       the threshold (or that OOM-killed someone last epoch) evacuates
       its largest migratable VM to the least-committed host that can
       hold it.  At most one outbound evacuation per host per epoch. *)
    let migs_started = ref 0 in
    let swapins_epoch = ref 0 in
    let swapouts_epoch = ref 0 in
    Array.iter
      (fun shard ->
        let stats = H.stats shard.host in
        let si = stats.Metrics.Stats.host_swapins in
        let so = stats.Metrics.Stats.host_swapouts in
        let d_si = si - shard.swapins_prev in
        swapins_epoch := !swapins_epoch + d_si;
        swapouts_epoch := !swapouts_epoch + (so - shard.swapouts_prev);
        shard.swapins_prev <- si;
        shard.swapouts_prev <- so;
        let rate = float_of_int d_si /. float_of_int epoch_s in
        if e > 0 && rate > rebalance_swapin_rate then begin
          (* Largest populated VM that is not migrating and will still
             be around to benefit (2+ epochs of life left). *)
          let candidate =
            List.fold_left
              (fun best vm ->
                if
                  vm.migrating || vm.dead || (not vm.populated)
                  || vm.born + vm.lifetime <= e + 2
                then best
                else
                  match best with
                  | Some b when b.mem_mb >= vm.mem_mb -> best
                  | _ -> Some vm)
              None shard.vms
          in
          match candidate with
          | None -> ()
          | Some vm ->
              let dest = ref None in
              Array.iter
                (fun d ->
                  if
                    d.hid <> shard.hid
                    && d.committed_mb + vm.mem_mb <= bound_mb
                  then
                    match !dest with
                    | Some (best : shard)
                      when best.committed_mb <= d.committed_mb ->
                        ()
                    | _ -> dest := Some d)
                shards;
              match !dest with
              | None -> ()
              | Some dst ->
                  vm.migrating <- true;
                  dst.committed_mb <- dst.committed_mb + vm.mem_mb;
                  check_committed dst;
                  let m =
                    { mvm = vm; src = shard.hid; dst = dst.hid;
                      outcome = None; resolved = false }
                  in
                  migs := m :: !migs;
                  incr migs_started;
                  (* The copy runs inside the source's epoch, its reads
                     contending with the guests still running there; the
                     dirty-rate throttle in [Migrate.migrate] paces it
                     if the source disk is struggling. *)
                  Sim.Engine.run_at (H.engine shard.host) t_start (fun () ->
                      Migration.Migrate.migrate ~host:shard.host
                        ~guest:vm.gid link Migration.Migrate.Full_copy
                        (fun o -> m.outcome <- Some o))
        end)
      shards;
    (* 5. Grant touch quotas and re-arm parked driver chains. *)
    let live = ref 0 in
    let live_pages = ref 0 in
    let max_committed = ref 0 in
    Array.iter
      (fun shard ->
        shard.run_to <- t_end;
        if shard.committed_mb > !max_committed then
          max_committed := shard.committed_mb;
        List.iter
          (fun vm ->
            incr live;
            live_pages := !live_pages + vm.pages;
            if not vm.migrating then begin
              let full =
                max 32
                  (int_of_float (float_of_int vm.pages *. base_load))
              in
              (* A populating VM (fresh arrival, or re-landing after an
                 evacuation) writes its whole working set in about one
                 epoch — that is what creates the memory pressure; once
                 populated it re-touches [base_load] of its pages per
                 epoch, scaled by the diurnal load. *)
              let grant =
                if not vm.populated then vm.pages
                else
                  max 32
                    (int_of_float
                       (float_of_int vm.pages *. base_load *. load))
              in
              vm.quota <- min (vm.quota + grant) (vm.pages + (2 * full));
              vm.gap_us <- max 20 (min 50_000 (epoch_us / grant));
              if vm.parked then arm shard vm ~at:t_start
            end)
          shard.vms)
      shards;
    if !live_pages > !peak_live_pages then peak_live_pages := !live_pages;
    guest_seconds := !guest_seconds + (!live * epoch_s);
    (* 6. Step every shard to the epoch boundary, in parallel. *)
    Parallel.Pool.iter_all pool thunks;
    rows :=
      {
        epoch = e;
        load;
        live = !live;
        placed = !placed;
        rejected = !rejected;
        departed = !departed;
        oom_killed = !oom_killed;
        migrations_started = !migs_started;
        migrations_done = !migs_done;
        migrations_aborted = !migs_aborted;
        swapins = !swapins_epoch;
        swapouts = !swapouts_epoch;
        max_committed_mb = !max_committed;
      }
      :: !rows;
    if e = cfg.epochs - 1 then begin
      (* Last barrier: measure the live heap while every shard, frame
         table and EPT is still reachable. *)
      Gc.full_major ();
      live_heap_words := (Gc.stat ()).Gc.live_words
    end
  done;
  (* Final reduction, host-index order: per-shard stats plus engine
     telemetry fold into one fleet-wide [Stats.t]. *)
  let totals = Metrics.Stats.create () in
  Array.iter
    (fun shard -> Metrics.Stats.add totals (H.tally shard.host))
    shards;
  let fingerprint =
    List.fold_left
      (fun h (_, v) -> mix h v)
      (mix (mix (mix 0x5EED !guests_placed) !pages_placed) !migrations_done)
      (Metrics.Stats.fields totals)
  in
  {
    rows = List.rev !rows;
    guests_placed = !guests_placed;
    guests_rejected = !guests_rejected;
    pages_placed = !pages_placed;
    peak_live_pages = !peak_live_pages;
    guest_seconds = !guest_seconds;
    migrations = !migrations_done;
    migrations_aborted = !migrations_aborted;
    migration_throttled_batches = !throttled;
    oom_kills = !oom_total;
    totals;
    fingerprint;
    committed_ok = !committed_ok;
    migration_accounting_ok = !migration_accounting_ok;
    live_heap_words = !live_heap_words;
  }

let report r =
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "  %-5s %-5s %5s %6s %4s %4s %4s %5s %5s %5s %9s %9s %7s\n" "epoch"
    "load" "live" "placed" "rej" "dep" "oom" "migS" "migD" "migA" "swapins"
    "swapouts" "maxMB";
  List.iter
    (fun row ->
      p "  %-5d %-5.2f %5d %6d %4d %4d %4d %5d %5d %5d %9d %9d %7d\n"
        row.epoch row.load row.live row.placed row.rejected row.departed
        row.oom_killed row.migrations_started row.migrations_done
        row.migrations_aborted row.swapins row.swapouts row.max_committed_mb)
    r.rows;
  p "  guests: %d placed, %d rejected; %d pages placed (peak %d live)\n"
    r.guests_placed r.guests_rejected r.pages_placed r.peak_live_pages;
  p
    "  rebalance: %d evacuations completed, %d aborted, %d throttled \
     batches; %d OOM kills\n"
    r.migrations r.migrations_aborted r.migration_throttled_batches
    r.oom_kills;
  p "  swap traffic: %d swap-ins, %d swap-outs, %d sectors read\n"
    r.totals.Metrics.Stats.host_swapins r.totals.Metrics.Stats.host_swapouts
    r.totals.Metrics.Stats.disk_sectors_read;
  p "  invariants: overcommit bound %s, migration accounting %s\n"
    (if r.committed_ok then "held" else "VIOLATED")
    (if r.migration_accounting_ok then "held" else "VIOLATED");
  p "  fingerprint: %016x\n" r.fingerprint;
  Buffer.contents buf
