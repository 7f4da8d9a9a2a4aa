module Guestos = Guest.Guestos

(* A workload thread plus its currently armed VCPU timeslice event, so a
   kill can cancel pending compute bursts instead of letting them fire
   into a dead guest (stale handles are no-ops, so clearing on fire is
   cosmetic). *)
type thr = {
  run : Workload.thread;
  mutable timeslice : Sim.Engine.event;
}

type grun = {
  spec : Config.guest_spec;
  os : Guestos.t;
  gid : Host.Hostmm.guest_id;
  mutable idle_vcpus : int;
  ready : thr Queue.t;
  mutable threads : thr list;  (* every thread ever started, for kill *)
  mutable live_threads : int;
  mutable cleanup : unit -> unit;
  mutable killed : bool;
  mutable started_at : Sim.Time.t option;
  mutable finished_at : Sim.Time.t option;
  mutable ready_for_epoch : bool;
}

type t = {
  cfg : Config.t;
  engine : Sim.Engine.t;  (* the host's, bound once for the VCPU loop *)
  host : Host.Hostmm.t;
  gruns : grun array;
  manager : Balloon.Manager.t option;
  mutable epoch : Sim.Time.t option;
  mutable ran : bool;
}

type guest_result = { runtime : Sim.Time.t option; oomed : bool }

type result = {
  guests : guest_result array;
  stats : Metrics.Stats.t;
  wall : Sim.Time.t;
  hit_time_limit : bool;
}

(* Reject an out-of-range config field up front, naming it, instead of
   clamping it or failing downstream under a derived name. *)
let validate (cfg : Config.t) =
  let require ok field range =
    if not ok then
      invalid_arg
        (Printf.sprintf "Machine.build: Vmm.Config.%s must be %s" field range)
  in
  require (cfg.host_mem_mb >= 1) "host_mem_mb" ">= 1";
  require (cfg.host_swap_mb >= 1) "host_swap_mb" ">= 1";
  require (cfg.time_limit > Sim.Time.zero) "time_limit" "> 0";
  List.iter
    (fun (g : Config.guest_spec) ->
      require (g.mem_mb >= 1) "guest_spec.mem_mb" ">= 1";
      require (g.vcpus >= 1) "guest_spec.vcpus" ">= 1";
      require (g.data_mb >= 0) "guest_spec.data_mb" ">= 0";
      Option.iter
        (fun mb -> require (mb >= 1) "guest_spec.resident_limit_mb" ">= 1")
        g.resident_limit_mb;
      Option.iter
        (fun mb ->
          require
            (1 <= mb && mb <= g.mem_mb)
            "guest_spec.balloon_static_mb" "in [1, mem_mb]")
        g.balloon_static_mb)
    cfg.guests

let gconfig (g : Config.guest_spec) =
  {
    (Guest.Gconfig.default ~mem_mb:g.mem_mb) with
    misaligned_io_percent = g.misaligned_io_percent;
  }

let build (cfg : Config.t) =
  validate cfg;
  let host =
    Host.Hostmm.create ~faults:(Faults.Plan.create cfg.faults) ~disk:cfg.disk
      ~tiers:cfg.tiers
      ~config:(Host.Hconfig.with_memory_mb cfg.hbase cfg.host_mem_mb)
      ~vsconfig:cfg.vs
      ~swap_slots:(Storage.Geom.pages_of_mb cfg.host_swap_mb)
      ~images:
        (List.map
           (fun (g : Config.guest_spec) ->
             (gconfig g).swap_blocks + Storage.Geom.pages_of_mb g.data_mb)
           cfg.guests)
      ()
  in
  (* With [epoch_faults] the disk starts clean and the plan is installed
     when the workload epoch opens — boot-time image I/O never faults.
     Tier backends keep the plan from build in both modes: their error
     streams fire only on swap traffic, which is post-epoch anyway. *)
  if cfg.epoch_faults then
    Storage.Disk.set_faults (Host.Hostmm.disk host) Faults.Plan.none;
  let gruns =
    Array.of_list
      (List.mapi
         (fun i (spec : Config.guest_spec) ->
           let gcfg = gconfig spec in
           let gid =
             Host.Hostmm.register_guest host
               ~vdisk:(Host.Hostmm.image host i)
               ~gpa_pages:gcfg.Guest.Gconfig.mem_pages
               ~resident_limit:
                 (Option.map Storage.Geom.pages_of_mb spec.resident_limit_mb)
           in
           let os = Guestos.create ~host ~gid ~config:gcfg in
           {
             spec;
             os;
             gid;
             idle_vcpus = spec.vcpus;
             ready = Queue.create ();
             threads = [];
             live_threads = 0;
             cleanup = (fun () -> ());
             killed = false;
             started_at = None;
             finished_at = None;
             ready_for_epoch = false;
           })
         cfg.guests)
  in
  let manager =
    Option.map
      (fun policy ->
        Balloon.Manager.create ~host
          ~guests:(Array.to_list (Array.map (fun g -> g.os) gruns))
          policy)
      cfg.manager
  in
  {
    cfg;
    engine = Host.Hostmm.engine host;
    host;
    gruns;
    manager;
    epoch = None;
    ran = false;
  }

let engine (t : t) = t.engine
let host (t : t) = t.host
let os (t : t) i = t.gruns.(i).os

(* ------------------------------------------------------------------ *)
(* VCPU scheduling                                                     *)
(* ------------------------------------------------------------------ *)

let rec dispatch t g =
  if not g.killed then
    while g.idle_vcpus > 0 && not (Queue.is_empty g.ready) do
      g.idle_vcpus <- g.idle_vcpus - 1;
      let th = Queue.pop g.ready in
      run_thread t g th
    done

and run_thread t g th =
  if g.killed then ()
  else
    match th.run () with
    | None ->
        g.live_threads <- g.live_threads - 1;
        g.idle_vcpus <- g.idle_vcpus + 1;
        if g.live_threads = 0 && g.finished_at = None then
          g.finished_at <- Some (Sim.Engine.now t.engine);
        dispatch t g
    | Some (Workload.Mark f) ->
        f ();
        run_thread t g th
    | Some (Workload.Compute us) ->
        (* Compute holds the VCPU and continues the same thread; the
           timeslice event is cancellable so a kill can revoke it. *)
        th.timeslice <-
          (Sim.Engine.schedule_after t.engine (Sim.Time.us us) (fun () ->
               th.timeslice <- Sim.Engine.null;
               run_thread t g th))
    | Some op when t.cfg.async_faults ->
        (* Async page faults: the VCPU is released at issue, not at
           completion, so runnable sibling threads (or a later-started
           thread of the same guest) overlap the wait.  The operation's
           latency is charged only to the issuing thread, which re-enters
           the ready queue from the completion callback. *)
        let k () =
          if not g.killed then begin
            Queue.push th g.ready;
            dispatch t g
          end
        in
        exec_io t g op k;
        g.idle_vcpus <- g.idle_vcpus + 1;
        dispatch t g
    | Some op ->
        (* Sync: the VCPU is held for the whole operation and handed back
           at completion, together with the thread. *)
        let k () =
          g.idle_vcpus <- g.idle_vcpus + 1;
          if not g.killed then Queue.push th g.ready;
          dispatch t g
        in
        exec_io t g op k

and exec_io _t g op k =
  let os = g.os in
  match op with
  | Workload.Compute _ | Workload.Mark _ -> assert false
  | Workload.File_read (f, idx) -> Guestos.read_file os f ~idx k
  | Workload.File_write (f, idx) -> Guestos.write_file os f ~idx k
  | Workload.Fsync f -> Guestos.fsync_file os f k
  | Workload.Touch (r, idx, write) -> Guestos.touch os r ~idx ~write k
  | Workload.Overwrite (r, idx) -> Guestos.overwrite_page os r ~idx k
  | Workload.Memcpy (r, idx) -> Guestos.memcpy_page os r ~idx k

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let kill t g =
  if not g.killed then begin
    g.killed <- true;
    Queue.clear g.ready;
    (* Revoke pending VCPU timeslices; handles of already-fired events
       are stale and cancelling them is a no-op. *)
    List.iter
      (fun th ->
        Sim.Engine.cancel t.engine th.timeslice;
        th.timeslice <- Sim.Engine.null)
      g.threads;
    g.cleanup ()
  end

let start_workload t g () =
  if not g.killed then begin
    g.started_at <- Some (Sim.Engine.now t.engine);
    let rng = Sim.Rng.of_int (t.cfg.seed + (7919 * (g.gid + 1))) in
    let setup = g.spec.workload.Workload.setup g.os rng in
    g.cleanup <- setup.Workload.cleanup;
    Guestos.set_oom_handler g.os (fun () -> kill t g);
    let threads =
      List.map
        (fun run -> { run; timeslice = Sim.Engine.null })
        setup.Workload.threads
    in
    g.threads <- threads;
    g.live_threads <- List.length threads;
    if threads = [] then g.finished_at <- Some (Sim.Engine.now t.engine)
    else List.iter (fun th -> Queue.push th g.ready) threads;
    dispatch t g
  end

let all_ready t = Array.for_all (fun g -> g.ready_for_epoch) t.gruns

let open_epoch t =
  if t.epoch = None && all_ready t then begin
    let now = Sim.Engine.now t.engine in
    t.epoch <- Some now;
    if t.cfg.epoch_faults then
      Storage.Disk.set_faults (Host.Hostmm.disk t.host)
        (Faults.Plan.create t.cfg.faults);
    (* The background scrubber is armed here, not at build: its verify
       reads would otherwise keep the disk queue busy during the boot
       sequence's disk-settle wait (which polls for an idle queue) and
       the epoch would never open. *)
    Host.Scrub.start t.host;
    (match t.manager with Some m -> Balloon.Manager.start m | None -> ());
    Array.iter
      (fun g ->
        (Sim.Engine.run_at t.engine
             (Sim.Time.add now g.spec.start_after)
             (start_workload t g)))
      t.gruns
  end

(* Boot sequence: kernel -> services -> static balloon convergence ->
   full-memory warmup (uncooperative configs only; a ballooned guest
   never dirties memory beyond its allowance) -> disk settle -> ready. *)
let rec wait_settled t g () =
  if Storage.Disk.queue_depth (Host.Hostmm.disk t.host) > 0 then
    (Sim.Engine.run_after t.engine (Sim.Time.ms 50) (wait_settled t g))
  else begin
    g.ready_for_epoch <- true;
    open_epoch t
  end

let rec wait_balloon t g k () =
  let os = g.os in
  if
    Guestos.balloon_size os < Guestos.balloon_target os
    && not (Guestos.oomed os)
  then
    (Sim.Engine.run_after t.engine (Sim.Time.ms 50) (wait_balloon t g k))
  else k ()

let boot_guest t g () =
  Guestos.boot g.os (fun () ->
      Guestos.start_services g.os;
      (match g.spec.balloon_static_mb with
      | Some usable_mb ->
          let gcfg = Guestos.config g.os in
          let target =
            gcfg.Guest.Gconfig.mem_pages - Storage.Geom.pages_of_mb usable_mb
          in
          Guestos.set_balloon_target g.os ~pages:target
      | None -> ());
      wait_balloon t g
        (fun () ->
          if g.spec.warm_all then
            Guestos.warm_all_memory g.os (wait_settled t g)
          else wait_settled t g ())
        ())

let run t =
  if t.ran then invalid_arg "Machine.run: already ran";
  t.ran <- true;
  (* When the host OOM-kills a guest or abandons it after unrecoverable
     I/O errors, stop scheduling its vCPUs too. *)
  Host.Hostmm.set_kill_handler t.host (fun gid ->
      Array.iter (fun g -> if g.gid = gid then kill t g) t.gruns);
  Array.iter
    (fun g -> (Sim.Engine.run_at t.engine Sim.Time.zero (boot_guest t g)))
    t.gruns;
  let all_done () =
    Array.for_all (fun g -> g.finished_at <> None || g.killed) t.gruns
  in
  let hit_limit = ref false in
  let continue_ = ref true in
  while !continue_ && not (all_done ()) do
    if Sim.Engine.now t.engine >= t.cfg.time_limit then begin
      hit_limit := true;
      continue_ := false
    end
    else if not (Sim.Engine.step t.engine) then continue_ := false
  done;
  let guests =
    Array.map
      (fun g ->
        let runtime =
          match (g.started_at, g.finished_at) with
          | Some s, Some f -> Some (Sim.Time.sub f s)
          | _ -> None
        in
        { runtime; oomed = Guestos.oomed g.os })
      t.gruns
  in
  {
    guests;
    stats = Host.Hostmm.tally t.host;
    wall = Sim.Engine.now t.engine;
    hit_time_limit = !hit_limit;
  }
