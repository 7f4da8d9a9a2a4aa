(* Tests for the Mapper-aware migration transfer (the paper's Section 7
   future work). *)

let check = Alcotest.check
module M = Migration.Migrate

let tiny_machine ?(faults = Faults.Config.none) ~vs () =
  (* The workload runs on a clean disk; [faults] is installed only
     afterwards, so the drive "ages" between the run and the migration.
     Seeding faults at build time would let the workload's own swap-ins
     hit media errors, and hostmm kills guests on those. *)
  let workload =
    Workloads.Sysbench.workload ~iterations:1 ~file_mb:24 ()
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = 48;
      resident_limit_mb = Some 24;
      warm_all = true;
      data_mb = 48;
    }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      vs;
      host_mem_mb = 128;
      host_swap_mb = 96;
    }
  in
  let machine = Vmm.Machine.build cfg in
  ignore (Vmm.Machine.run machine);
  Storage.Disk.set_faults (Host.Hostmm.disk (Vmm.Machine.host machine))
    (Faults.Plan.create faults);
  machine

let migrate_outcome machine link strategy =
  let result = ref None in
  M.migrate ~host:(Vmm.Machine.host machine)
    ~guest:(Guest.Guestos.gid (Vmm.Machine.os machine 0))
    link strategy
    (fun r -> result := Some r);
  let engine = Vmm.Machine.engine machine in
  let steps = ref 0 in
  while !result = None && Sim.Engine.step engine && !steps < 1_000_000 do
    incr steps
  done;
  Option.get !result

let migrate machine link strategy =
  match migrate_outcome machine link strategy with
  | M.Completed r -> r
  | M.Aborted _ -> Alcotest.fail "unexpected abort on a clean disk"

let accounts_cover_all_pages () =
  let machine = tiny_machine ~vs:Vswapper.Vsconfig.vswapper () in
  let pages = Storage.Geom.pages_of_mb 48 in
  List.iter
    (fun strategy ->
      let machine = tiny_machine ~vs:Vswapper.Vsconfig.vswapper () in
      ignore machine;
      let r = migrate machine M.gbe strategy in
      check Alcotest.int "every page classified" pages
        (r.M.pages_copied + r.M.mappings_sent + r.M.pages_skipped))
    [ M.Full_copy; M.Mapper_aware ];
  ignore machine

let mapper_aware_sends_less () =
  let m1 = tiny_machine ~vs:Vswapper.Vsconfig.vswapper () in
  let full = migrate m1 M.gbe M.Full_copy in
  let m2 = tiny_machine ~vs:Vswapper.Vsconfig.vswapper () in
  let aware = migrate m2 M.gbe M.Mapper_aware in
  Alcotest.(check bool) "less traffic" true
    (aware.M.bytes_sent < full.M.bytes_sent);
  Alcotest.(check bool) "mappings used" true (aware.M.mappings_sent > 0);
  Alcotest.(check bool) "not slower" true
    (aware.M.duration <= full.M.duration)

let baseline_has_no_mappings () =
  let m = tiny_machine ~vs:Vswapper.Vsconfig.baseline () in
  let r = migrate m M.gbe M.Mapper_aware in
  (* Without the Mapper nothing is tracked, so even the aware strategy
     degenerates to copying (except zero pages). *)
  check Alcotest.int "no mappings" 0 r.M.mappings_sent

let faster_link_helps_when_wire_bound () =
  let m1 = tiny_machine ~vs:Vswapper.Vsconfig.baseline () in
  let slow = migrate m1 { M.bandwidth_mb_s = 10.0; rtt = Sim.Time.ms 1 } M.Full_copy in
  let m2 = tiny_machine ~vs:Vswapper.Vsconfig.baseline () in
  let fast = migrate m2 M.ten_gbe M.Full_copy in
  Alcotest.(check bool) "bandwidth matters" true
    (fast.M.duration < slow.M.duration)

let report_printable () =
  let m = tiny_machine ~vs:Vswapper.Vsconfig.vswapper () in
  let r = migrate m M.gbe M.Mapper_aware in
  let s = Format.asprintf "%a" M.pp_report r in
  Alcotest.(check bool) "mentions MB" true (Test_util.contains s "MB")

(* Transient faults at a moderate rate: every read-back eventually
   succeeds on a retried attempt (the fault hash keys on the attempt
   number), so the migration completes — but only because it retried. *)
let transient_reads_retry_to_completion () =
  (* The rate is per sector and a page read spans 8 sectors, so keep it
     low enough that a request's retries cannot plausibly exhaust. *)
  let faults = Faults.Config.make ~seed:7 ~transient_rate:0.02 () in
  let m = tiny_machine ~faults ~vs:Vswapper.Vsconfig.baseline () in
  match migrate_outcome m M.gbe M.Full_copy with
  | M.Aborted _ -> Alcotest.fail "transient faults must not abort"
  | M.Completed r ->
      Alcotest.(check bool) "reads happened" true (r.M.source_disk_reads > 0);
      Alcotest.(check bool) "retries happened" true (r.M.retries > 0)

(* Dirty-rate throttling: a source shedding transient errors makes the
   copy loop back off between read batches instead of slamming the
   struggling device — the migration still completes, it just paces
   itself.  A clean source must never be throttled. *)
let transient_faults_throttle_copy_rate () =
  let faults = Faults.Config.make ~seed:7 ~transient_rate:0.02 () in
  let m = tiny_machine ~faults ~vs:Vswapper.Vsconfig.baseline () in
  (match migrate_outcome m M.gbe M.Full_copy with
  | M.Aborted _ -> Alcotest.fail "transient faults must not abort"
  | M.Completed r ->
      Alcotest.(check bool) "dirty batches backed off" true
        (r.M.throttled_batches > 0));
  let clean = tiny_machine ~vs:Vswapper.Vsconfig.baseline () in
  let r = migrate clean M.gbe M.Full_copy in
  check Alcotest.int "clean source runs at full rate" 0 r.M.throttled_batches

(* Swapped pages are read back through the tier composite, not the raw
   disk: on a czram+disk machine the migration's swap reads land on the
   tier that holds each slot, and tier-level failures flow through the
   same retry/abort discipline as disk ones. *)
let tiny_tiered_machine ?(faults = Faults.Config.none) () =
  let workload = Workloads.Sysbench.workload ~iterations:1 ~file_mb:24 () in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = 48;
      resident_limit_mb = Some 24;
      warm_all = true;
      data_mb = 48;
    }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      vs = Vswapper.Vsconfig.vswapper;
      host_mem_mb = 128;
      host_swap_mb = 96;
      tiers =
        {
          Storage.Tiers.disk_only with
          Storage.Tiers.fast = Storage.Tiers.Czram;
          czram_admit_ratio = 1.25;
          fast_share_percent = 50;
        };
    }
  in
  let machine = Vmm.Machine.build cfg in
  ignore (Vmm.Machine.run machine);
  Storage.Disk.set_faults (Host.Hostmm.disk (Vmm.Machine.host machine))
    (Faults.Plan.create faults);
  machine

let tiered_swap_reads_route_through_tiers () =
  let m = tiny_tiered_machine () in
  let stats = Host.Hostmm.stats (Vmm.Machine.host m) in
  let fast0 = stats.Metrics.Stats.tier_fast_swapins in
  (match migrate_outcome m M.gbe M.Full_copy with
  | M.Aborted _ -> Alcotest.fail "clean tiers must not abort"
  | M.Completed r ->
      Alcotest.(check bool) "swapped pages were read" true
        (r.M.source_disk_reads > 0));
  Alcotest.(check bool) "fast-tier slots served migration reads" true
    (stats.Metrics.Stats.tier_fast_swapins > fast0)

let tiered_slow_reads_still_abort_on_media () =
  (* Disk faults installed after the run hit only the slow (disk) tier;
     the abort surfaces through the composite exactly as on a flat
     disk. *)
  let faults = Faults.Config.make ~seed:7 ~media_rate:0.5 () in
  let m = tiny_tiered_machine ~faults () in
  match migrate_outcome m M.gbe M.Full_copy with
  | M.Completed _ -> Alcotest.fail "media faults must abort the migration"
  | M.Aborted a ->
      Alcotest.(check bool) "typed as media" true
        (a.M.error = Storage.Disk.Media)

(* A media error is permanent for its sector no matter how often the
   read is retried, so the migration must abort and say why. *)
let media_error_aborts () =
  let faults = Faults.Config.make ~seed:7 ~media_rate:0.2 () in
  let m = tiny_machine ~faults ~vs:Vswapper.Vsconfig.baseline () in
  match migrate_outcome m M.gbe M.Full_copy with
  | M.Completed _ -> Alcotest.fail "media faults must abort the migration"
  | M.Aborted a ->
      Alcotest.(check bool) "typed as media" true (a.M.error = Storage.Disk.Media);
      Alcotest.(check bool) "sector identified" true (a.M.failed_sector >= 0)

let tests =
  [
    ( "migration:transfer",
      [
        Alcotest.test_case "covers all pages" `Quick accounts_cover_all_pages;
        Alcotest.test_case "mapper-aware sends less" `Quick mapper_aware_sends_less;
        Alcotest.test_case "baseline has no mappings" `Quick baseline_has_no_mappings;
        Alcotest.test_case "bandwidth matters" `Quick faster_link_helps_when_wire_bound;
        Alcotest.test_case "report printable" `Quick report_printable;
        Alcotest.test_case "transient retries complete" `Quick
          transient_reads_retry_to_completion;
        Alcotest.test_case "media error aborts" `Quick media_error_aborts;
        Alcotest.test_case "dirty source throttles copy rate" `Quick
          transient_faults_throttle_copy_rate;
        Alcotest.test_case "tiered reads route through tiers" `Quick
          tiered_swap_reads_route_through_tiers;
        Alcotest.test_case "tiered media abort" `Quick
          tiered_slow_reads_still_abort_on_media;
      ] );
  ]
