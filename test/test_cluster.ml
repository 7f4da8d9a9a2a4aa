(* Tests for the fleet simulator: pool-width determinism, controller
   invariants (overcommit bound, migration page accounting), and the
   purity of the synthetic traffic generator. *)

let check = Alcotest.check
module F = Cluster.Fleet
module T = Cluster.Traffic

(* A fleet small enough that a run costs well under a second but still
   crosses every controller path at the default seed: placements,
   rejections, departures and pressure-driven evacuations. *)
let small_config ?(overcommit = 1.5) seed =
  { F.hosts = 4; epochs = 5; seed; overcommit; mean_arrivals = 2.5 *. 4.0 }

let run_with_jobs cfg jobs =
  let pool = Parallel.Pool.create ~jobs () in
  let r = F.run ~pool cfg in
  Parallel.Pool.shutdown pool;
  r

(* The tentpole property: the pool only changes which wall-clock instant
   each shard steps at.  Stats, fingerprint and the rendered report must
   be byte-identical serially and at four workers, whatever the traffic
   seed. *)
let fleet_deterministic_across_pool_widths =
  QCheck.Test.make ~name:"cluster: fleet serial == --jobs 4 (any seed)"
    ~count:3
    QCheck.(make Gen.(oneofl [ 42; 7; 1234 ]))
    (fun seed ->
      let cfg = small_config seed in
      let serial = run_with_jobs cfg 1 in
      let jobs4 = run_with_jobs cfg 4 in
      String.equal (F.report serial) (F.report jobs4)
      && serial.F.fingerprint = jobs4.F.fingerprint
      && serial.F.guests_placed = jobs4.F.guests_placed
      && serial.F.migrations = jobs4.F.migrations)

(* Controller invariants, checked by the simulator itself at every
   placement, reservation and migration landing: no host is ever
   committed past the overcommit bound, and every completed evacuation
   classifies exactly its guest's pages (copied + mappings + skipped),
   so pages are neither lost nor duplicated by a rebalance. *)
let controller_invariants =
  QCheck.Test.make ~name:"cluster: overcommit bound + page accounting"
    ~count:4
    QCheck.(
      make
        Gen.(pair (oneofl [ 3; 11; 42; 99 ]) (oneofl [ 1.0; 1.25; 1.5; 2.0 ])))
    (fun (seed, overcommit) ->
      let cfg = small_config ~overcommit seed in
      let r = run_with_jobs cfg 1 in
      let bound_mb =
        int_of_float (float_of_int F.host_mem_mb *. cfg.F.overcommit)
      in
      r.F.committed_ok && r.F.migration_accounting_ok
      && List.for_all (fun row -> row.F.max_committed_mb <= bound_mb) r.F.rows)

(* An out-of-range config field fails at [run], naming the field and its
   range; [hosts = 0] used to be clamped to one host. *)
let bad_config_fails_loudly () =
  let d = small_config 42 in
  List.iter
    (fun (cfg, msg) ->
      Alcotest.check_raises msg
        (Invalid_argument ("Fleet.run: Fleet.config." ^ msg)) (fun () ->
          ignore (run_with_jobs cfg 1)))
    [
      ({ d with hosts = 0 }, "hosts must be >= 1");
      ({ d with overcommit = 0.0 }, "overcommit must be finite and > 0");
      ( { d with overcommit = Float.infinity },
        "overcommit must be finite and > 0" );
      ({ d with epochs = -1 }, "epochs must be >= 0");
      ( { d with mean_arrivals = Float.nan },
        "mean_arrivals must be finite and >= 0" );
    ]

(* The per-epoch rows must reconcile with the headline counters. *)
let rows_reconcile_with_totals () =
  let r = run_with_jobs (small_config 42) 1 in
  let sum f = List.fold_left (fun acc row -> acc + f row) 0 r.F.rows in
  check Alcotest.int "rows" 5 (List.length r.F.rows);
  check Alcotest.int "placed" r.F.guests_placed (sum (fun w -> w.F.placed));
  check Alcotest.int "rejected" r.F.guests_rejected
    (sum (fun w -> w.F.rejected));
  check Alcotest.int "migrations" r.F.migrations
    (sum (fun w -> w.F.migrations_done));
  check Alcotest.int "aborted" r.F.migrations_aborted
    (sum (fun w -> w.F.migrations_aborted));
  check Alcotest.int "oom" r.F.oom_kills (sum (fun w -> w.F.oom_killed));
  Alcotest.(check bool) "something ran" true
    (r.F.guests_placed > 0 && r.F.pages_placed > 0 && r.F.guest_seconds > 0);
  Alcotest.(check bool) "report mentions fingerprint" true
    (Test_util.contains (F.report r)
       (Printf.sprintf "%016x" r.F.fingerprint))

(* Traffic is a pure function of (seed, epoch): independent generators
   with the same seed replay the same history, and [load] can be probed
   any number of times without disturbing it. *)
let traffic_pure_and_deterministic () =
  let mk () = T.create ~seed:9 ~mean_arrivals:10.0 () in
  let a = mk () and b = mk () in
  for epoch = 0 to 9 do
    let la = T.load a ~epoch in
    check (Alcotest.float 0.0) "load pure" la (T.load a ~epoch);
    check (Alcotest.float 0.0) "load seed-determined" la (T.load b ~epoch);
    Alcotest.(check bool) "load in range" true (la >= 0.35 && la <= 1.6);
    let sa = T.arrivals a ~epoch and sb = T.arrivals b ~epoch in
    check Alcotest.int "same arrival count" (List.length sa) (List.length sb);
    List.iter2
      (fun (x : T.vm_spec) (y : T.vm_spec) ->
        check Alcotest.int "tenant" x.T.tenant y.T.tenant;
        check Alcotest.int "mem" x.T.mem_mb y.T.mem_mb;
        check Alcotest.int "lifetime" x.T.lifetime_epochs y.T.lifetime_epochs)
      sa sb
  done

(* Tenant ids are the arrival order: strictly increasing from 0 across
   epochs, never reused. *)
let traffic_tenant_ids_monotonic () =
  let t = T.create ~seed:4 ~mean_arrivals:12.0 () in
  let next = ref 0 in
  for epoch = 0 to 7 do
    List.iter
      (fun (s : T.vm_spec) ->
        check Alcotest.int "dense ids" !next s.T.tenant;
        incr next;
        Alcotest.(check bool) "sane size" true (s.T.mem_mb >= 4);
        Alcotest.(check bool) "sane lifetime" true (s.T.lifetime_epochs >= 2))
      (T.arrivals t ~epoch)
  done;
  Alcotest.(check bool) "tenants arrived" true (!next > 0)

let tests =
  [
    ( "cluster:traffic",
      [
        Alcotest.test_case "pure + seed-determined" `Quick
          traffic_pure_and_deterministic;
        Alcotest.test_case "tenant ids monotonic" `Quick
          traffic_tenant_ids_monotonic;
      ] );
    ( "cluster:fleet",
      [
        Alcotest.test_case "rows reconcile" `Slow rows_reconcile_with_totals;
        Alcotest.test_case "bad config fails loudly" `Quick
          bad_config_fails_loudly;
        Test_util.qcheck fleet_deterministic_across_pool_widths;
        Test_util.qcheck controller_invariants;
      ] );
  ]
