(* Tests for the domain pool and the parallel experiment runner:
   deterministic result ordering, per-job exception capture, and
   bit-equal outputs/stats between serial and parallel sweeps. *)

let check = Alcotest.check

let pool_maps_in_order () =
  let p = Parallel.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown p)
    (fun () ->
      let xs = List.init 50 Fun.id in
      let out = Parallel.Pool.map p (fun x -> x * x) xs in
      check
        Alcotest.(list int)
        "squares in submission order"
        (List.map (fun x -> x * x) xs)
        (List.map Result.get_ok out))

let pool_captures_exceptions () =
  let out =
    Parallel.Pool.run ~jobs:4
      (fun x -> if x mod 7 = 0 then failwith ("boom " ^ string_of_int x) else x)
      (List.init 20 Fun.id)
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v ->
          Alcotest.(check bool) "non-multiples survive" true (v = i && i mod 7 <> 0)
      | Error (Failure msg) ->
          Alcotest.(check bool) "multiples of 7 fail" true
            (i mod 7 = 0 && msg = "boom " ^ string_of_int i)
      | Error _ -> Alcotest.fail "unexpected exception")
    out

exception Thunk of int

(* [iter_all] runs every thunk even when some raise, counts each once,
   and then re-raises the failure of the first failing thunk in array
   order.  At width 2 thunk 0 fails only after thunk 2 has, so
   completion order and array order disagree. *)
let iter_all_runs_every_thunk () =
  List.iter
    (fun width ->
      let p = Parallel.Pool.create ~jobs:width () in
      let ran = Array.make 3 false in
      let thunk2_ran = Atomic.make false in
      let thunks =
        [|
          (fun () ->
            if width > 1 then
              while not (Atomic.get thunk2_ran) do
                Domain.cpu_relax ()
              done;
            ran.(0) <- true;
            raise (Thunk 0));
          (fun () -> ran.(1) <- true);
          (fun () ->
            ran.(2) <- true;
            Atomic.set thunk2_ran true;
            raise (Thunk 2));
        |]
      in
      let raised =
        match Parallel.Pool.iter_all p thunks with
        | () -> None
        | exception Thunk i -> Some i
      in
      let s = Parallel.Pool.stats p in
      Parallel.Pool.shutdown p;
      let name what = Printf.sprintf "width %d: %s" width what in
      check Alcotest.(array bool) (name "every thunk ran") [| true; true; true |]
        ran;
      check Alcotest.(option int) (name "first failure in array order")
        (Some 0) raised;
      check Alcotest.int (name "every thunk counted once") 3
        (s.Parallel.Pool.worker_jobs + s.Parallel.Pool.helper_jobs))
    [ 1; 2 ]

let pool_reusable_and_serial_equal () =
  let p = Parallel.Pool.create ~jobs:3 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown p)
    (fun () ->
      let xs = List.init 10 Fun.id in
      let a = Parallel.Pool.map p succ xs in
      let b = Parallel.Pool.map p succ xs in
      check Alcotest.(list int) "two maps agree"
        (List.map Result.get_ok a)
        (List.map Result.get_ok b);
      let serial = Parallel.Pool.run ~jobs:1 succ xs in
      check Alcotest.(list int) "parallel equals serial"
        (List.map Result.get_ok serial)
        (List.map Result.get_ok a))

(* A small fig3-style machine; everything the run touches is built here,
   so concurrent copies must produce identical counters. *)
let tiny_machine_stats () =
  let workload = Workloads.Sysbench.workload ~iterations:1 ~file_mb:16 () in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = 24;
      resident_limit_mb = Some 16;
      warm_all = true;
      data_mb = 16 + 64;
    }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      host_mem_mb = 48;
      host_swap_mb = 36;
    }
  in
  let result = Vmm.Machine.run (Vmm.Machine.build cfg) in
  Format.asprintf "%a" Metrics.Stats.pp result.Vmm.Machine.stats

let stats_deterministic_under_domains () =
  let reference = tiny_machine_stats () in
  let outs =
    Parallel.Pool.run ~jobs:4 (fun _ -> tiny_machine_stats ()) [ 0; 1; 2; 3 ]
  in
  List.iteri
    (fun i r ->
      check Alcotest.string
        (Printf.sprintf "copy %d matches serial counters" i)
        reference (Result.get_ok r))
    outs

(* ---- nesting-safe global pool ---- *)

(* Every outer job (one per pool slot, and then some) submits a nested
   map to the same pool; with a blocking scheduler this deadlocks as
   soon as all workers hold an outer job.  The work-sharing pool must
   terminate and keep both levels' ordering. *)
let global_nested_map_terminates () =
  Parallel.Pool.set_global_jobs 4;
  let p = Parallel.Pool.global () in
  let outer = List.init 8 Fun.id in
  let out =
    Parallel.Pool.map p
      (fun o ->
        Parallel.Pool.map p (fun i -> (o * 100) + i) (List.init 16 Fun.id)
        |> List.map Result.get_ok)
      outer
  in
  List.iteri
    (fun o r ->
      check
        Alcotest.(list int)
        (Printf.sprintf "outer %d inner results ordered" o)
        (List.init 16 (fun i -> (o * 100) + i))
        (Result.get_ok r))
    out

(* Three levels deep, from every worker at once. *)
let global_deep_nesting () =
  Parallel.Pool.set_global_jobs 4;
  let p = Parallel.Pool.global () in
  let sum l = List.fold_left ( + ) 0 l in
  let level3 o m =
    Parallel.Pool.map p (fun i -> o + m + i) [ 1; 2; 3 ]
    |> List.map Result.get_ok |> sum
  in
  let level2 o =
    Parallel.Pool.map p (level3 o) [ 10; 20 ] |> List.map Result.get_ok |> sum
  in
  let out = Parallel.Pool.map p level2 (List.init 6 (fun o -> o * 1000)) in
  List.iteri
    (fun i r ->
      (* level2 o = sum over m in {10,20} of (3o + 3m + 6) = 6o + 102 *)
      check Alcotest.int
        (Printf.sprintf "outer %d deep sum" i)
        ((6 * (i * 1000)) + 102)
        (Result.get_ok r))
    out

(* An exception in a nested job is captured for that inner element only:
   the inner map returns its Error, the outer job goes on and succeeds,
   and sibling outer jobs are untouched. *)
let global_inner_exception_isolated () =
  Parallel.Pool.set_global_jobs 4;
  let p = Parallel.Pool.global () in
  let out =
    Parallel.Pool.map p
      (fun o ->
        let inner =
          Parallel.Pool.map p
            (fun i -> if o = 2 && i = 3 then failwith "inner boom" else i)
            (List.init 6 Fun.id)
        in
        List.map (function Ok v -> v | Error _ -> -1) inner)
      (List.init 5 Fun.id)
  in
  List.iteri
    (fun o r ->
      let expected =
        List.init 6 (fun i -> if o = 2 && i = 3 then -1 else i)
      in
      check
        Alcotest.(list int)
        (Printf.sprintf "outer %d survives inner failure" o)
        expected (Result.get_ok r))
    out

let clamp_and_stats () =
  (* Shrink the global pool to the inline path first: a max_jobs-wide
     pool next to a live global one would exceed the runtime's
     128-domain cap. *)
  Parallel.Pool.set_global_jobs 1;
  let p = Parallel.Pool.create ~jobs:(Parallel.Pool.max_jobs + 100) () in
  let width = Parallel.Pool.jobs p in
  Parallel.Pool.shutdown p;
  check Alcotest.int "width clamped to max_jobs" Parallel.Pool.max_jobs width;
  Parallel.Pool.set_global_jobs 4;
  let g = Parallel.Pool.global () in
  Parallel.Pool.reset_stats g;
  let n = 32 in
  ignore
    (Parallel.Pool.map g
       (fun _ -> Parallel.Pool.map g Fun.id (List.init 4 Fun.id))
       (List.init n Fun.id));
  let s = Parallel.Pool.stats g in
  check Alcotest.int "every job accounted once" (n + (n * 4))
    (s.Parallel.Pool.worker_jobs + s.Parallel.Pool.helper_jobs);
  Alcotest.(check bool) "peak queue depth observed" true
    (s.Parallel.Pool.peak_queue_depth >= 1);
  Alcotest.(check bool) "submitters helped" true
    (s.Parallel.Pool.helper_jobs > 0)

(* The sharded fig4 (four ten-guest machine runs fanned out over the
   global pool, nested under nothing here) must render byte-identically
   to the serial inline path, at any scale. *)
let fig4_sharded_equals_serial =
  QCheck.Test.make ~name:"parallel: sharded fig4 == serial fig4 (any scale)"
    ~count:3
    QCheck.(make Gen.(oneofl [ 0.02; 0.03; 0.04 ]))
    (fun scale ->
      let fig4 = Option.get (Experiments.Registry.find "fig4") in
      let render jobs =
        Parallel.Pool.set_global_jobs jobs;
        fig4.Experiments.Exp.run ~scale
      in
      let serial = render 1 in
      let sharded = render 4 in
      String.equal serial sharded)

(* Output and counter tally of every outcome must not depend on the pool
   width.  fig3 shards its configurations onto the pool, so its tally
   only reads the same at jobs 4 if the tally travels with the
   sub-jobs; mig runs each source machine before migrating it, and
   that run must reach its tally too; tab1 runs no machine, so its
   tally stays all zero. *)
let run_all_deterministic () =
  let ids = [ "fig3"; "mig"; "tab1" ] in
  let chosen = List.filter_map Experiments.Registry.find ids in
  let render jobs =
    Parallel.Pool.set_global_jobs jobs;
    Experiments.Registry.run_all ~scale:0.05 chosen
    |> List.map (fun (o : Experiments.Registry.outcome) ->
           (Result.get_ok o.output, Metrics.Stats.fields o.stats))
  in
  let serial = render 1 in
  let parallel = render 4 in
  List.iter2
    (fun (id, (out1, st1)) (out4, st4) ->
      check Alcotest.string (id ^ ": jobs:4 output equals jobs:1") out1 out4;
      check
        Alcotest.(list (pair string int))
        (id ^ ": jobs:4 tally equals jobs:1") st1 st4)
    (List.combine ids serial)
    parallel;
  let events (_, st) = List.assoc "engine_events_fired" st in
  Alcotest.(check bool) "fig3 tallied its runs" true
    (events (List.nth serial 0) > 0);
  Alcotest.(check bool) "mig tallied its runs" true
    (events (List.nth serial 1) > 0);
  Alcotest.(check bool) "tab1 tally all zero" true
    (List.for_all (fun (_, v) -> v = 0) (snd (List.nth serial 2)))

let tests =
  [
    ( "parallel:pool",
      [
        Alcotest.test_case "map preserves order" `Quick pool_maps_in_order;
        Alcotest.test_case "exceptions captured per job" `Quick
          pool_captures_exceptions;
        Alcotest.test_case "pool reusable, serial-equal" `Quick
          pool_reusable_and_serial_equal;
        Alcotest.test_case "iter_all runs every thunk, array-order failure"
          `Quick iter_all_runs_every_thunk;
      ] );
    ( "parallel:nesting",
      [
        Alcotest.test_case "nested map on global pool terminates ordered"
          `Quick global_nested_map_terminates;
        Alcotest.test_case "three-level nesting from every worker" `Quick
          global_deep_nesting;
        Alcotest.test_case "inner exception isolated per element" `Quick
          global_inner_exception_isolated;
        Alcotest.test_case "clamp bound + scheduling stats" `Quick
          clamp_and_stats;
      ] );
    ( "parallel:determinism",
      [
        Alcotest.test_case "machine stats identical across domains" `Slow
          stats_deterministic_under_domains;
        Alcotest.test_case "run_all jobs:4 == jobs:1" `Slow
          run_all_deterministic;
        Test_util.qcheck fig4_sharded_equals_serial;
      ] );
  ]
