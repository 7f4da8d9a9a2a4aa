(* Scalability: swap-in throughput vs guest count under the async
   page-fault path and the NVMe-style multi-queue disk.  Not a figure of
   the paper — a sweep validating this repo's perf work: with faults
   dispatched asynchronously (VCPUs rescheduled onto runnable threads
   while a swap-in is in flight) and reads spread over per-guest
   submission queues served in parallel, aggregate swap-in throughput
   should scale with the number of guests instead of serializing behind
   one elevator.  The sync single-queue regime is the pre-existing
   stock configuration and doubles as the baseline. *)

type regime = {
  rname : string;
  async : bool;
  queues : int;
  qdepth : int;
  inflight : int;  (* per-guest in-flight fault bound; 0 = unbounded *)
}

let regimes =
  [
    { rname = "sync-1q"; async = false; queues = 1; qdepth = 1; inflight = 0 };
    { rname = "async-1q"; async = true; queues = 1; qdepth = 1; inflight = 8 };
    { rname = "async-4q"; async = true; queues = 4; qdepth = 2; inflight = 8 };
    { rname = "async-8q"; async = true; queues = 8; qdepth = 4; inflight = 16 };
  ]

let guest_counts = [ 1; 2; 4; 8 ]

type point = {
  wall : float option;  (* slowest guest's completion, simulated s *)
  swapins : int;
  mq_batches : int;
  inflight_hw : int;
}

let run_point ~scale regime n =
  let storm_mb = Exp.mb scale 512 in
  (* Derived, not Exp.mb-floored: at smoke scales the 16 MiB floor would
     otherwise make the limit as large as the region and nothing would
     swap.  A 3:1 region:resident ratio keeps every re-read pass a storm
     of major faults at any scale. *)
  let limit_mb = max 8 (storm_mb / 3) in
  let guest_mb = storm_mb + 16 in
  let workload =
    Workloads.Swapstorm.workload ~threads:4 ~rounds:2 ~mb:storm_mb ()
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = guest_mb;
      resident_limit_mb = Some limit_mb;
      data_mb = storm_mb + 64;
    }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:(List.init n (fun _ -> guest))) with
      vs = Vswapper.Vsconfig.baseline;
      host_mem_mb = n * guest_mb * 2;
      host_swap_mb = n * guest_mb;
      async_faults = regime.async;
      disk =
        {
          Storage.Disk.default_config with
          num_queues = regime.queues;
          per_queue_depth = regime.qdepth;
        };
      hbase =
        { Host.Hconfig.default with max_inflight_faults = regime.inflight };
    }
  in
  let out = Exp.run_machine (Vmm.Machine.build cfg) in
  let wall =
    Array.fold_left
      (fun acc g ->
        match (acc, g) with
        | Some a, Some b -> Some (Float.max a b)
        | _ -> None)
      (Some 0.0) out.Exp.per_guest_s
  in
  let s = out.Exp.stats in
  {
    wall;
    swapins = s.Metrics.Stats.host_swapins;
    mq_batches = s.Metrics.Stats.disk_mq_batches;
    inflight_hw = s.Metrics.Stats.async_inflight_highwater;
  }

let iops p =
  match p.wall with
  | Some w when w > 0.0 -> Some (float_of_int p.swapins /. w)
  | _ -> None

let run ~scale =
  let results = Exp.grid (run_point ~scale) regimes guest_counts in
  let panel title f =
    Exp.series ~title ~x_label:"guests"
      ~x:(List.map string_of_int guest_counts)
      (fun r -> r.rname) results f
  in
  (* Acceptance check, printed so a sweep documents its own verdict: at
     the largest guest count the widest multi-queue regime must beat the
     sync single-queue baseline by >= 1.5x aggregate swap-in IOPS. *)
  let last row = List.nth row (List.length row - 1) in
  let verdict =
    match results with
    | (base, base_row) :: rest when rest <> [] ->
        let best, best_row = List.nth rest (List.length rest - 1) in
        let n = last guest_counts in
        (match (iops (last base_row), iops (last best_row)) with
        | Some b, Some m when b > 0.0 ->
            Printf.sprintf
              "%s vs %s aggregate swap-in throughput at %d guests: %.2fx \
               (target >= 1.5x)"
              best.rname base.rname n (m /. b)
        | _ ->
            Printf.sprintf
              "speedup at %d guests: n/a (a guest did not finish)" n)
    | _ -> "speedup: n/a"
  in
  String.concat "\n"
    [
      panel
        "(a) aggregate swap-in throughput [pages/s of simulated time] -- \
         higher is better"
        iops;
      panel "(b) completion time of the slowest guest [s]" (fun p -> p.wall);
      panel "(c) media batches served on queues other than 0 [count]"
        (fun p -> Some (float_of_int p.mq_batches));
      panel "(d) peak concurrent in-flight target faults [count]" (fun p ->
          Some (float_of_int p.inflight_hw));
      verdict;
    ]

let exp =
  Exp.make ~id:"scalability"
    ~title:"Swap-in throughput scaling: async fault path x multi-queue disk"
    ~paper_claim:
      "not in the paper: this repo's perf work; rescheduling VCPUs during \
       in-flight faults and serving per-guest submission queues in \
       parallel should let aggregate swap-in throughput scale with guest \
       count, where the synchronous single-elevator stack serializes"
    run
