(* Tiered swap: the fig3 overcommitted sequential read, re-run with the
   host swap area split across a fast tier and the disk.  Not a figure
   of the paper — a sweep validating this repo's tiering work:
   as the fast-tier share grows (compressed RAM or a low-RTT remote tier
   absorbing more of the swap traffic), swapping itself gets cheaper, so
   the baseline's penalty for its extra swap I/O (silent swap writes,
   false reads) shrinks and the baseline-vs-vswapper gap narrows. *)

let fast_shares = [ 0; 25; 50; 75; 100 ]
let admit_ratios = [ 0.30; 0.60; 0.90; 1.25 ]
let remote_rtts_us = [ 20; 100; 500; 2000 ]

(* Only baseline and full vswapper: the tier sweep multiplies runs, and
   these two bracket the gap the verdict tracks. *)
let configs = [ Exp.Baseline; Exp.Vswapper_full ]

(* The default admission ratio for panels (a)/(c) accepts every page
   (1.25 is the compressibility-hash ceiling): the share knob is then
   the only thing moving, so each panel sweeps one variable.  Panel (b)
   sweeps the ratio itself. *)
let tiers_cfg ~fast ?(share = 50) ?(ratio = 1.25) ?(rtt = 20) () =
  {
    Storage.Tiers.disk_only with
    Storage.Tiers.fast;
    fast_share_percent = share;
    czram_admit_ratio = ratio;
    remote_rtt_us = rtt;
    (* Short enough that pages parked during the pre-workload warm-up
       count as cold while the workload runs, so the capacity-pressure
       demotion path is actually exercised at binding shares. *)
    writeback_idle_us = 250_000;
  }

let run_point ~scale kind tiers =
  let file_mb = Exp.mb scale 200 in
  let guest_mb = Exp.mb scale 512 in
  let limit_mb = Exp.mb scale 100 in
  let workload = Workloads.Sysbench.workload ~iterations:1 ~file_mb () in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = guest_mb;
      data_mb = file_mb + 64;
    }
  in
  let cfg =
    {
      (Exp.testbed kind ~limit_mb guest) with
      (* Sized to the swapped working set (guest minus resident limit)
         plus slack, not the usual 1.5x guest: the fast-tier share is a
         fraction of the swap area, and an oversized area would leave
         even a 25% share bigger than the live set — every sweep point
         would behave like share 100. *)
      host_swap_mb = max 16 (guest_mb - limit_mb + 8);
      tiers;
    }
  in
  Exp.run_machine (Vmm.Machine.build cfg)

let runtime (o : Exp.run_out) = o.Exp.runtime_s

let run ~scale ~faults:_ =
  (* One grid over every panel's knobs, so the three panels' points run
     together; each panel then slices its own columns back out. *)
  let czram = tiers_cfg ~fast:Storage.Tiers.Czram in
  let knobs =
    List.map (fun share -> czram ~share ()) fast_shares
    @ List.map (fun ratio -> czram ~ratio ()) admit_ratios
    @ List.map
        (fun rtt -> tiers_cfg ~fast:Storage.Tiers.Remote ~rtt ())
        remote_rtts_us
  in
  let results = Exp.grid (run_point ~scale) configs knobs in
  let slice first xs =
    let n = List.length xs in
    List.map
      (fun (kind, row) ->
        (kind, List.filteri (fun i _ -> i >= first && i < first + n) row))
      results
  in
  let share_rows = slice 0 fast_shares in
  let ratio_rows = slice (List.length fast_shares) admit_ratios in
  let rtt_rows =
    slice (List.length fast_shares + List.length admit_ratios) remote_rtts_us
  in
  (* Panel (d): the tier counters of the baseline runs of panel (a) —
     the baseline is the configuration with heavy swap churn (silent
     swap writes, false reads), so it is where admission, promotion and
     capacity-pressure demotion actually fire. *)
  let base_share_row = List.assoc Exp.Baseline share_rows in
  let counter name f =
    ( name,
      List.map
        (fun (o : Exp.run_out) ->
          Some (float_of_int (f o.Exp.stats)))
        base_share_row )
  in
  let counters =
    Metrics.Table.render_series
      ~title:
        "(d) baseline czram+disk tier counters vs fast-tier share [count]"
      ~x_label:"share%"
      ~x:(List.map string_of_int fast_shares)
      ~cols:
        [
          counter "admissions" (fun s -> s.Metrics.Stats.tier_admissions);
          counter "rejects" (fun s -> s.Metrics.Stats.tier_rejects);
          counter "promotions" (fun s -> s.Metrics.Stats.tier_promotions);
          counter "demotions" (fun s -> s.Metrics.Stats.tier_demotions);
          counter "wb-sectors" (fun s -> s.Metrics.Stats.tier_writeback_sectors);
          counter "fast-ins" (fun s -> s.Metrics.Stats.tier_fast_swapins);
          counter "slow-ins" (fun s -> s.Metrics.Stats.tier_slow_swapins);
        ]
  in
  (* Verdict, printed so the sweep documents its own acceptance check:
     the baseline/vswapper runtime ratio must shrink between the
     all-disk split (share 0) and the all-czram split (share 100). *)
  let gap at =
    let get kind = runtime (List.nth (List.assoc kind share_rows) at) in
    match (get Exp.Baseline, get Exp.Vswapper_full) with
    | Some b, Some v when v > 0.0 -> Some (b /. v)
    | _ -> None
  in
  let verdict =
    match (gap 0, gap (List.length fast_shares - 1)) with
    | Some g0, Some g100 ->
        Printf.sprintf
          "baseline/vswapper runtime gap: %.2fx at share 0 -> %.2fx at share \
           100 (target: narrower as the fast tier grows)%s"
          g0 g100
          (if g100 < g0 then "" else "  ** NOT NARROWER **")
    | _ -> "gap: n/a (a run did not finish)"
  in
  String.concat "\n"
    [
      Exp.series
        ~title:
          "(a) runtime [s] vs fast-tier share, czram+disk -- lower is better"
        ~x_label:"share%"
        ~x:(List.map string_of_int fast_shares)
        Exp.config_name share_rows runtime;
      Exp.series
        ~title:
          "(b) runtime [s] vs czram admission ratio cap, czram+disk at share \
           50 (pages compressing worse than the cap go to disk)"
        ~x_label:"ratio"
        ~x:(List.map (Printf.sprintf "%.2f") admit_ratios)
        Exp.config_name ratio_rows runtime;
      Exp.series
        ~title:
          "(c) runtime [s] vs remote round-trip, remote+disk at share 50"
        ~x_label:"rtt_us"
        ~x:(List.map string_of_int remote_rtts_us)
        Exp.config_name rtt_rows runtime;
      counters;
      verdict;
    ]

let exp =
  Exp.make ~id:"tiering"
    ~title:"Tiered swap backends: compressed RAM and remote memory"
    ~paper_claim:
      "not in the paper: this repo's backend work; splitting the swap area \
       across a fast tier (compressed RAM or remote memory) and the disk \
       should shrink swap-in cost as the fast share grows, narrowing the \
       baseline-vs-vswapper gap the all-disk configuration shows"
    run
