(* Tiered swap backends: the fig3 overcommitted sequential read, re-run
   with the host swap area split across a fast and a slow backend.  Not
   a figure of the paper — a sweep validating this repo's backend work:
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
let tiers_cfg ~fast ~slow ?(share = 50) ?(ratio = 1.25) ?(rtt = 20) () =
  {
    Storage.Tiers.disk_only with
    Storage.Tiers.fast;
    slow;
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
      resident_limit_mb = Some limit_mb;
      warm_all = true;
      data_mb = file_mb + 64;
    }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      vs = Exp.vs_of kind;
      host_mem_mb = guest_mb * 2;
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

let run ~scale =
  (* One flat shard over every (panel, config, knob) point; the panels
     then slice the result list back apart. *)
  let share_pts =
    List.concat_map
      (fun kind ->
        List.map
          (fun share ->
            ( kind,
              tiers_cfg ~fast:Storage.Tiers.Czram ~slow:Storage.Tiers.Disk_tier
                ~share () ))
          fast_shares)
      configs
  in
  let ratio_pts =
    List.concat_map
      (fun kind ->
        List.map
          (fun ratio ->
            ( kind,
              tiers_cfg ~fast:Storage.Tiers.Czram ~slow:Storage.Tiers.Disk_tier
                ~ratio () ))
          admit_ratios)
      configs
  in
  let rtt_pts =
    List.concat_map
      (fun kind ->
        List.map
          (fun rtt ->
            ( kind,
              tiers_cfg ~fast:Storage.Tiers.Remote ~slow:Storage.Tiers.Disk_tier
                ~rtt () ))
          remote_rtts_us)
      configs
  in
  let all_pts = share_pts @ ratio_pts @ rtt_pts in
  let all_res =
    Exp.shard (fun (kind, tiers) -> run_point ~scale kind tiers) all_pts
  in
  let rec split n l =
    if n = 0 then ([], l)
    else
      match l with
      | x :: r ->
          let a, b = split (n - 1) r in
          (x :: a, b)
      | [] -> ([], [])
  in
  let share_res, rest = split (List.length share_pts) all_res in
  let ratio_res, rtt_res = split (List.length ratio_pts) rest in
  let rows per res =
    Exp.group per res
    |> List.map2 (fun kind row -> (Exp.config_name kind, row)) configs
  in
  let share_rows = rows (List.length fast_shares) share_res in
  let ratio_rows = rows (List.length admit_ratios) ratio_res in
  let rtt_rows = rows (List.length remote_rtts_us) rtt_res in
  let series ~title ~x_label ~x named_rows f =
    Metrics.Table.render_series ~title ~x_label ~x
      ~cols:(List.map (fun (name, row) -> (name, List.map f row)) named_rows)
  in
  (* Panel (d): the tier counters of the baseline runs of panel (a) —
     the baseline is the configuration with heavy swap churn (silent
     swap writes, false reads), so it is where admission, promotion and
     capacity-pressure demotion actually fire. *)
  let base_share_row =
    match List.assoc_opt (Exp.config_name Exp.Baseline) share_rows with
    | Some row -> row
    | None -> []
  in
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
    let get name =
      match List.assoc_opt name share_rows with
      | Some row -> runtime (List.nth row at)
      | None -> None
    in
    match
      (get (Exp.config_name Exp.Baseline), get (Exp.config_name Exp.Vswapper_full))
    with
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
      series
        ~title:
          "(a) runtime [s] vs fast-tier share, czram+disk -- lower is better"
        ~x_label:"share%"
        ~x:(List.map string_of_int fast_shares)
        share_rows runtime;
      series
        ~title:
          "(b) runtime [s] vs czram admission ratio cap, czram+disk at share \
           50 (pages compressing worse than the cap go to disk)"
        ~x_label:"ratio"
        ~x:(List.map (Printf.sprintf "%.2f") admit_ratios)
        ratio_rows runtime;
      series
        ~title:
          "(c) runtime [s] vs remote round-trip, remote+disk at share 50"
        ~x_label:"rtt_us"
        ~x:(List.map string_of_int remote_rtts_us)
        rtt_rows runtime;
      counters;
      verdict;
    ]

let exp : Exp.t =
  let title = "Tiered swap backends: compressed RAM and remote memory" in
  let paper_claim =
    "not in the paper: this repo's backend work; splitting the swap area \
     across a fast tier (compressed RAM or remote memory) and the disk \
     should shrink swap-in cost as the fast share grows, narrowing the \
     baseline-vs-vswapper gap the all-disk configuration shows"
  in
  {
    id = "tiering";
    title;
    paper_claim;
    run =
      (fun ~scale -> Exp.header ~id:"tiering" ~title ~paper_claim (run ~scale));
  }
