(* Ablation benches for the design decisions DESIGN.md calls out:

   D2 — the Preventer's emulation window and buffer cap (the paper's
        empirically chosen 1 ms / 32);
   D3 — the host's named-page reclaim preference (false anonymity);
   D4 — the readahead windows (swap cluster vs Mapper image readahead);
   D1 — swap-area sizing, which controls how fast the cluster allocator
        runs out of whole-free clusters and decay sets in. *)

(* A partial-write storm: one 512-byte store per page of a large region
   whose pages the host has swapped out.  Nothing ever completes a page,
   so every buffer must either time out (window) or get rejected (cap) —
   exactly the Preventer tunables under test. *)
let partial_write_storm ~vs =
  let workload =
    {
      Vmm.Workload.name = "partial-storm";
      setup =
        (fun os _rng ->
          let region =
            Guest.Guestos.alloc_region os ~pages:(Storage.Geom.pages_of_mb 48)
          in
          let warm =
            List.init (Guest.Guestos.region_pages region) (fun i ->
                Vmm.Workload.Overwrite (region, i))
          in
          let storm =
            List.init (Guest.Guestos.region_pages region) (fun i ->
                Vmm.Workload.Touch (region, i, true))
          in
          {
            Vmm.Workload.threads = [ Vmm.Workload.of_list (warm @ storm) ];
            cleanup = (fun () -> Guest.Guestos.free_region os region);
          });
    }
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = 256;
      resident_limit_mb = Some 48;
      warm_all = true;
      data_mb = 64;
    }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      vs;
      host_mem_mb = 512;
      host_swap_mb = 512;
    }
  in
  Exp.run_machine (Vmm.Machine.build cfg)

let sysbench_run ?(vs = Vswapper.Vsconfig.baseline) ~hbase ~host_swap_mb
    ~iterations () =
  let machine_ref = ref None in
  let on_mark, get_marks = Exp.mark_collector machine_ref in
  let workload =
    Workloads.Sysbench.workload ~iterations ~on_iteration:on_mark ~file_mb:100 ()
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = 256;
      resident_limit_mb = Some 50;
      warm_all = true;
      data_mb = 192;
    }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      vs;
      hbase;
      host_mem_mb = 512;
      host_swap_mb;
    }
  in
  let machine = Vmm.Machine.build cfg in
  machine_ref := Some machine;
  let out = Exp.run_machine ~get_marks machine in
  (* Return ((first-iteration, last-iteration) runtimes, stats). *)
  match out.Exp.marks with
  | start :: rest when rest <> [] ->
      let times = List.map (fun m -> m.Exp.at) (start :: rest) in
      let rec diffs = function
        | a :: (b :: _ as r) -> Sim.Time.to_sec_float (Sim.Time.sub b a) :: diffs r
        | _ -> []
      in
      let ds = diffs times in
      Some ((List.nth ds 0, List.nth ds (List.length ds - 1)), out)
  | _ -> None

let run ~scale =
  ignore scale;
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in

  (* Each ablation grid's points are independent machine runs, so every
     grid fans out over the shared pool; the jobs return the formatted
     rows, appended here in submission order, so the rendered block is
     identical to the old serial loops. *)

  (* D2: preventer window / cap sweep under a partial-write storm. *)
  addf "D2: Preventer window and buffer-cap sweep (partial-write storm)";
  addf "%-30s %10s %10s %10s %10s" "config" "time[s]" "timeouts" "rejects" "merges";
  List.iter (addf "%s")
    (Exp.shard
       (fun (label, window_us, cap) ->
         let vs =
           {
             Vswapper.Vsconfig.vswapper with
             preventer_window = Sim.Time.us window_us;
             preventer_max_buffers = cap;
           }
         in
         let out = partial_write_storm ~vs in
         Printf.sprintf "%-30s %10s %10d %10d %10d" label
           (match out.Exp.runtime_s with
           | Some v -> Printf.sprintf "%.2f" v
           | None -> "crash")
           out.Exp.stats.Metrics.Stats.preventer_timeouts
           out.Exp.stats.Metrics.Stats.preventer_rejects
           out.Exp.stats.Metrics.Stats.preventer_merges)
       [
         ("window=0.25ms cap=32", 250, 32);
         ("window=1ms    cap=32 (paper)", 1_000, 32);
         ("window=4ms    cap=32", 4_000, 32);
         ("window=1ms    cap=8", 1_000, 8);
         ("window=1ms    cap=128", 1_000, 128);
       ]);
  addf "";

  (* D3: named-page preference on/off under the Mapper, where guest page
     cache copies are actually named: without the preference the host
     swaps anonymous pages it could have avoided touching. *)
  addf "D3: named-page reclaim preference (mapper iterated sysbench)";
  addf "%-30s %12s %12s %14s" "config" "iter1[s]" "iter4[s]" "swap-writes-pg";
  List.iter (addf "%s")
    (Exp.shard
       (fun (label, pref) ->
         let hbase = { Host.Hconfig.default with named_preference = pref } in
         match
           sysbench_run ~vs:Vswapper.Vsconfig.mapper_only ~hbase
             ~host_swap_mb:384 ~iterations:4 ()
         with
         | Some ((first, last), out) ->
             Printf.sprintf "%-30s %12.2f %12.2f %14d" label first last
               out.Exp.stats.Metrics.Stats.host_swapouts
         | None -> Printf.sprintf "%-30s (incomplete)" label)
       [ ("preference on (linux)", true); ("preference off", false) ]);
  addf "";

  (* D4: swap cluster readahead size under the baseline. *)
  addf "D4: swap readahead cluster (baseline iterated sysbench, first/last iter)";
  addf "%-26s %12s %12s" "page-cluster" "iter1[s]" "iter4[s]";
  List.iter (addf "%s")
    (Exp.shard
       (fun pc ->
         let hbase = { Host.Hconfig.default with page_cluster = pc } in
         match sysbench_run ~hbase ~host_swap_mb:384 ~iterations:4 () with
         | Some ((first, last), _) ->
             Printf.sprintf "%-26s %12.2f %12.2f"
               (Printf.sprintf "2^%d = %d pages" pc (1 lsl pc))
               first last
         | None -> Printf.sprintf "2^%d (incomplete)" pc)
       [ 0; 3; 5 ]);
  addf "";

  (* D1: swap sizing controls how fast decay arrives. *)
  addf "D1: swap-area size vs sequentiality decay (baseline, first/last iter)";
  addf "%-26s %12s %12s" "swap size" "iter1[s]" "iter6[s]";
  List.iter (addf "%s")
    (Exp.shard
       (fun swap_mb ->
         match
           sysbench_run ~hbase:Host.Hconfig.default ~host_swap_mb:swap_mb
             ~iterations:6 ()
         with
         | Some ((first, last), _) ->
             Printf.sprintf "%-26s %12.2f %12.2f"
               (Printf.sprintf "%dMB" swap_mb) first last
         | None -> Printf.sprintf "%dMB (incomplete)" swap_mb)
       [ 256; 384; 1024 ]);
  Buffer.contents buf

let exp =
  Exp.make ~id:"abl"
    ~title:"Ablations of the design decisions (DESIGN.md D1-D4)"
    ~paper_claim:
      "the Preventer's 1ms/32 values were set empirically (Section 4.2); \
       named preference and readahead sizing drive false anonymity and \
       sequentiality decay"
    run
