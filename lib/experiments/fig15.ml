(* Figure 15: the Mapper tracks almost exactly the guest's clean page
   cache over time (Eclipse workload, sampled periodically). *)

let run ~scale ~faults:_ =
  let guest_mb = Exp.mb scale 512 in
  let limit_mb = Exp.mb scale 256 in
  let workload =
    Workloads.Eclipse.workload
      ~heap_mb:(Exp.mb scale 128)
      ~classes_mb:(Exp.mb scale 48)
      ~iterations:(Exp.scaled_int scale 48 ~min:24)
      ~touches_per_iter:2400 ()
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = guest_mb;
      resident_limit_mb = Some limit_mb;
      warm_all = false;
      data_mb = Exp.mb scale 48 + 64;
    }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      vs = Vswapper.Vsconfig.vswapper;
      host_mem_mb = guest_mb * 2;
      host_swap_mb = guest_mb * 3 / 2;
    }
  in
  let machine = Vmm.Machine.build cfg in
  let engine = Vmm.Machine.engine machine in
  let host = Vmm.Machine.host machine in
  let os = Vmm.Machine.os machine 0 in
  let mb_of_pages p = float_of_int p /. 256.0 in
  let series =
    Metrics.Series.create ~engine
      ~period:(Sim.Time.ms (max 50 (int_of_float (500.0 *. scale))))
      [
        ( "page-cache-clean",
          fun () ->
            mb_of_pages
              (Guest.Guestos.cache_pages os - Guest.Guestos.dirty_cache_pages os)
        );
        ("mapper-tracked", fun () -> mb_of_pages (Host.Hostmm.mapper_tracked host 0));
      ]
  in
  let out = Exp.run_machine machine in
  ignore out;
  Metrics.Series.stop series;
  let cache = Metrics.Series.points series "page-cache-clean" in
  let tracked = Metrics.Series.points series "mapper-tracked" in
  (* Downsample to ~12 rows. *)
  let n = List.length cache in
  let stride = max 1 (n / 12) in
  let sample l = List.filteri (fun i _ -> i mod stride = 0) l in
  let cache_s = sample cache and tracked_s = sample tracked in
  let x =
    List.map (fun (t, _) -> Printf.sprintf "%.1fs" (Sim.Time.to_sec_float t)) cache_s
  in
  let col l = List.map (fun (_, v) -> Some v) l in
  let table =
    Metrics.Table.render_series
      ~title:
        "guest clean page cache vs Mapper-tracked size [MB] over time -- \
         paper: the two curves coincide (dirty pages correctly excluded)"
      ~x_label:"time" ~x
      ~cols:
        [ ("cache-clean", col cache_s); ("mapper-tracked", col tracked_s) ]
  in
  let spark name l =
    Printf.sprintf "%-16s %s" name (Metrics.Table.spark (List.map snd l))
  in
  table ^ "\n" ^ spark "cache-clean" cache ^ "\n" ^ spark "mapper-tracked" tracked

let exp =
  Exp.make ~id:"fig15" ~title:"Mapper tracking vs guest page cache over time"
    ~paper_claim:
      "the size tracked by the Mapper coincides with the guest page cache \
       excluding dirty pages; empirically the Mapper consumed <= 14MB of \
       metadata in all experiments"
    run
