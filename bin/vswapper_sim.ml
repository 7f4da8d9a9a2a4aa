(* Command-line front end: run any of the paper's experiments, or an
   ad-hoc single-guest simulation, from the terminal.

     vswapper_sim list
     vswapper_sim run fig9 [--scale 0.25]
     vswapper_sim all [--scale 1.0]
     vswapper_sim adhoc --workload sysbench --mem 512 --limit 100 \
                        --config vswapper
*)

open Cmdliner

let list_cmd =
  let doc = "List the available experiments (one per paper figure/table)." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-6s %s\n" e.Experiments.Exp.id e.Experiments.Exp.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let scale_arg =
  let doc =
    "Scale factor for memory/file sizes and workload lengths; a positive, \
     finite number."
  in
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when Float.is_finite x && x > 0.0 -> Ok x
    | Ok _ ->
        Error (`Msg (Printf.sprintf "%S is not a positive, finite number" s))
    | Error _ as e -> e
  in
  let scale = Arg.conv (parse, Arg.conv_printer Arg.float) in
  Arg.(value & opt scale 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let run_cmd =
  let doc = "Run one experiment by id (e.g. fig9, tab2)." in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"experiment id")
  in
  let run id scale =
    match Experiments.Registry.find id with
    | None ->
        Printf.eprintf "unknown experiment %S; try: %s\n" id
          (String.concat " " (Experiments.Registry.ids ()));
        exit 1
    | Some e -> print_endline (e.Experiments.Exp.run ~scale)
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ id_arg $ scale_arg)

let all_cmd =
  let doc = "Run every experiment in sequence." in
  let run scale =
    List.iter
      (fun e -> print_endline (e.Experiments.Exp.run ~scale))
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ scale_arg)

let adhoc_cmd =
  let doc = "Run a single-guest ad-hoc simulation and dump all counters." in
  let workload_arg =
    let wconv =
      Arg.enum
        [ ("sysbench", `Sysbench); ("memhog", `Memhog); ("pbzip", `Pbzip);
          ("kernbench", `Kernbench); ("eclipse", `Eclipse); ("metis", `Metis) ]
    in
    Arg.(value & opt wconv `Sysbench & info [ "workload" ] ~docv:"W" ~doc:"workload")
  in
  let mem_arg =
    Arg.(value & opt int 512 & info [ "mem" ] ~docv:"MB" ~doc:"guest memory")
  in
  let limit_arg =
    Arg.(value & opt int 100 & info [ "limit" ] ~docv:"MB" ~doc:"resident cap")
  in
  let config_arg =
    let cconv =
      Arg.enum
        [ ("baseline", `Baseline); ("mapper", `Mapper); ("vswapper", `Vswapper);
          ("balloon", `Balloon); ("balloon+vswapper", `Balloon_vs) ]
    in
    Arg.(value & opt cconv `Vswapper & info [ "config" ] ~docv:"C" ~doc:"configuration")
  in
  let run workload mem limit config =
    let w =
      match workload with
      | `Sysbench -> Workloads.Sysbench.workload ~iterations:2 ~file_mb:(mem * 2 / 5) ()
      | `Memhog -> Workloads.Memhog.workload ~read_first_mb:(mem / 4) ~mb:(mem / 4) ()
      | `Pbzip -> Workloads.Pbzip.workload ~input_mb:(mem / 3) ()
      | `Kernbench -> Workloads.Kernbench.workload ~units:300 ~tree_mb:(mem / 2) ()
      | `Eclipse -> Workloads.Eclipse.workload ~heap_mb:(mem / 3) ()
      | `Metis -> Workloads.Metis.workload ~input_mb:(mem / 4) ~table_mb:(mem / 3) ()
    in
    let vs =
      match config with
      | `Baseline | `Balloon -> Vswapper.Vsconfig.baseline
      | `Mapper -> Vswapper.Vsconfig.mapper_only
      | `Vswapper | `Balloon_vs -> Vswapper.Vsconfig.vswapper
    in
    let ballooned = match config with `Balloon | `Balloon_vs -> true | _ -> false in
    let guest =
      {
        (Vmm.Config.default_guest ~workload:w) with
        mem_mb = mem;
        resident_limit_mb = Some limit;
        balloon_static_mb = (if ballooned then Some limit else None);
        warm_all = true;
        data_mb = mem * 2;
      }
    in
    let cfg =
      { (Vmm.Config.default ~guests:[ guest ]) with vs; host_mem_mb = mem * 2 }
    in
    let machine = Vmm.Machine.build cfg in
    let result = Vmm.Machine.run machine in
    (match result.Vmm.Machine.guests.(0).Vmm.Machine.runtime with
    | Some rt -> Printf.printf "runtime: %.2fs\n" (Sim.Time.to_sec_float rt)
    | None -> print_endline "runtime: workload crashed (OOM)");
    Format.printf "%a" Metrics.Stats.pp result.Vmm.Machine.stats
  in
  Cmd.v (Cmd.info "adhoc" ~doc)
    Term.(const run $ workload_arg $ mem_arg $ limit_arg $ config_arg)

let () =
  let doc = "VSwapper (ASPLOS'14) reproduction simulator" in
  let info = Cmd.info "vswapper_sim" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; all_cmd; adhoc_cmd ]))
