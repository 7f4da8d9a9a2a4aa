(* vswapper_sim: regenerates every table and figure of the
   paper's evaluation section and the extension experiments from one
   registry, printing the rows and series the paper reports (paper
   values alongside, for shape comparison), or runs one ad-hoc
   single-guest simulation.

     vswapper_sim list
     vswapper_sim run                            # everything, full scale
     vswapper_sim run fig9 fig10 --scale 0.25    # a subset, quick pass
     vswapper_sim run --jobs 1                   # serial reference
     vswapper_sim run resilience --fault-seed 7 --fault-rate 0.002
     vswapper_sim run tab1 --json summary.json
     vswapper_sim adhoc --workload sysbench --mem 512 --limit 100 \
                        --config vswapper

   `run` fans the experiments out over the shared domain pool and
   prints their blocks in the order given, so the sweep reads
   identically at any --jobs.  An experiment that raises prints a FAILED
   line in its place; the rest of the sweep still prints (and --json is
   still written), then `run` exits 1.  A bad --scale, --jobs,
   --fault-seed or --fault-rate, or an unknown id, exits with status 124
   and names the flag or the id, and so does a non-positive adhoc --mem
   or --limit.

   Nothing here is timed: host time and allocation are measured by
   the repo benchmark, benchmark/, which has reps, medians, bounds and a
   ledger. *)

open Cmdliner
module Exp = Experiments.Exp
module Registry = Experiments.Registry

let list_cmd =
  let doc = "List the available experiments (one per paper figure/table)." in
  let run () =
    List.iter
      (fun (e : Exp.t) -> Printf.printf "%-6s %s\n" e.id e.title)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

(* The sweep's counters: every outcome's tally, merged with [Stats.add]
   (sums, and the max of the two highwaters). *)
let sweep_stats outcomes =
  let sum = Metrics.Stats.create () in
  List.iter
    (fun (o : Registry.outcome) -> Metrics.Stats.add sum o.stats)
    outcomes;
  sum

(* The --json summary of one sweep: every counter of Metrics.Stats
   summed over every experiment's tally, the events each experiment
   fired, and each experiment's ok flag.  Every key but "date" and
   "jobs" is a function of the ids, the scale and the fault knobs, so
   the summaries of one sweep at two widths differ in those two lines
   only.  Experiment ids are plain identifiers and need no escaping. *)
let write_json ~file ~scale ~jobs outcomes =
  (* Write to a temp file and rename over it: a crash mid-write never
     leaves a truncated summary behind. *)
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"date\": \"%s\",\n" (today ());
  out "  \"scale\": %g,\n" scale;
  out "  \"jobs\": %d,\n" jobs;
  (* Every counter of the sweep's tally, once, in declaration order. *)
  out "  \"counters\": {%s\n  },\n"
    (Metrics.Stats.fields (sweep_stats outcomes)
    |> List.map (fun (k, v) -> Printf.sprintf "\n    \"%s\": %d" k v)
    |> String.concat ",");
  (* The events each experiment that ran a machine fired. *)
  let ran =
    List.filter
      (fun (o : Registry.outcome) -> o.stats.engine_events_fired > 0)
      outcomes
    |> List.stable_sort (fun (a : Registry.outcome) b ->
           compare a.exp.id b.exp.id)
  in
  out "  \"engine\": {\"per_experiment\": [";
  List.iteri
    (fun i (o : Registry.outcome) ->
      out "%s\n      {\"id\": \"%s\", \"events\": %d}"
        (if i = 0 then "" else ",")
        o.exp.id o.stats.engine_events_fired)
    ran;
  out "\n    ]},\n";
  out "  \"experiments\": [";
  List.iteri
    (fun i (o : Registry.outcome) ->
      out "%s\n    {\"id\": \"%s\", \"ok\": %b}"
        (if i = 0 then "" else ",")
        o.exp.id (Result.is_ok o.output))
    outcomes;
  out "\n  ]\n}\n";
  close_out oc;
  Sys.rename tmp file;
  Printf.printf "[bench summary written to %s]\n%!" file

let run_sweep chosen scale jobs json faults =
  (* --jobs beats the core-count default; size the shared pool once,
     before anything submits to it. *)
  Option.iter Parallel.Pool.set_global_jobs jobs;
  let jobs = Parallel.Pool.jobs (Parallel.Pool.global ()) in
  let chosen = match chosen with [] -> Registry.all | chosen -> chosen in
  Printf.printf
    "VSwapper (ASPLOS'14) reproduction bench - scale %.2f, %d experiments, \
     %d jobs\n\n\
     %!"
    scale (List.length chosen) jobs;
  let outcomes = Registry.run_all ~scale ~faults chosen in
  List.iter
    (fun (o : Registry.outcome) ->
      match o.output with
      | Ok out -> Printf.printf "%s\n\n%!" out
      | Error exn ->
          Printf.printf "[%s FAILED: %s]\n\n%!" o.exp.id
            (Printexc.to_string exn))
    outcomes;
  let s = sweep_stats outcomes in
  if s.disk_read_batches > 0 then
    Printf.printf
      "[disk queue: %d media reads served in %d batches (%d coalesced away), \
       mean span %.1f sectors]\n\n\
       %!"
      s.disk_batched_reads s.disk_read_batches
      (s.disk_batched_reads - s.disk_read_batches)
      (float_of_int s.disk_batch_sectors /. float_of_int s.disk_read_batches);
  Option.iter (fun file -> write_json ~file ~scale ~jobs outcomes) json;
  if
    List.exists (fun (o : Registry.outcome) -> Result.is_error o.output)
      outcomes
  then exit 1

(* [checked conv ok what] parses with [conv] and admits only the values
   [ok] accepts: anything else is a command-line error naming the flag,
   not a run at some fallback value. *)
let checked conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when ok x -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let run_cmd =
  let doc =
    "Run the given experiments (every experiment when no id is given) and \
     print their results in the order given."
  in
  let ids_arg =
    let exps = List.map (fun (e : Exp.t) -> (e.id, e)) Registry.all in
    Arg.(
      value
      & pos_all (enum exps) []
      & info [] ~docv:"ID" ~doc:"experiment id (see $(b,list))")
  in
  let scale_arg =
    let doc =
      "Scale factor for memory/file sizes and workload lengths; a positive, \
       finite number."
    in
    let scale =
      checked Arg.float
        (fun x -> Float.is_finite x && x > 0.0)
        "a positive, finite number"
    in
    Arg.(value & opt scale 1.0 & info [ "scale" ] ~docv:"S" ~doc)
  in
  let jobs_arg =
    let doc =
      "Width of the domain pool the experiments and their machine runs \
       share (default: cores - 1); 1 runs everything inline."
    in
    let jobs = checked Arg.int (fun n -> n >= 1) "a positive integer" in
    Arg.(value & opt (some jobs) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc =
      "Also write a machine-readable summary of the sweep to $(docv): the \
       summed counters, the events each experiment fired and each \
       experiment's ok flag."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let faults_term =
    let seed =
      let doc =
        "Seed of the fault plan of the experiments that inject disk faults \
         (resilience, degradation); the same seed gives the same output at \
         any $(b,--jobs)."
      in
      Arg.(
        value
        & opt int Exp.no_faults.seed
        & info [ "fault-seed" ] ~docv:"N" ~doc)
    in
    let rate =
      let doc =
        "A fault rate in [0, 1] that replaces the fault experiments' built-in \
         rate grid; 0 keeps the grid."
      in
      let rate =
        checked Arg.float (fun r -> r >= 0.0 && r <= 1.0) "a rate in [0, 1]"
      in
      Arg.(
        value
        & opt rate Exp.no_faults.rate
        & info [ "fault-rate" ] ~docv:"R" ~doc)
    in
    Term.(const (fun seed rate -> { Exp.seed; rate }) $ seed $ rate)
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"when an experiment failed." :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "run" ~doc ~exits)
    Term.(
      const run_sweep $ ids_arg $ scale_arg $ jobs_arg $ json_arg $ faults_term)

(* ------------------------------------------------------------------ *)
(* adhoc                                                               *)
(* ------------------------------------------------------------------ *)

let adhoc_cmd =
  let doc =
    "Run one guest on the paper's testbed (Section 5) and dump all counters."
  in
  let workload_arg =
    let wconv =
      Arg.enum
        [ ("sysbench", `Sysbench); ("memhog", `Memhog); ("pbzip", `Pbzip);
          ("kernbench", `Kernbench); ("eclipse", `Eclipse); ("metis", `Metis) ]
    in
    Arg.(value & opt wconv `Sysbench & info [ "workload" ] ~docv:"W" ~doc:"workload")
  in
  let mb = checked Arg.int (fun n -> n >= 1) "a positive size in MB" in
  let mem_arg =
    Arg.(value & opt mb 512 & info [ "mem" ] ~docv:"MB" ~doc:"guest memory")
  in
  let limit_arg =
    Arg.(value & opt mb 100 & info [ "limit" ] ~docv:"MB" ~doc:"resident cap")
  in
  let config_arg =
    let kinds = List.map (fun k -> (Exp.config_name k, k)) Exp.all_configs in
    Arg.(
      value
      & opt (enum kinds) Exp.Vswapper_full
      & info [ "config" ] ~docv:"C" ~doc:"configuration")
  in
  let run workload mem limit kind =
    let w =
      match workload with
      | `Sysbench -> Workloads.Sysbench.workload ~iterations:2 ~file_mb:(mem * 2 / 5) ()
      | `Memhog -> Workloads.Memhog.workload ~read_first_mb:(mem / 4) ~mb:(mem / 4) ()
      | `Pbzip -> Workloads.Pbzip.workload ~input_mb:(mem / 3) ()
      | `Kernbench -> Workloads.Kernbench.workload ~units:300 ~tree_mb:(mem / 2) ()
      | `Eclipse -> Workloads.Eclipse.workload ~heap_mb:(mem / 3) ()
      | `Metis -> Workloads.Metis.workload ~input_mb:(mem / 4) ~table_mb:(mem / 3) ()
    in
    let guest =
      {
        (Vmm.Config.default_guest ~workload:w) with
        mem_mb = mem;
        data_mb = mem * 2;
      }
    in
    let machine = Vmm.Machine.build (Exp.testbed kind ~limit_mb:limit guest) in
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
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; adhoc_cmd ]))
