(* Benchmark harness.

   Default mode regenerates every table and figure of the paper's
   evaluation section, printing the same rows/series the paper reports
   (paper values alongside, for shape comparison).  Experiments fan out
   across a domain pool; outputs are buffered and printed in registry
   order, so the sweep reads identically at any parallelism:

     dune exec bench/main.exe                   # full scale, all cores
     dune exec bench/main.exe -- --jobs 1       # serial reference
     VSWAPPER_BENCH_SCALE=0.25 dune exec bench/main.exe
     dune exec bench/main.exe -- fig9 fig10     # a subset

   VSWAPPER_BENCH_SCALE must be a positive number; anything else exits
   with status 2.  It is read here, in the bench driver, and passed to
   the experiments as [~scale] — the libraries read no environment.

   `--micro` instead runs Bechamel microbenchmarks of the simulator's
   hot paths — one Test.make per experiment (a small-scale end-to-end
   run) plus the core data-structure operations — and prints their
   measured costs.

   `--jobs N` sets the pool width (default: cores - 1);
   `--jobs 1` forces the serial inline path.  Both the experiment fan-out
   and the intra-experiment shards (fig3/fig4/fig5/fig11/fig14/abl) run
   on the same shared pool — its `map` is re-entrant, so the nesting is
   safe at any width.

   `--fault-seed N` / `--fault-rate R` parameterize the `resilience`
   experiment's deterministic disk-fault injection: the seed fixes the
   fault plan, and a non-zero rate replaces the built-in rate grid with
   [0; R].  The same seed produces byte-identical sweep output at any
   `--jobs` width.

   `--json [FILE]` additionally writes a machine-readable summary of
   this run to FILE, default `BENCH_<yyyy-mm-dd>.json`: per-experiment
   wall-clock and allocation, estimated speedup vs serial, the counter
   sections summed over every experiment's tally, pool scheduling
   counters and micro ns/run.  It compares against nothing; the
   committed perf record is benchmark/ledger/. *)

let scale () =
  match Sys.getenv_opt "VSWAPPER_BENCH_SCALE" with
  | None -> 1.0
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some v when v > 0.0 && Float.is_finite v -> v
      | Some _ | None ->
          Printf.eprintf
            "VSWAPPER_BENCH_SCALE expects a positive number, got %S\n" s;
          exit 2)

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

type bench_record = {
  mutable outcomes : Experiments.Registry.outcome list;
  mutable total_wall_s : float;
  mutable micros : (string * float) list;  (* name, ns/run *)
  jobs : int;
}

(* The sweep's counters: every outcome's tally, merged with [Stats.add]
   (sums, and the max of the two highwaters). *)
let sweep_stats outcomes =
  let sum = Metrics.Stats.create () in
  List.iter
    (fun (o : Experiments.Registry.outcome) -> Metrics.Stats.add sum o.stats)
    outcomes;
  sum

let mean_batch_sectors (s : Metrics.Stats.t) =
  if s.disk_read_batches > 0 then
    float_of_int s.disk_batch_sectors /. float_of_int s.disk_read_batches
  else 0.0

(* The summary's counter sections as (key, value) rows, the values
   already rendered as JSON numbers. *)
let counter_sections (s : Metrics.Stats.t) =
  let d = string_of_int in
  [
    ( "disk",
      [
        ("read_batches", d s.disk_read_batches);
        ("batched_reads", d s.disk_batched_reads);
        ("coalesced_reads", d (s.disk_batched_reads - s.disk_read_batches));
        ("mean_batch_sectors", Printf.sprintf "%.1f" (mean_batch_sectors s));
      ] );
    ( "faults",
      [
        ("injected", d (s.faults_injected_media + s.faults_injected_transient));
        ("retried", d s.fault_retries);
        ("degraded", d s.faults_degraded_batches);
        ("killed", d s.fault_guest_kills);
        ("destage_lost", d s.destage_media_errors);
        ("destage_retried", d s.destage_transient_retries);
      ] );
    ( "async",
      [
        ("waiter_merges", d s.async_waiter_merges);
        ("faults_deferred", d s.async_faults_deferred);
        ("inflight_highwater", d s.async_inflight_highwater);
      ] );
    ( "queues",
      [
        ("mq_batches", d s.disk_mq_batches);
        ("depth_highwater", d s.disk_queue_depth_highwater);
      ] );
    ( "tiers",
      [
        ("admissions", d s.tier_admissions);
        ("rejects", d s.tier_rejects);
        ("promotions", d s.tier_promotions);
        ("demotions", d s.tier_demotions);
        ("writeback_sectors", d s.tier_writeback_sectors);
        ("fast_swapins", d s.tier_fast_swapins);
        ("slow_swapins", d s.tier_slow_swapins);
        ("fast_swapin_us", d s.tier_fast_swapin_us);
        ("slow_swapin_us", d s.tier_slow_swapin_us);
      ] );
    ( "resilience2",
      [
        ("scrub_scans", d s.scrub_scans);
        ("scrub_verify_reads", d s.scrub_verify_reads);
        ("scrub_media_found", d s.scrub_media_found);
        ("scrub_relocations", d s.scrub_relocations);
        ("scrub_reloc_failed", d s.scrub_reloc_failed);
        ("qos_throttled", d s.qos_throttled);
        ("qos_throttle_wait_us", d s.qos_throttle_wait_us);
        ("tier_degraded", d s.tier_degraded_events);
        ("tier_recovered", d s.tier_recovered_events);
        ("tier_failover_routes", d s.tier_failover_routes);
        ("media_reads", d s.fault_media_reads);
        ("pages_lost", d s.fault_pages_lost);
      ] );
  ]

let json_rows rows =
  List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) rows
  |> String.concat ", "

(* Timed schedule/cancel churn on the engine: a rolling window
   of cancellable timers (each slot's previous timer is cancelled when
   the slot is refilled, as the disk idle-flush and VCPU timeslices do),
   with periodic steps so the queue drains concurrently.  Deterministic
   op sequence; only the wall-clock varies.  Returns events per second
   (schedules + cancels + fires over elapsed time). *)
let churn_events_per_sec () =
  let e = Sim.Engine.create () in
  let n = 200_000 in
  let handles = Array.make 64 Sim.Engine.null in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let slot = i land 63 in
    Sim.Engine.cancel e handles.(slot);
    handles.(slot) <-
      Sim.Engine.schedule_after e
        (Sim.Time.us (1 + ((i * 7) land 1023)))
        (fun () -> ());
    if i land 15 = 0 then ignore (Sim.Engine.step e)
  done;
  Sim.Engine.run e;
  let dt = Unix.gettimeofday () -. t0 in
  let tel = Sim.Engine.telemetry e in
  let ops = n + tel.Sim.Engine.cancels_reclaimed + tel.Sim.Engine.events_fired in
  if dt > 0.0 then float_of_int ops /. dt else 0.0

let write_json ~file ~scale r =
  (* Write to a temp file and rename over it: a crash mid-write never
     leaves a truncated summary behind. *)
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"date\": \"%s\",\n" (today ());
  out "  \"scale\": %g,\n" scale;
  out "  \"jobs\": %d,\n" r.jobs;
  let serial_s =
    List.fold_left
      (fun acc (o : Experiments.Registry.outcome) -> acc +. o.wall_s)
      0.0 r.outcomes
  in
  out "  \"total_wall_s\": %.3f,\n" r.total_wall_s;
  out "  \"serial_equivalent_s\": %.3f,\n" serial_s;
  out "  \"speedup_vs_serial\": %.3f,\n"
    (if r.total_wall_s > 0.0 then serial_s /. r.total_wall_s else 1.0);
  let sum = sweep_stats r.outcomes in
  List.iter
    (fun (name, rows) -> out "  \"%s\": {%s},\n" name (json_rows rows))
    (counter_sections sum);
  (* Engine section: the event engine's hot-path counters, a
     schedule+cancel churn microbench (so every summary records the
     engine's throughput on this machine), and fired events per
     experiment normalized by its wall-clock. *)
  out "  \"engine\": {%s,\n"
    (json_rows
       [
         ("events_fired", string_of_int sum.engine_events_fired);
         ("cancels_reclaimed", string_of_int sum.engine_cancels_reclaimed);
         ("cascades", string_of_int sum.engine_cascades);
         ( "churn_events_per_sec",
           Printf.sprintf "%.0f" (churn_events_per_sec ()) );
       ]);
  let ran =
    List.filter
      (fun (o : Experiments.Registry.outcome) ->
        o.stats.engine_events_fired > 0)
      r.outcomes
    |> List.stable_sort (fun (a : Experiments.Registry.outcome) b ->
           compare a.exp.id b.exp.id)
  in
  out "    \"per_experiment\": [";
  List.iteri
    (fun i (o : Experiments.Registry.outcome) ->
      let events = o.stats.engine_events_fired in
      out "%s\n      {\"id\": \"%s\", \"events\": %d, \"events_per_sec\": %.0f}"
        (if i = 0 then "" else ",")
        (json_escape o.exp.id) events
        (if o.wall_s > 0.0 then float_of_int events /. o.wall_s else 0.0))
    ran;
  out "\n    ]},\n";
  (* Memory section: the writing domain's GC counters (worker-domain
     allocation shows up per experiment below, not here) and the live /
     peak heap after a full major — the footprint the flat metadata
     plane is meant to keep down. *)
  let gq = Gc.quick_stat () in
  Gc.full_major ();
  let gs = Gc.stat () in
  out
    "  \"memory\": {\"minor_words\": %.0f, \"major_words\": %.0f, \
     \"promoted_words\": %.0f, \"top_heap_words\": %d, \"live_words\": %d},\n"
    gq.Gc.minor_words gq.Gc.major_words gq.Gc.promoted_words
    gs.Gc.top_heap_words gs.Gc.live_words;
  (* Fleet section: present only when the fleet experiment ran; the
     wall-clocks and speedups inside are this machine's, the counters
     are deterministic. *)
  (match Experiments.Exp.fleet_totals () with
  | None -> ()
  | Some ft ->
      out
        "  \"fleet\": {\"hosts\": %d, \"guests\": %d, \"rejected\": %d, \
         \"pages\": %d, \"epochs\": %d, \"migrations\": %d, \
         \"migrations_aborted\": %d, \"throttled_batches\": %d, \
         \"oom_kills\": %d, \"heap_words_per_page\": %.1f,\n"
        ft.Experiments.Exp.fleet_hosts ft.Experiments.Exp.fleet_guests
        ft.Experiments.Exp.fleet_rejected ft.Experiments.Exp.fleet_pages
        ft.Experiments.Exp.fleet_epochs ft.Experiments.Exp.fleet_migrations
        ft.Experiments.Exp.fleet_migrations_aborted
        ft.Experiments.Exp.fleet_throttled_batches
        ft.Experiments.Exp.fleet_oom_kills
        ft.Experiments.Exp.fleet_heap_words_per_page;
      out "    \"per_jobs\": [";
      List.iteri
        (fun i p ->
          out
            "%s\n      {\"jobs\": %d, \"wall_s\": %.3f, \
             \"guest_seconds_per_s\": %.0f, \"speedup\": %.2f}"
            (if i = 0 then "" else ",")
            p.Experiments.Exp.fj_jobs p.Experiments.Exp.fj_wall_s
            p.Experiments.Exp.fj_guest_seconds_per_s
            p.Experiments.Exp.fj_speedup)
        ft.Experiments.Exp.fleet_per_jobs;
      out "\n    ]},\n");
  let ps = Parallel.Pool.stats (Parallel.Pool.global ()) in
  out
    "  \"parallel\": {\"jobs\": %d, \"worker_jobs\": %d, \"helper_jobs\": \
     %d, \"peak_queue_depth\": %d},\n"
    ps.Parallel.Pool.jobs ps.Parallel.Pool.worker_jobs
    ps.Parallel.Pool.helper_jobs ps.Parallel.Pool.peak_queue_depth;
  out "  \"experiments\": [";
  List.iteri
    (fun i (o : Experiments.Registry.outcome) ->
      (* alloc_mwords: millions of words the experiment allocated on
         its domain; alloc_mwords_per_s is the rate, the number the
         fault-path allocation work moves. *)
      let mwords = o.alloc_words /. 1e6 in
      out
        "%s\n    {\"id\": \"%s\", \"wall_s\": %.3f, \"alloc_mwords\": %.1f, \
         \"alloc_mwords_per_s\": %.1f, \"ok\": %b}"
        (if i = 0 then "" else ",")
        (json_escape o.exp.id) o.wall_s mwords
        (if o.wall_s > 0.0 then mwords /. o.wall_s else 0.0)
        (Result.is_ok o.output))
    r.outcomes;
  out "\n  ],\n";
  out "  \"micros\": [";
  List.iteri
    (fun i (name, ns) ->
      out "%s\n    {\"name\": \"%s\", \"ns_per_run\": %.1f}"
        (if i = 0 then "" else ",")
        (json_escape name) ns)
    r.micros;
  out "\n  ]\n}\n";
  close_out oc;
  Sys.rename tmp file;
  Printf.printf "[bench summary written to %s]\n%!" file

(* ------------------------------------------------------------------ *)
(* Experiment reproduction mode                                        *)
(* ------------------------------------------------------------------ *)

let run_experiments ~record ~scale ids =
  let chosen =
    match ids with
    | [] -> Experiments.Registry.all
    | ids ->
        List.filter_map
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> Some e
            | None ->
                Printf.eprintf "unknown experiment %S (try: %s)\n" id
                  (String.concat " " (Experiments.Registry.ids ()));
                None)
          ids
  in
  Printf.printf
    "VSwapper (ASPLOS'14) reproduction bench - scale %.2f, %d experiments, \
     %d jobs\n\n\
     %!"
    scale (List.length chosen) record.jobs;
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Experiments.Registry.run_all ~jobs:record.jobs ~scale chosen
  in
  record.total_wall_s <- Unix.gettimeofday () -. t0;
  record.outcomes <- outcomes;
  List.iter
    (fun (o : Experiments.Registry.outcome) ->
      match o.output with
      | Ok out ->
          print_endline out;
          Printf.printf "[%s completed in %.1fs wall]\n\n%!" o.exp.id o.wall_s
      | Error exn ->
          Printf.printf "[%s FAILED after %.1fs: %s]\n\n%!" o.exp.id o.wall_s
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
      (mean_batch_sectors s)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmark mode                                        *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let engine_bench =
  Test.make ~name:"sim: schedule+fire 1000 events"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create () in
         for i = 1 to 1000 do
           Sim.Engine.run_at e (Sim.Time.us i) (fun () -> ())
         done;
         Sim.Engine.run e))

(* Schedule+cancel churn — the pattern the disk idle-flush, Preventer
   expiries, and VCPU timeslices hammer: most timers are cancelled and
   rearmed before they fire. *)
let engine_churn_bench =
  Test.make ~name:"sim: engine schedule+cancel churn 1000"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create () in
         let handles = Array.make 32 Sim.Engine.null in
         for i = 0 to 999 do
           let slot = i land 31 in
           Sim.Engine.cancel e handles.(slot);
           handles.(slot) <-
             Sim.Engine.schedule_after e
               (Sim.Time.us (1 + ((i * 7) land 255)))
               (fun () -> ());
           if i land 7 = 0 then ignore (Sim.Engine.step e)
         done;
         Sim.Engine.run e))

let mapper_bench =
  Test.make ~name:"core: mapper track/untrack 1000"
    (Staged.stage (fun () ->
         let m = Vswapper.Mapper.create ~stats:(Metrics.Stats.create ()) () in
         for gpa = 0 to 999 do
           Vswapper.Mapper.track m ~gpa ~disk:0 ~block:gpa ~version:0
         done;
         for gpa = 0 to 999 do
           Vswapper.Mapper.untrack m ~gpa
         done))

let preventer_bench =
  Test.make ~name:"core: preventer 8-store page completion"
    (Staged.stage (fun () ->
         let p =
           Vswapper.Preventer.create ~stats:(Metrics.Stats.create ())
             ~window:(Sim.Time.ms 1) ~max_buffers:32
         in
         for gpa = 0 to 31 do
           for j = 0 to 7 do
             ignore
               (Vswapper.Preventer.on_write p ~now:0 ~gpa ~offset:(j * 512)
                  ~len:512)
           done
         done))

(* The flat int table against the boxed stdlib table it replaced on the
   fault path, same key set and op mix, so the summary records the
   per-op win on this machine. *)
let itbl_bench =
  Test.make ~name:"mem: itbl set/find/remove 1000"
    (Staged.stage (fun () ->
         let t = Mem.Itbl.create () in
         for i = 0 to 999 do
           Mem.Itbl.set t (i * 7919) i
         done;
         let acc = ref 0 in
         for i = 0 to 999 do
           acc := !acc + Mem.Itbl.find t (i * 7919) ~default:0
         done;
         for i = 0 to 999 do
           Mem.Itbl.remove t (i * 7919)
         done;
         ignore (Sys.opaque_identity !acc)))

let hashtbl_ref_bench =
  Test.make ~name:"mem: hashtbl set/find/remove 1000 (boxed reference)"
    (Staged.stage (fun () ->
         let t : (int, int) Hashtbl.t = Hashtbl.create 16 in
         for i = 0 to 999 do
           Hashtbl.replace t (i * 7919) i
         done;
         let acc = ref 0 in
         for i = 0 to 999 do
           acc :=
             !acc + (match Hashtbl.find_opt t (i * 7919) with
                    | Some v -> v
                    | None -> 0)
         done;
         for i = 0 to 999 do
           Hashtbl.remove t (i * 7919)
         done;
         ignore (Sys.opaque_identity !acc)))

(* End-to-end fault-path churn on a small host: populate 512 guest pages
   through a 96-frame resident limit (every write past it evicts through
   the cgroup scan into host swap), then read them all back (major
   faults with cluster readahead through the in-flight registry).  The
   path this PR flattened — EPT dispatch, frame metadata, LRU moves,
   slot-owner/in-flight table ops — all in one loop. *)
let fault_path_bench =
  Test.make ~name:"host: fault-path churn 512 pages write/evict/swap-in"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let stats = Metrics.Stats.create () in
         let disk =
           Storage.Disk.create ~engine ~stats Storage.Disk.default_config
         in
         let vdisk =
           Storage.Vdisk.create ~id:0 ~base_sector:10_000 ~nblocks:1024
         in
         let swap =
           Storage.Swap_area.create ~base_sector:1_000_000 ~nslots:4096
         in
         let config =
           {
             Host.Hconfig.default with
             total_frames = 256;
             low_watermark_frames = 8;
             high_watermark_frames = 16;
             hv_pages_per_guest = 4;
           }
         in
         let host =
           Host.Hostmm.create ~engine ~disk ~stats
             ~config ~vsconfig:Vswapper.Vsconfig.baseline ~swap
             ~hv_base_sector:0 ()
         in
         let gid =
           Host.Hostmm.register_guest host ~vdisk ~gpa_pages:512
             ~resident_limit:(Some 96)
         in
         for gpa = 0 to 511 do
           Host.Hostmm.rep_write host ~guest:gid ~gpa
             ~content:(Storage.Content.fresh_anon ()) (fun () -> ())
         done;
         Sim.Engine.run engine;
         for gpa = 0 to 511 do
           Host.Hostmm.touch_read host ~guest:gid ~gpa (fun _ -> ())
         done;
         Sim.Engine.run engine))

let swap_alloc_bench =
  Test.make ~name:"storage: swap alloc/free 1000"
    (Staged.stage (fun () ->
         let sa = Storage.Swap_area.create ~base_sector:0 ~nslots:2048 in
         let slots =
           List.init 1000 (fun i ->
               Option.get (Storage.Swap_area.alloc sa (Storage.Content.Anon i)))
         in
         List.iter (Storage.Swap_area.free sa) slots))

(* One end-to-end Test.make per paper table/figure, at a tiny scale so
   Bechamel can iterate them. *)
let experiment_bench (e : Experiments.Exp.t) =
  Test.make ~name:("experiment: " ^ e.Experiments.Exp.id)
    (Staged.stage (fun () -> ignore (e.Experiments.Exp.run ~scale:0.06)))

let run_micro ~record () =
  let tests =
    [
      engine_bench; engine_churn_bench; mapper_bench; preventer_bench;
      itbl_bench; hashtbl_ref_bench; fault_path_bench;
      swap_alloc_bench;
    ]
    @ List.map experiment_bench
        (List.filter
           (fun e ->
             (* The multi-guest sweeps are too heavy to iterate. *)
             not
               (List.mem e.Experiments.Exp.id
                  [ "fig4"; "fig14"; "memscale"; "degradation"; "fleet" ]))
           Experiments.Registry.all)
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"micro" [ test ])
      in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ v ] ->
              record.micros <- record.micros @ [ (name, v) ];
              Printf.printf "%-52s %14.1f ns/run\n%!" name v
          | Some _ | None -> Printf.printf "%-52s (no estimate)\n%!" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let micro = ref false in
  let json = ref None in
  let jobs_flag = ref None in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "--micro" :: rest ->
        micro := true;
        parse rest
    | "--jobs" :: value :: rest -> (
        match int_of_string_opt value with
        | Some n when n >= 1 ->
            jobs_flag := Some n;
            parse rest
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" value;
            exit 2)
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs expects a positive integer\n";
        exit 2
    | "--fault-seed" :: value :: rest -> (
        match int_of_string_opt value with
        | Some n ->
            Experiments.Exp.set_fault_knobs ~seed:n ();
            parse rest
        | None ->
            Printf.eprintf "--fault-seed expects an integer, got %S\n" value;
            exit 2)
    | [ "--fault-seed" ] ->
        Printf.eprintf "--fault-seed expects an integer\n";
        exit 2
    | "--fault-rate" :: value :: rest -> (
        match float_of_string_opt value with
        | Some r when r >= 0.0 ->
            Experiments.Exp.set_fault_knobs ~rate:r ();
            parse rest
        | Some _ | None ->
            Printf.eprintf "--fault-rate expects a non-negative float, got %S\n"
              value;
            exit 2)
    | [ "--fault-rate" ] ->
        Printf.eprintf "--fault-rate expects a non-negative float\n";
        exit 2
    | "--json" :: value :: rest
      when String.length value > 0 && value.[0] <> '-'
           && Experiments.Registry.find value = None ->
        json := Some value;
        parse rest
    | "--json" :: rest ->
        json := Some (Printf.sprintf "BENCH_%s.json" (today ()));
        parse rest
    | id :: rest ->
        ids := !ids @ [ id ];
        parse rest
  in
  parse args;
  let scale = scale () in
  (* --jobs beats the core-count default; size the shared pool once,
     before anything submits to it. *)
  (match !jobs_flag with
  | Some n -> Parallel.Pool.set_global_jobs n
  | None -> ());
  let record =
    {
      outcomes = [];
      total_wall_s = 0.0;
      micros = [];
      jobs = Parallel.Pool.jobs (Parallel.Pool.global ());
    }
  in
  if !micro then run_micro ~record () else run_experiments ~record ~scale !ids;
  match !json with
  | Some file -> write_json ~file ~scale record
  | None -> ()
