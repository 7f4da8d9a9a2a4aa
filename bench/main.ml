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

   `--json [FILE]` additionally writes a machine-readable summary
   (per-experiment wall-clock with a history of the last runs, estimated
   speedup vs serial, pool scheduling counters, micro ns/run) to FILE,
   default `BENCH_<yyyy-mm-dd>.json`, so future changes have a perf
   trajectory to compare against. *)

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
  mutable experiments : (string * float * bool * float) list;
      (* id, wall_s, ok, alloc_words *)
  mutable total_wall_s : float;
  mutable micros : (string * float) list;  (* name, ns/run *)
  jobs : int;
}

(* How many past runs each experiment's wall-clock history keeps. *)
let history_depth = 5

(* [parse_history line] extracts the floats of a `"history": [..]`
   field, if the line has one. *)
let parse_history line =
  let key = "\"history\": [" in
  match
    (* Find the key by scanning; String.index-based search, no regex. *)
    let kl = String.length key and ll = String.length line in
    let rec find i =
      if i + kl > ll then None
      else if String.sub line i kl = key then Some (i + kl)
      else find (i + 1)
    in
    find 0
  with
  | None -> []
  | Some start -> (
      match String.index_from_opt line start ']' with
      | None -> []
      | Some stop ->
          String.sub line start (stop - start)
          |> String.split_on_char ','
          |> List.filter_map (fun s -> float_of_string_opt (String.trim s)))

(* Per-experiment wall-clocks (and their recorded history) of an earlier
   summary, for delta lines and history roll-forward.  Parses only the
   writer's own "id"/"wall_s" record format. *)
let prev_walls file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let acc = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         try
           Scanf.sscanf line "{\"id\": %S, \"wall_s\": %f" (fun id w ->
               acc := (id, (w, parse_history line)) :: !acc)
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !acc
  end

(* Most recent BENCH_*.json other than [excluding]; dates sort
   lexicographically. *)
let latest_bench_file ~excluding =
  Sys.readdir "." |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 6
         && String.sub f 0 6 = "BENCH_"
         && Filename.check_suffix f ".json"
         && f <> Filename.basename excluding)
  |> List.sort compare |> List.rev
  |> function
  | [] -> None
  | f :: _ -> Some f

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
  (* Read the comparison baseline from the real file, then write to a
     temp file and rename over it: a crash mid-write never leaves a
     truncated summary behind. *)
  let prev =
    if Sys.file_exists file then prev_walls file
    else
      match latest_bench_file ~excluding:file with
      | Some f -> prev_walls f
      | None -> []
  in
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"date\": \"%s\",\n" (today ());
  out "  \"scale\": %g,\n" scale;
  out "  \"jobs\": %d,\n" r.jobs;
  let serial_s =
    List.fold_left (fun acc (_, s, _, _) -> acc +. s) 0.0 r.experiments
  in
  out "  \"total_wall_s\": %.3f,\n" r.total_wall_s;
  out "  \"serial_equivalent_s\": %.3f,\n" serial_s;
  out "  \"speedup_vs_serial\": %.3f,\n"
    (if r.total_wall_s > 0.0 then serial_s /. r.total_wall_s else 1.0);
  let d = Experiments.Exp.disk_totals () in
  out
    "  \"disk\": {\"read_batches\": %d, \"batched_reads\": %d, \
     \"coalesced_reads\": %d, \"mean_batch_sectors\": %.1f},\n"
    d.Experiments.Exp.batches d.Experiments.Exp.reads
    (d.Experiments.Exp.reads - d.Experiments.Exp.batches)
    (if d.Experiments.Exp.batches > 0 then
       float_of_int d.Experiments.Exp.batch_sectors
       /. float_of_int d.Experiments.Exp.batches
     else 0.0);
  let f = Experiments.Exp.fault_totals () in
  out
    "  \"faults\": {\"injected\": %d, \"retried\": %d, \"degraded\": %d, \
     \"killed\": %d, \"destage_lost\": %d, \"destage_retried\": %d},\n"
    f.Experiments.Exp.injected f.Experiments.Exp.retried
    f.Experiments.Exp.degraded f.Experiments.Exp.killed
    f.Experiments.Exp.destage_lost f.Experiments.Exp.destage_retried;
  let a = Experiments.Exp.async_totals () in
  out
    "  \"async\": {\"waiter_merges\": %d, \"faults_deferred\": %d, \
     \"inflight_highwater\": %d},\n"
    a.Experiments.Exp.waiter_merges a.Experiments.Exp.deferred
    a.Experiments.Exp.inflight_highwater;
  out
    "  \"queues\": {\"mq_batches\": %d, \"depth_highwater\": %d},\n"
    a.Experiments.Exp.mq_batches a.Experiments.Exp.queue_depth_highwater;
  let tt = Experiments.Exp.tier_totals () in
  out
    "  \"tiers\": {\"admissions\": %d, \"rejects\": %d, \"promotions\": %d, \
     \"demotions\": %d, \"writeback_sectors\": %d, \"fast_swapins\": %d, \
     \"slow_swapins\": %d, \"fast_swapin_us\": %d, \"slow_swapin_us\": %d},\n"
    tt.Experiments.Exp.admissions tt.Experiments.Exp.rejects
    tt.Experiments.Exp.promotions tt.Experiments.Exp.demotions
    tt.Experiments.Exp.writeback_sectors tt.Experiments.Exp.fast_swapins
    tt.Experiments.Exp.slow_swapins tt.Experiments.Exp.fast_swapin_us
    tt.Experiments.Exp.slow_swapin_us;
  let r2 = Experiments.Exp.resilience2_totals () in
  out
    "  \"resilience2\": {\"scrub_scans\": %d, \"scrub_verify_reads\": %d, \
     \"scrub_media_found\": %d, \"scrub_relocations\": %d, \
     \"scrub_reloc_failed\": %d, \"qos_throttled\": %d, \
     \"qos_throttle_wait_us\": %d, \"tier_degraded\": %d, \
     \"tier_recovered\": %d, \"tier_failover_routes\": %d, \
     \"media_reads\": %d, \"pages_lost\": %d},\n"
    r2.Experiments.Exp.scrub_scans r2.Experiments.Exp.scrub_verify_reads
    r2.Experiments.Exp.scrub_media_found r2.Experiments.Exp.scrub_relocations
    r2.Experiments.Exp.scrub_reloc_failed r2.Experiments.Exp.qos_throttled
    r2.Experiments.Exp.qos_throttle_wait_us
    r2.Experiments.Exp.tier_degraded_events
    r2.Experiments.Exp.tier_recovered_events
    r2.Experiments.Exp.tier_failover_routes r2.Experiments.Exp.media_reads
    r2.Experiments.Exp.pages_lost;
  (* Engine section: lifetime totals of the event engine's hot path, a
     schedule+cancel churn microbench (so every summary records the
     engine's throughput on this machine), and fired events per
     experiment normalized by its wall-clock. *)
  let et = Experiments.Exp.engine_totals () in
  out
    "  \"engine\": {\"events_fired\": %d, \"cancels_reclaimed\": %d, \
     \"cascades\": %d, \"churn_events_per_sec\": %.0f,\n"
    et.Experiments.Exp.fired et.Experiments.Exp.cancels_reclaimed
    et.Experiments.Exp.cascades (churn_events_per_sec ());
  let per_exp = Experiments.Exp.exp_engine_events () in
  out "    \"per_experiment\": [";
  List.iteri
    (fun i (id, events) ->
      let wall =
        match
          List.find_opt (fun (id', _, _, _) -> id' = id) r.experiments
        with
        | Some (_, w, _, _) -> w
        | None -> 0.0
      in
      out "%s\n      {\"id\": \"%s\", \"events\": %d, \"events_per_sec\": %.0f}"
        (if i = 0 then "" else ",")
        (json_escape id) events
        (if wall > 0.0 then float_of_int events /. wall else 0.0))
    per_exp;
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
    (fun i (id, wall_s, ok, alloc_words) ->
      (* [history] rolls the previous file's wall_s (plus its own
         history) forward, newest first, capped at [history_depth] past
         runs; [delta_s] stays the one-step comparison. *)
      let delta, history =
        match List.assoc_opt id prev with
        | Some (w, past) ->
            let rec cap n = function
              | x :: r when n > 0 -> x :: cap (n - 1) r
              | _ -> []
            in
            (* %.3f, not %+.3f: a leading '+' on a positive delta is not
               valid JSON and strict parsers reject the whole file. *)
            ( Printf.sprintf ", \"delta_s\": %.3f" (wall_s -. w),
              cap history_depth (w :: past) )
        | None -> ("", [])
      in
      let history =
        match history with
        | [] -> ""
        | hs ->
            Printf.sprintf ", \"history\": [%s]"
              (String.concat ", "
                 (List.map (Printf.sprintf "%.3f") hs))
      in
      (* alloc_mwords: millions of words the experiment allocated on
         its domain; alloc_mwords_per_s is the rate, the number the
         fault-path allocation work moves. *)
      out
        "%s\n    {\"id\": \"%s\", \"wall_s\": %.3f%s%s, \"alloc_mwords\": \
         %.1f, \"alloc_mwords_per_s\": %.1f, \"ok\": %b}"
        (if i = 0 then "" else ",")
        (json_escape id) wall_s delta history (alloc_words /. 1e6)
        (if wall_s > 0.0 then alloc_words /. 1e6 /. wall_s else 0.0)
        ok)
    r.experiments;
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
  List.iter
    (fun (o : Experiments.Registry.outcome) ->
      let id = o.exp.Experiments.Exp.id in
      (match o.output with
      | Ok out ->
          print_endline out;
          Printf.printf "[%s completed in %.1fs wall]\n\n%!" id o.wall_s
      | Error exn ->
          Printf.printf "[%s FAILED after %.1fs: %s]\n\n%!" id o.wall_s
            (Printexc.to_string exn));
      record.experiments <-
        record.experiments
        @ [
            ( id,
              o.wall_s,
              (match o.output with Ok _ -> true | Error _ -> false),
              o.Experiments.Registry.alloc_words );
          ])
    outcomes;
  let d = Experiments.Exp.disk_totals () in
  if d.Experiments.Exp.batches > 0 then
    Printf.printf
      "[disk queue: %d media reads served in %d batches (%d coalesced away), \
       mean span %.1f sectors]\n\n\
       %!"
      d.Experiments.Exp.reads d.Experiments.Exp.batches
      (d.Experiments.Exp.reads - d.Experiments.Exp.batches)
      (float_of_int d.Experiments.Exp.batch_sectors
      /. float_of_int d.Experiments.Exp.batches)

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
      experiments = [];
      total_wall_s = 0.0;
      micros = [];
      jobs = Parallel.Pool.jobs (Parallel.Pool.global ());
    }
  in
  if !micro then run_micro ~record () else run_experiments ~record ~scale !ids;
  match !json with
  | Some file -> write_json ~file ~scale record
  | None -> ()
