(* Reproduction driver.

   Regenerates every table and figure of the paper's evaluation section,
   printing the same rows/series the paper reports (paper values
   alongside, for shape comparison).  Experiments fan out across a
   domain pool; outputs are buffered and printed in registry order, so
   the sweep reads identically at any parallelism:

     dune exec bench/main.exe                   # full scale, all cores
     dune exec bench/main.exe -- --jobs 1       # serial reference
     VSWAPPER_BENCH_SCALE=0.25 dune exec bench/main.exe
     dune exec bench/main.exe -- fig9 fig10     # a subset

   VSWAPPER_BENCH_SCALE must be a positive number and every id must name
   a registry experiment; anything else exits with status 2.  The scale
   is read here, in the driver, and passed to the experiments as
   [~scale] — the libraries read no environment.  An experiment that
   raises prints a FAILED line in its place; the rest of the sweep still
   prints (and --json is still written), then the driver exits 1.

   The driver times nothing.  Host time and allocation are measured by
   the repo benchmark, benchmark/, which has reps, medians, bounds and a
   ledger.

   `--jobs N` sets the pool width (default: cores - 1);
   `--jobs 1` forces the serial inline path.  Both the experiment fan-out
   and the experiments' own machine-run shards (Exp.shard, Exp.grid) run
   on the same shared pool — its `map` is re-entrant, so the nesting is
   safe at any width.

   `--fault-seed N` / `--fault-rate R` parameterize the `resilience`
   experiment's deterministic disk-fault injection: the seed fixes the
   fault plan, and a non-zero rate replaces the built-in rate grid with
   [0; R].  The same seed produces byte-identical sweep output at any
   `--jobs` width.

   `--json [FILE]` additionally writes a machine-readable summary of
   this run to FILE, default `BENCH_<yyyy-mm-dd>.json`: every counter
   of Metrics.Stats summed over every experiment's tally, the events
   each experiment fired, and each experiment's ok flag.
   Every key but "date" and "jobs" is a function of the experiment ids,
   the scale and the fault knobs, so the summaries of one sweep at two
   widths differ in those two lines only. *)

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

(* The sweep's counters: every outcome's tally, merged with [Stats.add]
   (sums, and the max of the two highwaters). *)
let sweep_stats outcomes =
  let sum = Metrics.Stats.create () in
  List.iter
    (fun (o : Experiments.Registry.outcome) -> Metrics.Stats.add sum o.stats)
    outcomes;
  sum

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
      (fun (o : Experiments.Registry.outcome) ->
        o.stats.engine_events_fired > 0)
      outcomes
    |> List.stable_sort (fun (a : Experiments.Registry.outcome) b ->
           compare a.exp.id b.exp.id)
  in
  out "  \"engine\": {\"per_experiment\": [";
  List.iteri
    (fun i (o : Experiments.Registry.outcome) ->
      out "%s\n      {\"id\": \"%s\", \"events\": %d}"
        (if i = 0 then "" else ",")
        (json_escape o.exp.id) o.stats.engine_events_fired)
    ran;
  out "\n    ]},\n";
  out "  \"experiments\": [";
  List.iteri
    (fun i (o : Experiments.Registry.outcome) ->
      out "%s\n    {\"id\": \"%s\", \"ok\": %b}"
        (if i = 0 then "" else ",")
        (json_escape o.exp.id) (Result.is_ok o.output))
    outcomes;
  out "\n  ]\n}\n";
  close_out oc;
  Sys.rename tmp file;
  Printf.printf "[bench summary written to %s]\n%!" file

(* ------------------------------------------------------------------ *)
(* Experiment reproduction                                             *)
(* ------------------------------------------------------------------ *)

let run_experiments ~scale ~jobs chosen =
  Printf.printf
    "VSwapper (ASPLOS'14) reproduction bench - scale %.2f, %d experiments, \
     %d jobs\n\n\
     %!"
    scale (List.length chosen) jobs;
  let outcomes = Experiments.Registry.run_all ~scale chosen in
  List.iter
    (fun (o : Experiments.Registry.outcome) ->
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
  outcomes

(* ------------------------------------------------------------------ *)
(* Argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json = ref None in
  let jobs_flag = ref None in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
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
  let chosen =
    match !ids with
    | [] -> Experiments.Registry.all
    | ids ->
        List.map
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S (try: %s)\n" id
                  (String.concat " " (Experiments.Registry.ids ()));
                exit 2)
          ids
  in
  (* --jobs beats the core-count default; size the shared pool once,
     before anything submits to it. *)
  (match !jobs_flag with
  | Some n -> Parallel.Pool.set_global_jobs n
  | None -> ());
  let jobs = Parallel.Pool.jobs (Parallel.Pool.global ()) in
  let outcomes = run_experiments ~scale ~jobs chosen in
  Option.iter (fun file -> write_json ~file ~scale ~jobs outcomes) !json;
  if
    List.exists
      (fun (o : Experiments.Registry.outcome) -> Result.is_error o.output)
      outcomes
  then exit 1
