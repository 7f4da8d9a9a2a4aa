(* Benchmark runner.

     run.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
       one workload; prints `workload metric value unit` lines, then the
       result as one JSON object on the last line.
     run.exe [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
       every workload in turn (untraced, then traced with --trace 1);
       writes all results to FILE (default benchmark-result.json).
     run.exe --smoke [--json FILE]
       every workload at a tiny size, untraced and traced, one rep each;
       exits 1 unless every fingerprint agrees.

   Each workload runs in a child process of its own (the same
   executable with --child), one at a time, so its peak RSS is its own
   and runtime_events can be pointed at a fresh directory before the
   child's runtime starts. *)

let usage () =
  prerr_endline
    "usage: run.exe [--workload paper|swapstorm|tiered-faulty|fleet] [--seed \
     N] [--seconds S] [--trace 0|1] [--json FILE] [--smoke]";
  exit 2

type args = {
  mutable workload : Suite.name option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable json : string option;
  mutable smoke : bool;
  mutable child : bool;
}

let parse_args () =
  let a =
    {
      workload = None;
      seed = 42;
      seconds = 25.0;
      trace = false;
      json = None;
      smoke = false;
      child = false;
    }
  in
  let int_arg s =
    match int_of_string_opt s with Some v -> v | None -> usage ()
  in
  let rec go = function
    | [] -> ()
    | ("--workload" | "--child") as flag :: w :: rest ->
        (match Suite.of_string w with
        | Some w -> a.workload <- Some w
        | None ->
            Printf.eprintf "unknown workload %S\n" w;
            usage ());
        if flag = "--child" then a.child <- true;
        go rest
    | "--seed" :: n :: rest ->
        a.seed <- int_arg n;
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some v when v >= 0.0 -> a.seconds <- v
        | _ -> usage ());
        go rest
    | "--trace" :: t :: rest ->
        (match t with
        | "0" -> a.trace <- false
        | "1" -> a.trace <- true
        | _ -> usage ());
        go rest
    | "--json" :: f :: rest ->
        a.json <- Some f;
        go rest
    | "--smoke" :: rest ->
        a.smoke <- true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if a.smoke then a.seconds <- 0.0;
  a

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

module J = Metrics.Json

let rec to_json buf = function
  | J.Null -> Buffer.add_string buf "null"
  | J.Bool b -> Buffer.add_string buf (string_of_bool b)
  | J.Number f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else if Float.is_finite f then
        Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null"
  | J.String s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | J.List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_json buf v)
        l;
      Buffer.add_char buf ']'
  | J.Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "%S:" k);
          to_json buf v)
        kvs;
      Buffer.add_char buf '}'

let json_string v =
  let buf = Buffer.create 4096 in
  to_json buf v;
  Buffer.contents buf

let num f = J.Number f
let int i = J.Number (float_of_int i)

(* ------------------------------------------------------------------ *)
(* Child: run and measure one workload                                 *)
(* ------------------------------------------------------------------ *)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

type measured = {
  r : Suite.rep;
  traced : bool;
  jobs : int;
  words : float;
}

(* The fleet's parallel width: two domains, or one on a one-core box —
   never more domains than cores. *)
let fleet_jobs () = min 2 (Domain.recommended_domain_count ())

let child (a : args) w =
  let size = if a.smoke then Suite.Smoke else Suite.Full in
  let jobs = fleet_jobs () in
  (* The rep schedule, cycled until --seconds have passed.  A traced run
     interleaves untraced reps (for the overhead) and, on the fleet,
     single-domain reps (for the speed-up and the jobs-1 = jobs-2
     check). *)
  let schedule =
    match (a.trace, w) with
    | false, _ -> [ (false, jobs) ]
    | true, Suite.Fleet when jobs > 1 ->
        [ (false, jobs); (true, jobs); (true, 1) ]
    | true, _ -> [ (false, jobs); (true, jobs) ]
  in
  (* At least three timed reps for a median; a traced run's cycle
     already holds two or three reps. *)
  let min_cycles = if a.smoke then 1 else if a.trace then 2 else 3 in
  if a.trace then Profile.init ();
  let measure (traced, jobs) =
    Gc.full_major ();
    let w0 = alloc_words () in
    if traced then Profile.on ();
    let r = Suite.rep ~jobs size w ~seed:a.seed in
    if traced then Profile.off ();
    let words = alloc_words () -. w0 in
    { r; traced; jobs; words }
  in
  (* A warm-up rep, checked but not timed: the first rep in a process
     grows the heap to its working size and runs measurably slower. *)
  let warmup = measure (false, jobs) in
  (* Cycles run while the next one, at the mean cycle time so far, still
     ends within --seconds, so a run takes about --seconds, not up to a
     cycle more. *)
  let t0 = Suite.now_ns () in
  let rec loop acc cycles =
    let elapsed = Suite.secs_since t0 in
    if
      cycles >= min_cycles
      && elapsed +. (elapsed /. float_of_int cycles) > a.seconds
    then List.rev acc
    else loop (List.rev_append (List.map measure schedule) acc) (cycles + 1)
  in
  let reps = loop [] 0 in
  let rss = peak_rss_mb () in
  (* Correctness: every rep of one seed simulates the same thing, so all
     fingerprints agree (traced or not, one domain or two), and at seed
     42 they equal the golden value committed with the benchmark. *)
  let golden =
    if size = Suite.Full then
      Golden.lookup ~workload:(Suite.to_string w) ~seed:a.seed
    else None
  in
  let reference =
    match golden with Some g -> g | None -> (List.hd reps).r.fingerprint
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let failed =
    List.length
      (List.filter
         (fun m ->
           let bad = ref false in
           if m.r.fingerprint <> reference then begin
             bad := true;
             problem "fingerprint %016x <> expected %016x (traced=%b jobs=%d)"
               m.r.fingerprint reference m.traced m.jobs
           end;
           if m.r.kills > 0 && not (Suite.kills_allowed w) then begin
             bad := true;
             problem "%d guests killed" m.r.kills
           end;
           if not m.r.invariants_ok then begin
             bad := true;
             problem "fleet invariant violated"
           end;
           !bad)
         (warmup :: reps))
  in
  let untraced = List.filter (fun m -> not m.traced) reps in
  let med f l = median (List.map f l) in
  let metrics =
    if not a.trace then
      [
        ("wall_s", med (fun m -> m.r.wall_s) untraced, "s");
        ("cpu_s", med (fun m -> m.r.cpu_s) untraced, "s");
        ( "guest_s_per_s",
          med (fun m -> m.r.guest_s /. m.r.wall_s) untraced,
          "1/s" );
        ( "ns_per_event",
          med
            (fun m -> m.r.run_s *. 1e9 /. float_of_int (max 1 m.r.events))
            untraced,
          "ns" );
        ("setup_s", med (fun m -> m.r.setup_s) untraced, "s");
        ("peak_rss_mb", rss, "MB");
      ]
    else
      let traced = List.filter (fun m -> m.traced) reps in
      let at_jobs j l = List.filter (fun m -> m.jobs = j) l in
      let p = Profile.summary () in
      let s = (List.hd traced).r.stats in
      let open Metrics.Stats in
      let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      let count c = float_of_int c in
      let fleet = w = Suite.Fleet in
      let tr_wall = med (fun m -> m.r.wall_s) (at_jobs jobs traced) in
      List.map (fun (l, v) -> (l ^ ".self_pct", v, "%")) p.Profile.self_pct
      @ [
          ("sim.events", count s.engine_events_fired, "count");
          ("sim.cascades", count s.engine_cascades, "count");
          ("disk.read_batches", count s.disk_read_batches, "count");
          ( "disk.coalesce_ratio",
            ratio s.disk_batched_reads s.disk_read_batches,
            "ratio" );
          ("disk.sectors_written", count s.disk_sectors_written, "count");
          ("host.swapins", count s.host_swapins, "count");
          ("host.swapouts", count s.host_swapouts, "count");
          ( "host.reclaim_yield",
            ratio (s.host_swapouts + s.mapper_discards) s.pages_scanned,
            "ratio" );
          ("host.waiter_merges", count s.async_waiter_merges, "count");
          ( "host.inflight_highwater",
            count s.async_inflight_highwater,
            "count" );
          ("guest.major_faults", count s.guest_major_faults, "count");
          ("vswapper.stale_reads", count s.stale_reads, "count");
          ("vswapper.false_reads", count s.false_reads, "count");
          ("vswapper.silent_writes", count s.silent_swap_writes, "count");
          ("vswapper.preventer_remaps", count s.preventer_remaps, "count");
          ( "tiers.admit_ratio",
            ratio s.tier_admissions (s.tier_admissions + s.tier_rejects),
            "ratio" );
          ("tiers.promotions", count s.tier_promotions, "count");
          ("tiers.demotions", count s.tier_demotions, "count");
          ("scrub.verify_reads", count s.scrub_verify_reads, "count");
          ("qos.throttled", count s.qos_throttled, "count");
          ("faults.retries", count s.fault_retries, "count");
          ("fleet.migrations", count (List.hd traced).r.migrations, "count");
          ( "fleet.throttled_batches",
            count (List.hd traced).r.throttled_batches,
            "count" );
          ( "pool.speedup_j2",
            (if fleet && jobs > 1 then
               med (fun m -> m.r.wall_s) (at_jobs 1 traced) /. tr_wall
             else 0.0),
            "ratio" );
          ( "pool.helper_jobs",
            (if fleet then
               med (fun m -> float_of_int m.r.helper_jobs) (at_jobs jobs traced)
             else 0.0),
            "count" );
          ( "gc.alloc_words_per_event",
            List.fold_left (fun acc m -> acc +. m.words) 0.0 traced
            /. float_of_int
                 (max 1
                    (List.fold_left (fun acc m -> acc + m.r.events) 0 traced)),
            "words" );
          ( "gc.pause_pct",
            (if p.Profile.span_s > 0.0 then
               100.0 *. p.Profile.gc_s /. p.Profile.span_s
             else 0.0),
            "%" );
          (* Each cycle's traced rep against the untraced rep just
             before it, so drift in the box's speed cancels. *)
          ( "trace.overhead_pct",
            100.0
            *. (median
                  (List.map2
                     (fun u t -> t.r.wall_s /. u.r.wall_s)
                     untraced (at_jobs jobs traced))
               -. 1.0),
            "%" );
          ("trace.unattributed_pct", p.Profile.unattributed_pct, "%");
          ("trace.samples", float_of_int p.Profile.samples, "count");
        ]
  in
  let result =
    J.Obj
      [
        ("workload", J.String (Suite.to_string w));
        ("seed", int a.seed);
        ("trace", J.Bool a.trace);
        ("reps", int (List.length reps));
        ("correct", J.Bool (failed = 0));
        ("attempted", int (List.length reps + 1));
        ("failed", int failed);
        ("fingerprint", J.String (Printf.sprintf "%016x" reference));
        ("problems", J.List (List.rev_map (fun s -> J.String s) !problems));
        ( "metrics",
          J.Obj
            (List.map
               (fun (n, v, u) ->
                 (n, J.Obj [ ("value", num v); ("unit", J.String u) ]))
               metrics) );
        ( "rep_wall_s",
          J.List (List.map (fun m -> num m.r.wall_s) reps) );
      ]
  in
  print_endline (json_string result)

(* ------------------------------------------------------------------ *)
(* Parent: hermetic checks, one child per workload, reporting          *)
(* ------------------------------------------------------------------ *)

(* The library still reads VSWAPPER_* knobs in places the configs cannot
   reach (the engine backend, the global pool width), so a run with one
   set would not measure the committed workloads. *)
let check_environment () =
  Array.iter
    (fun kv ->
      if String.starts_with ~prefix:"VSWAP_" kv
         || String.starts_with ~prefix:"VSWAPPER_" kv
      then begin
        let name =
          match String.index_opt kv '=' with
          | Some i -> String.sub kv 0 i
          | None -> kv
        in
        Printf.eprintf
          "run.exe: %s is set; unset every VSWAPPER_* / VSWAP_* variable \
           before benchmarking\n"
          name;
        exit 2
      end)
    (Unix.environment ())

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* Run [w] in a child process and return its parsed result.  A traced
   child gets a fresh runtime_events directory under the working
   directory, removed when the child has exited. *)
let run_child (a : args) w ~trace =
  let argv =
    [
      Sys.executable_name; "--child"; Suite.to_string w; "--seed";
      string_of_int a.seed; "--seconds"; Printf.sprintf "%g" a.seconds;
      "--trace"; (if trace then "1" else "0");
    ]
    @ if a.smoke then [ "--smoke" ] else []
  in
  let events_dir =
    Filename.concat (Sys.getcwd ())
      (Printf.sprintf ".bench-events-%d" (Unix.getpid ()))
  in
  (* glibc's malloc thresholds are fixed for the child: left dynamic,
     they decide per process whether large arrays are mapped fresh (a
     page fault per page on every build) or recycled from the heap, and
     the fleet's set-up time comes out 0.02 s in one process and 0.05 s
     in the next. *)
  let set =
    [
      ("MALLOC_MMAP_THRESHOLD_", "1073741824");
      ("MALLOC_TRIM_THRESHOLD_", "4294967296");
    ]
    @ if trace then [ ("OCAML_RUNTIME_EVENTS_DIR", events_dir) ] else []
  in
  let inherited kv =
    not
      (List.exists (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") kv) set)
  in
  let env =
    Array.of_list
      (List.filter inherited (Array.to_list (Unix.environment ()))
      @ List.map (fun (k, v) -> k ^ "=" ^ v) set)
  in
  if trace then Unix.mkdir events_dir 0o700;
  let out =
    Fun.protect
      ~finally:(fun () -> remove_tree events_dir)
      (fun () ->
        let rd, wr = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process_env Sys.executable_name (Array.of_list argv) env
            Unix.stdin wr Unix.stderr
        in
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let out = In_channel.input_all ic in
        close_in ic;
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> out
        | _ ->
            Printf.eprintf "run.exe: %s child failed\n" (Suite.to_string w);
            exit 1)
  in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match J.parse last with
  | Ok v -> v
  | Error e ->
      Printf.eprintf "run.exe: bad child output (%s): %s\n" e last;
      exit 1

let field k v =
  match J.member k v with
  | Some x -> x
  | None ->
      Printf.eprintf "run.exe: child result lacks %S\n" k;
      exit 1

let print_metrics w result =
  match field "metrics" result with
  | J.Obj kvs ->
      List.iter
        (fun (name, m) ->
          match (J.member "value" m, J.member "unit" m) with
          | Some (J.Number v), Some (J.String u) ->
              Printf.printf "%s %s %.6g %s\n" (Suite.to_string w) name v u
          | _ -> ())
        kvs
  | _ -> ()

let correct result = field "correct" result = J.Bool true

let write_file path s =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc s;
      output_char oc '\n')

let () =
  let a = parse_args () in
  check_environment ();
  match a.workload with
  | Some w when a.child -> child a w
  | Some w ->
      let result = run_child a w ~trace:a.trace in
      print_metrics w result;
      List.iter
        (function J.String p -> prerr_endline ("run.exe: " ^ p) | _ -> ())
        (match field "problems" result with J.List l -> l | _ -> []);
      print_endline
        (json_string
           (J.Obj
              (List.map
                 (fun k -> (k, field k result))
                 [ "correct"; "attempted"; "failed"; "metrics" ])))
  | None ->
      (* Smoke runs only the traced child: its rep schedule already holds
         an untraced rep (and, for the fleet, a one-domain rep). *)
      let passes =
        if a.smoke then [ true ]
        else if a.trace then [ false; true ]
        else [ false ]
      in
      let results =
        List.concat_map
          (fun w ->
            List.map
              (fun trace ->
                let r = run_child a w ~trace in
                print_metrics w r;
                Printf.printf "%s correct %b\n%!" (Suite.to_string w)
                  (correct r);
                r)
              passes)
          Suite.all
      in
      let doc =
        J.Obj
          [
            ("seed", int a.seed);
            ("seconds", num a.seconds);
            ("smoke", J.Bool a.smoke);
            ("results", J.List results);
          ]
      in
      write_file
        (Option.value a.json ~default:"benchmark-result.json")
        (json_string doc);
      if not (List.for_all correct results) then exit 1
