(* Smoke and shape tests for the experiment harness.  Full-scale shape
   checks live in the benchmark; here we run tiny scales and verify the
   harness plumbing plus the headline ordering on one experiment. *)

let check = Alcotest.check

let registry_complete () =
  let ids = Experiments.Registry.ids () in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [ "fig3"; "fig4"; "fig5"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13";
      "fig14"; "fig15"; "tab1"; "tab2" ];
  check Alcotest.int "twelve paper artifacts + extensions" 21
    (List.length ids);
  Alcotest.(check bool) "fleet registered" true (List.mem "fleet" ids);
  Alcotest.(check bool) "degradation registered" true
    (List.mem "degradation" ids);
  Alcotest.(check bool) "scalability registered" true
    (List.mem "scalability" ids);
  Alcotest.(check bool) "memscale registered" true (List.mem "memscale" ids);
  Alcotest.(check bool) "tiering registered" true (List.mem "tiering" ids);
  Alcotest.(check bool) "migration registered" true (List.mem "mig" ids);
  Alcotest.(check bool) "resilience registered" true
    (List.mem "resilience" ids);
  Alcotest.(check bool) "ablations registered" true (List.mem "abl" ids);
  Alcotest.(check bool) "windows registered" true (List.mem "win" ids);
  Alcotest.(check bool) "find works" true
    (Experiments.Registry.find "fig9" <> None);
  Alcotest.(check bool) "unknown is None" true
    (Experiments.Registry.find "fig99" = None)

let scaling_helpers () =
  check Alcotest.int "mb floor" 16 (Experiments.Exp.mb 0.01 200);
  check Alcotest.int "mb scale" 100 (Experiments.Exp.mb 0.5 200);
  check Alcotest.int "int floor" 5 (Experiments.Exp.scaled_int 0.001 100 ~min:5);
  check Alcotest.int "int scale" 50 (Experiments.Exp.scaled_int 0.5 100 ~min:5)

let config_kinds () =
  let open Experiments.Exp in
  check Alcotest.int "five configs" 5 (List.length all_configs);
  Alcotest.(check bool) "balloon flags" true
    (ballooned Balloon_baseline && ballooned Balloon_vswapper
    && (not (ballooned Baseline))
    && not (ballooned Vswapper_full));
  Alcotest.(check bool) "vs of mapper" true
    (vs_of Mapper_only).Vswapper.Vsconfig.mapper;
  Alcotest.(check bool) "vs of mapper w/o preventer" false
    (vs_of Mapper_only).Vswapper.Vsconfig.preventer

let fig3_headline_ordering () =
  (* At 1/8 scale, the defining result must hold: the baseline is at
     least 3x slower than each other configuration, and only the
     baseline suffers stale reads and silent swap writes. *)
  let open Experiments.Exp in
  let measure = Experiments.Fig03.measure ~scale:0.125 in
  let runtime o = Option.get o.runtime_s in
  let base = measure Baseline in
  Alcotest.(check bool) "baseline stale reads" true
    (base.stats.Metrics.Stats.stale_reads > 0);
  Alcotest.(check bool) "baseline silent writes" true
    (base.stats.Metrics.Stats.silent_swap_writes > 0);
  List.iter
    (fun kind ->
      let o = measure kind in
      let name = config_name kind in
      Alcotest.(check bool)
        (name ^ ": baseline >= 3x slower")
        true
        (runtime base >= 3.0 *. runtime o);
      check Alcotest.int (name ^ ": no stale reads") 0
        o.stats.Metrics.Stats.stale_reads;
      check Alcotest.int (name ^ ": no silent writes") 0
        o.stats.Metrics.Stats.silent_swap_writes)
    [ Balloon_baseline; Mapper_only; Vswapper_full; Balloon_vswapper ];
  let out = Experiments.Fig03.exp.run ~scale:0.125 in
  Alcotest.(check bool) "has header" true (Test_util.contains out "FIG3");
  Alcotest.(check bool) "mentions configs" true
    (Test_util.contains out "vswapper" && Test_util.contains out "baseline")

let tab1_reports_loc () =
  let out = Experiments.Tab01.exp.Experiments.Exp.run ~scale:1.0 in
  Alcotest.(check bool) "has mapper row" true
    (Test_util.contains out "Swap Mapper");
  Alcotest.(check bool) "has paper numbers" true (Test_util.contains out "1974")

let run_all_isolates_failures () =
  (* A raising experiment must not abort the sweep: it comes back as an
     [Error] outcome and the experiments after it still run. *)
  let mk id run =
    { Experiments.Exp.id; title = id; paper_claim = ""; run }
  in
  let boom = mk "boom" (fun ~scale:_ -> failwith "injected failure") in
  let fine = mk "fine" (fun ~scale:_ -> "ran fine") in
  match Experiments.Registry.run_all ~scale:1.0 [ boom; fine ] with
  | [ a; b ] ->
      Alcotest.(check string) "order kept" "boom" a.Experiments.Registry.exp.id;
      Alcotest.(check bool) "failure captured" true
        (Result.is_error a.Experiments.Registry.output);
      Alcotest.(check bool) "later experiment still ran" true
        (b.Experiments.Registry.output = Ok "ran fine")
  | outs ->
      Alcotest.failf "expected 2 outcomes, got %d" (List.length outs)

let mark_collector_works () =
  let mref = ref None in
  let on_mark, get = Experiments.Exp.mark_collector mref in
  (* without a machine, marks are dropped silently *)
  on_mark 0;
  check Alcotest.int "dropped" 0 (List.length (get ()))

let tests =
  [
    ( "experiments:harness",
      [
        Alcotest.test_case "registry" `Quick registry_complete;
        Alcotest.test_case "scaling" `Quick scaling_helpers;
        Alcotest.test_case "config kinds" `Quick config_kinds;
        Alcotest.test_case "mark collector" `Quick mark_collector_works;
        Alcotest.test_case "failure isolation" `Quick run_all_isolates_failures;
        Alcotest.test_case "tab1 loc" `Quick tab1_reports_loc;
      ] );
    ( "experiments:shape",
      [ Alcotest.test_case "fig3 runs end-to-end" `Slow fig3_headline_ordering ] );
  ]
