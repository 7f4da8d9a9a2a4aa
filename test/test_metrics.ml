(* Tests for counters, time series and table rendering. *)

let check = Alcotest.check

let stats_copy_and_diff () =
  let s = Metrics.Stats.create () in
  s.Metrics.Stats.disk_ops <- 10;
  s.Metrics.Stats.stale_reads <- 3;
  let snap = Metrics.Stats.copy s in
  s.Metrics.Stats.disk_ops <- 25;
  s.Metrics.Stats.stale_reads <- 7;
  check Alcotest.int "copy is frozen" 10 snap.Metrics.Stats.disk_ops;
  check Alcotest.int "copy is frozen (stale)" 3 snap.Metrics.Stats.stale_reads;
  check Alcotest.int "source moved on" 25 s.Metrics.Stats.disk_ops

let stats_pp_nonzero_only () =
  let s = Metrics.Stats.create () in
  s.Metrics.Stats.silent_swap_writes <- 5;
  let out = Format.asprintf "%a" Metrics.Stats.pp s in
  Alcotest.(check bool) "mentions nonzero" true
    (Test_util.contains out "silent_swap_writes");
  Alcotest.(check bool) "omits zero" false
    (Test_util.contains out "false_reads")

let table_render () =
  let out =
    Metrics.Table.render ~title:"t" ~headers:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has title" true (Test_util.contains out "t\n");
  Alcotest.(check bool) "has cell" true (Test_util.contains out "333")

let table_series () =
  let out =
    Metrics.Table.render_series ~title:"s" ~x_label:"x" ~x:[ "1"; "2" ]
      ~cols:[ ("c", [ Some 1.0; None ]) ]
  in
  Alcotest.(check bool) "crash cell" true (Test_util.contains out "-")

let table_series_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Table.render_series: column \"c\" has 1 values, expected 2")
    (fun () ->
      ignore
        (Metrics.Table.render_series ~title:"s" ~x_label:"x" ~x:[ "1"; "2" ]
           ~cols:[ ("c", [ Some 1.0 ]) ]))

let fmt_float_cases () =
  check Alcotest.string "int-like" "3" (Metrics.Table.fmt_float 3.0);
  check Alcotest.string "large" "123" (Metrics.Table.fmt_float 123.4);
  check Alcotest.string "mid" "12.3" (Metrics.Table.fmt_float 12.34);
  check Alcotest.string "small" "1.23" (Metrics.Table.fmt_float 1.234)

let spark_cases () =
  check Alcotest.string "empty" "" (Metrics.Table.spark []);
  let s = Metrics.Table.spark [ 0.0; 1.0 ] in
  Alcotest.(check bool) "two glyphs" true (String.length s > 0)

let series_sampling () =
  let engine = Sim.Engine.create () in
  let v = ref 0.0 in
  let series =
    Metrics.Series.create ~engine ~period:(Sim.Time.us 10)
      [ ("probe", fun () -> !v) ]
  in
  (* something to keep the engine alive for 35us *)
  ignore (Sim.Engine.schedule_at engine (Sim.Time.us 15) (fun () -> v := 5.0));
  ignore (Sim.Engine.schedule_at engine (Sim.Time.us 35) (fun () -> Metrics.Series.stop series));
  Sim.Engine.run engine;
  let pts = Metrics.Series.points series "probe" in
  check Alcotest.int "three samples" 3 (List.length pts);
  let values = List.map snd pts in
  Alcotest.(check (list (float 1e-9))) "values" [ 0.0; 5.0; 5.0 ] values;
  Alcotest.(check (list string)) "names" [ "probe" ] (Metrics.Series.names series)

(* A faithful miniature of the `run --json` summary format: this
   exact shape must parse. *)
let json_bench_roundtrip () =
  let doc =
    "{\n  \"date\": \"2026-08-08\",\n  \"scale\": 0.05,\n  \"jobs\": 4,\n\
    \  \"counters\": {\n    \"disk_mq_batches\": 812,\n\
    \    \"async_inflight_highwater\": 3,\n\
    \    \"engine_events_fired\": 90210\n  },\n\
    \  \"engine\": {\"per_experiment\": [\n\
    \      {\"id\": \"fig3\", \"events\": 90210}\n    ]},\n\
    \  \"experiments\": [\n\
    \    {\"id\": \"fig3\", \"ok\": true},\n\
    \    {\"id\": \"fig9\", \"ok\": false}\n  ]\n}\n"
  in
  (match Metrics.Json.parse doc with
  | Error e -> Alcotest.failf "writer format rejected: %s" e
  | Ok v -> (
      match Metrics.Json.member "counters" v with
      | Some (Metrics.Json.Obj fields) ->
          Alcotest.(check bool)
            "disk_mq_batches present" true
            (List.mem_assoc "disk_mq_batches" fields)
      | _ -> Alcotest.fail "counters object missing"));
  (* A bug of an earlier writer: %+.3f put a '+' on positive numbers.
     Strict JSON must reject it, or the linter is not doing its job. *)
  let buggy = "{\"id\": \"fig3\", \"delta_s\": +2.943}" in
  Alcotest.(check bool)
    "leading + rejected" true
    (Result.is_error (Metrics.Json.validate buggy))

let json_strictness () =
  let ok s = Alcotest.(check bool) s true (Result.is_ok (Metrics.Json.validate s))
  and bad s =
    Alcotest.(check bool) s false (Result.is_ok (Metrics.Json.validate s))
  in
  ok "{}";
  ok "[]";
  ok "-0.5";
  ok "[1, 2.5, -3e2, 0.125e+2]";
  ok "{\"a\": [true, false, null], \"b\": \"x\\n\\u00e9\"}";
  bad "+1";
  bad "01";
  bad ".5";
  bad "1.";
  bad "1.e3";
  bad "[1,]";
  bad "{\"a\": 1,}";
  bad "{'a': 1}";
  bad "{\"a\": 1} {\"b\": 2}";
  bad "\"unterminated";
  bad "nul"

let tests =
    [
      ( "metrics:stats",
        [
          Alcotest.test_case "copy and diff" `Quick stats_copy_and_diff;
          Alcotest.test_case "pp nonzero only" `Quick stats_pp_nonzero_only;
        ] );
      ( "metrics:table",
        [
          Alcotest.test_case "render" `Quick table_render;
          Alcotest.test_case "series" `Quick table_series;
          Alcotest.test_case "series mismatch" `Quick table_series_mismatch;
          Alcotest.test_case "fmt_float" `Quick fmt_float_cases;
          Alcotest.test_case "spark" `Quick spark_cases;
        ] );
      ( "metrics:series", [ Alcotest.test_case "sampling" `Quick series_sampling ]);
      ( "metrics:json",
        [
          Alcotest.test_case "bench format round-trips" `Quick
            json_bench_roundtrip;
          Alcotest.test_case "strictness" `Quick json_strictness;
        ] );
    ]
