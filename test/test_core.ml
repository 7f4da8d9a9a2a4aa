(* Tests for the paper's core contribution: the Swap Mapper's tracking
   and consistency bookkeeping and the False Reads Preventer's buffer
   state machine. *)

let check = Alcotest.check
let qcheck = Test_util.qcheck
let page = Storage.Geom.page_bytes

(* ------------------------------------------------------------------ *)
(* Mapper                                                              *)
(* ------------------------------------------------------------------ *)

let mk_mapper () = Vswapper.Mapper.create ~stats:(Metrics.Stats.create ()) ()

let mapper_track_lookup () =
  let m = mk_mapper () in
  Vswapper.Mapper.track m ~gpa:10 ~disk:0 ~block:5 ~version:2;
  (match Vswapper.Mapper.lookup m ~gpa:10 with
  | Some { disk = 0; block = 5; version = 2 } -> ()
  | _ -> Alcotest.fail "lookup mismatch");
  Alcotest.(check (list int)) "reverse" [ 10 ]
    (Vswapper.Mapper.gpas_of_block m ~disk:0 ~block:5);
  check Alcotest.int "tracked" 1 (Vswapper.Mapper.tracked m)

let mapper_retrack_moves () =
  let m = mk_mapper () in
  Vswapper.Mapper.track m ~gpa:10 ~disk:0 ~block:5 ~version:0;
  Vswapper.Mapper.track m ~gpa:10 ~disk:0 ~block:9 ~version:0;
  Alcotest.(check (list int)) "old block empty" []
    (Vswapper.Mapper.gpas_of_block m ~disk:0 ~block:5);
  Alcotest.(check (list int)) "new block" [ 10 ]
    (Vswapper.Mapper.gpas_of_block m ~disk:0 ~block:9);
  check Alcotest.int "still one entry" 1 (Vswapper.Mapper.tracked m)

let mapper_multimap () =
  let m = mk_mapper () in
  Vswapper.Mapper.track m ~gpa:1 ~disk:0 ~block:5 ~version:0;
  Vswapper.Mapper.track m ~gpa:2 ~disk:0 ~block:5 ~version:0;
  check Alcotest.int "both tracked" 2 (Vswapper.Mapper.tracked m);
  check Alcotest.int "two gpas for block" 2
    (List.length (Vswapper.Mapper.gpas_of_block m ~disk:0 ~block:5));
  let victims = Vswapper.Mapper.invalidate_block m ~disk:0 ~block:5 in
  check Alcotest.int "both invalidated" 2 (List.length victims);
  check Alcotest.int "nothing tracked" 0 (Vswapper.Mapper.tracked m)

let mapper_untrack_idempotent () =
  let m = mk_mapper () in
  Vswapper.Mapper.untrack m ~gpa:99;
  Vswapper.Mapper.track m ~gpa:99 ~disk:1 ~block:0 ~version:3;
  Vswapper.Mapper.untrack m ~gpa:99;
  Vswapper.Mapper.untrack m ~gpa:99;
  check Alcotest.int "empty" 0 (Vswapper.Mapper.tracked m);
  Alcotest.(check (list int)) "reverse empty" []
    (Vswapper.Mapper.gpas_of_block m ~disk:1 ~block:0)

let mapper_readahead_window () =
  let m = mk_mapper () in
  (* blocks 4,5,6 tracked; 7 missing; 8 tracked *)
  List.iter
    (fun (gpa, b) -> Vswapper.Mapper.track m ~gpa ~disk:0 ~block:b ~version:0)
    [ (1, 4); (2, 5); (3, 6); (4, 8) ];
  let window = Vswapper.Mapper.readahead_window m ~disk:0 ~block:4 ~max:10 in
  Alcotest.(check (list int)) "stops at gap" [ 4; 5; 6 ] (List.map fst window);
  let window = Vswapper.Mapper.readahead_window m ~disk:0 ~block:4 ~max:2 in
  Alcotest.(check (list int)) "respects max" [ 4; 5 ] (List.map fst window)

let mapper_gauge_tracks () =
  let stats = Metrics.Stats.create () in
  let m = Vswapper.Mapper.create ~stats () in
  Vswapper.Mapper.track m ~gpa:1 ~disk:0 ~block:1 ~version:0;
  Vswapper.Mapper.track m ~gpa:2 ~disk:0 ~block:2 ~version:0;
  check Alcotest.int "gauge up" 2 stats.Metrics.Stats.mapper_tracked;
  Vswapper.Mapper.untrack m ~gpa:1;
  check Alcotest.int "gauge down" 1 stats.Metrics.Stats.mapper_tracked

let mapper_model =
  QCheck.Test.make ~name:"mapper: forward/reverse maps stay consistent"
    ~count:200
    QCheck.(list (pair (int_range 0 2) (pair (int_range 0 9) (int_range 0 9))))
    (fun ops ->
      let m = mk_mapper () in
      List.iter
        (fun (op, (gpa, block)) ->
          match op with
          | 0 -> Vswapper.Mapper.track m ~gpa ~disk:0 ~block ~version:0
          | 1 -> Vswapper.Mapper.untrack m ~gpa
          | _ -> ignore (Vswapper.Mapper.invalidate_block m ~disk:0 ~block))
        ops;
      (* Every forward entry appears in its reverse bucket and vice versa. *)
      let ok = ref true in
      Vswapper.Mapper.iter m (fun gpa b ->
          if
            not
              (List.mem gpa
                 (Vswapper.Mapper.gpas_of_block m ~disk:b.Vswapper.Mapper.disk
                    ~block:b.Vswapper.Mapper.block))
          then ok := false);
      for block = 0 to 9 do
        List.iter
          (fun gpa ->
            match Vswapper.Mapper.lookup m ~gpa with
            | Some b when b.Vswapper.Mapper.block = block -> ()
            | _ -> ok := false)
          (Vswapper.Mapper.gpas_of_block m ~disk:0 ~block)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Preventer                                                           *)
(* ------------------------------------------------------------------ *)

let mk_preventer ?(window = Sim.Time.ms 1) ?(max_buffers = 32) () =
  let stats = Metrics.Stats.create () in
  (stats, Vswapper.Preventer.create ~stats ~window ~max_buffers)

let preventer_sequential_completes () =
  let stats, p = mk_preventer () in
  let decisions =
    List.init 8 (fun i ->
        Vswapper.Preventer.on_write p ~now:0 ~gpa:1 ~offset:(i * 512) ~len:512)
  in
  (match List.rev decisions with
  | Vswapper.Preventer.Completed :: rest ->
      Alcotest.(check bool) "earlier buffered" true
        (List.for_all
           (function Vswapper.Preventer.Buffered _ -> true | _ -> false)
           rest)
  | _ -> Alcotest.fail "final write did not complete the page");
  check Alcotest.int "remap counted" 1 stats.Metrics.Stats.preventer_remaps;
  Alcotest.(check bool) "buffer gone" false (Vswapper.Preventer.is_buffered p ~gpa:1)

let preventer_full_first_write () =
  let stats, p = mk_preventer () in
  (match Vswapper.Preventer.on_write p ~now:0 ~gpa:2 ~offset:0 ~len:page with
  | Vswapper.Preventer.Completed -> ()
  | _ -> Alcotest.fail "full-page first write should complete");
  check Alcotest.int "remap" 1 stats.Metrics.Stats.preventer_remaps

let preventer_nonzero_start_merges () =
  let stats, p = mk_preventer () in
  (match Vswapper.Preventer.on_write p ~now:0 ~gpa:3 ~offset:1024 ~len:512 with
  | Vswapper.Preventer.Needs_merge -> ()
  | _ -> Alcotest.fail "mid-page start should merge");
  check Alcotest.int "merge counted" 1 stats.Metrics.Stats.preventer_merges

let preventer_nonsequential_merges () =
  let stats, p = mk_preventer () in
  ignore (Vswapper.Preventer.on_write p ~now:0 ~gpa:4 ~offset:0 ~len:512);
  (match Vswapper.Preventer.on_write p ~now:0 ~gpa:4 ~offset:2048 ~len:512 with
  | Vswapper.Preventer.Needs_merge -> ()
  | _ -> Alcotest.fail "non-sequential should merge");
  Alcotest.(check bool) "buffer dropped" false (Vswapper.Preventer.is_buffered p ~gpa:4);
  check Alcotest.int "merge counted" 1 stats.Metrics.Stats.preventer_merges

let preventer_capacity_rejects () =
  let stats, p = mk_preventer ~max_buffers:2 () in
  ignore (Vswapper.Preventer.on_write p ~now:0 ~gpa:1 ~offset:0 ~len:512);
  ignore (Vswapper.Preventer.on_write p ~now:0 ~gpa:2 ~offset:0 ~len:512);
  (match Vswapper.Preventer.on_write p ~now:0 ~gpa:3 ~offset:0 ~len:512 with
  | Vswapper.Preventer.Rejected -> ()
  | _ -> Alcotest.fail "over capacity should reject");
  check Alcotest.int "reject counted" 1 stats.Metrics.Stats.preventer_rejects;
  (* existing buffers still usable *)
  match Vswapper.Preventer.on_write p ~now:0 ~gpa:1 ~offset:512 ~len:512 with
  | Vswapper.Preventer.Buffered _ -> ()
  | _ -> Alcotest.fail "existing buffer should extend"

let preventer_expiry () =
  let stats, p = mk_preventer ~window:(Sim.Time.ms 1) () in
  ignore (Vswapper.Preventer.on_write p ~now:100 ~gpa:7 ~offset:0 ~len:512);
  ignore (Vswapper.Preventer.on_write p ~now:200 ~gpa:8 ~offset:0 ~len:512);
  check Alcotest.(option int) "deadline of oldest" (Some 1_100)
    (Vswapper.Preventer.next_deadline p);
  Alcotest.(check (list int)) "nothing expires early" []
    (Vswapper.Preventer.expired p ~now:1_000);
  let gone = Vswapper.Preventer.expired p ~now:1_150 in
  Alcotest.(check (list int)) "first expires" [ 7 ] gone;
  check Alcotest.int "timeout counted" 1 stats.Metrics.Stats.preventer_timeouts;
  let gone = Vswapper.Preventer.expired p ~now:2_000 in
  Alcotest.(check (list int)) "second expires" [ 8 ] gone;
  check Alcotest.(option int) "no deadline left" None
    (Vswapper.Preventer.next_deadline p)

let preventer_reads () =
  let _, p = mk_preventer () in
  ignore (Vswapper.Preventer.on_write p ~now:0 ~gpa:5 ~offset:0 ~len:1024);
  (match Vswapper.Preventer.on_read p ~gpa:5 ~offset:0 ~len:512 with
  | Vswapper.Preventer.Served_from_buffer -> ()
  | Vswapper.Preventer.Suspend -> Alcotest.fail "covered read should be served");
  match Vswapper.Preventer.on_read p ~gpa:5 ~offset:512 ~len:1024 with
  | Vswapper.Preventer.Suspend -> ()
  | Vswapper.Preventer.Served_from_buffer ->
      Alcotest.fail "uncovered read must suspend"

let preventer_rep_write () =
  let stats, p = mk_preventer () in
  ignore (Vswapper.Preventer.on_write p ~now:0 ~gpa:6 ~offset:0 ~len:512);
  Vswapper.Preventer.on_rep_write p ~gpa:6;
  Alcotest.(check bool) "buffer subsumed" false
    (Vswapper.Preventer.is_buffered p ~gpa:6);
  check Alcotest.int "remap counted" 1 stats.Metrics.Stats.preventer_remaps

let preventer_abandon () =
  let _, p = mk_preventer () in
  ignore (Vswapper.Preventer.on_write p ~now:0 ~gpa:9 ~offset:0 ~len:512);
  Vswapper.Preventer.abandon p ~gpa:9;
  Alcotest.(check bool) "gone" false (Vswapper.Preventer.is_buffered p ~gpa:9);
  check Alcotest.int "active" 0 (Vswapper.Preventer.active p)

let preventer_never_loses_track =
  QCheck.Test.make ~name:"preventer: active count matches live buffers"
    ~count:200
    QCheck.(list (pair (int_range 0 3) (int_range 0 7)))
    (fun ops ->
      let _, p = mk_preventer ~max_buffers:4 () in
      let now = ref 0 in
      List.iter
        (fun (op, gpa) ->
          now := !now + 50;
          match op with
          | 0 -> ignore (Vswapper.Preventer.on_write p ~now:!now ~gpa ~offset:0 ~len:512)
          | 1 -> Vswapper.Preventer.abandon p ~gpa
          | 2 -> ignore (Vswapper.Preventer.expired p ~now:!now)
          | _ -> Vswapper.Preventer.on_rep_write p ~gpa)
        ops;
      let live = ref 0 in
      for gpa = 0 to 7 do
        if Vswapper.Preventer.is_buffered p ~gpa then incr live
      done;
      !live = Vswapper.Preventer.active p && !live <= 4)

let vsconfig_presets () =
  let open Vswapper.Vsconfig in
  Alcotest.(check bool) "baseline off" true
    ((not baseline.mapper) && not baseline.preventer);
  Alcotest.(check bool) "mapper only" true
    (mapper_only.mapper && not mapper_only.preventer);
  Alcotest.(check bool) "vswapper both" true
    (vswapper.mapper && vswapper.preventer);
  check Alcotest.int "paper window" 1_000 (Sim.Time.to_us vswapper.preventer_window);
  check Alcotest.int "paper cap" 32 vswapper.preventer_max_buffers;
  let s = Format.asprintf "%a" Vswapper.Vsconfig.pp vswapper in
  Alcotest.(check bool) "printable" true (Test_util.contains s "mapper=true")

let tests =
  [
    ( "core:config",
      [ Alcotest.test_case "presets" `Quick vsconfig_presets ] );
    ( "core:mapper",
      [
        Alcotest.test_case "track and lookup" `Quick mapper_track_lookup;
        Alcotest.test_case "retrack moves" `Quick mapper_retrack_moves;
        Alcotest.test_case "multi-map per block" `Quick mapper_multimap;
        Alcotest.test_case "untrack idempotent" `Quick mapper_untrack_idempotent;
        Alcotest.test_case "readahead window" `Quick mapper_readahead_window;
        Alcotest.test_case "gauge" `Quick mapper_gauge_tracks;
        qcheck mapper_model;
      ] );
    ( "core:preventer",
      [
        Alcotest.test_case "sequential completes" `Quick preventer_sequential_completes;
        Alcotest.test_case "full first write" `Quick preventer_full_first_write;
        Alcotest.test_case "mid-page start merges" `Quick preventer_nonzero_start_merges;
        Alcotest.test_case "non-sequential merges" `Quick preventer_nonsequential_merges;
        Alcotest.test_case "capacity rejects" `Quick preventer_capacity_rejects;
        Alcotest.test_case "expiry" `Quick preventer_expiry;
        Alcotest.test_case "reads" `Quick preventer_reads;
        Alcotest.test_case "rep write" `Quick preventer_rep_write;
        Alcotest.test_case "abandon" `Quick preventer_abandon;
        qcheck preventer_never_loses_track;
      ] );
  ]
