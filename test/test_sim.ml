(* Unit and property tests for the simulation substrate: virtual time,
   the deterministic PRNG, and the engine over its timing wheel. *)

let check = Alcotest.check
let qcheck = Test_util.qcheck

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let time_units () =
  check Alcotest.int "ms" 5_000 (Sim.Time.ms 5);
  check Alcotest.int "sec" 3_000_000 (Sim.Time.sec 3);
  check Alcotest.int "us" 7 (Sim.Time.us 7);
  check (Alcotest.float 1e-9) "to_sec" 1.5 (Sim.Time.to_sec_float (Sim.Time.ms 1_500));
  check Alcotest.int "add" 11 (Sim.Time.add 5 6);
  check Alcotest.int "sub" 4 (Sim.Time.sub 10 6);
  check Alcotest.int "round" 3 (Sim.Time.of_float_us 2.6)

let time_pp () =
  check Alcotest.string "seconds" "2.5s" (Sim.Time.to_string (Sim.Time.us 2_500_000));
  check Alcotest.string "millis" "1.5ms" (Sim.Time.to_string (Sim.Time.us 1_500));
  check Alcotest.string "micros" "17us" (Sim.Time.to_string (Sim.Time.us 17))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Sim.Rng.of_int 42 and b = Sim.Rng.of_int 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Sim.Rng.int a 1_000_000)
      (Sim.Rng.int b 1_000_000)
  done

let rng_split_independent () =
  let a = Sim.Rng.of_int 42 in
  let b = Sim.Rng.split a in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let rng_bounds =
  QCheck.Test.make ~name:"rng: int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.of_int seed in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

let rng_shuffle_permutes =
  QCheck.Test.make ~name:"rng: shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Sim.Rng.of_int seed in
      let arr = Array.of_list l in
      Sim.Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let rng_int_in_bounds =
  QCheck.Test.make ~name:"rng: int_in inclusive bounds" ~count:300
    QCheck.(triple small_int (int_range 0 100) (int_range 0 100))
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Sim.Rng.of_int seed in
      let v = Sim.Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let rng_exponential_positive () =
  let rng = Sim.Rng.of_int 3 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "non-negative" true
      (Sim.Rng.exponential rng ~mean:5.0 >= 0.0)
  done

let rng_float_bounds =
  QCheck.Test.make ~name:"rng: float stays within bounds" ~count:500
    QCheck.small_int (fun seed ->
      let rng = Sim.Rng.of_int seed in
      let v = Sim.Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 30) (fun () -> log := 30 :: !log));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> log := 10 :: !log));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 20) (fun () -> log := 20 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fires in order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Sim.Engine.now e)

let engine_cascade () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec tick n () =
    if n > 0 then begin
      incr count;
      ignore (Sim.Engine.schedule_after e (Sim.Time.us 5) (tick (n - 1)))
    end
  in
  ignore (Sim.Engine.schedule_after e (Sim.Time.us 5) (tick 10));
  Sim.Engine.run e;
  check Alcotest.int "all ticks" 10 !count;
  check Alcotest.int "clock" 55 (Sim.Engine.now e)

let engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let ev = Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> fired := true) in
  Sim.Engine.cancel e ev;
  check Alcotest.int "pending drops" 0 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired;
  (* double-cancel is a no-op *)
  Sim.Engine.cancel e ev

let engine_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 50) (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: 10 is in the past (now=50)")
    (fun () -> ignore (Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> ())))

let engine_run_until () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  List.iter
    (fun t -> ignore (Sim.Engine.schedule_at e (Sim.Time.us t) (fun () -> log := t :: !log)))
    [ 10; 20; 30; 40 ];
  let remaining = Sim.Engine.run_until e (Sim.Time.us 25) in
  Alcotest.(check bool) "events remain" true remaining;
  Alcotest.(check (list int)) "only early" [ 10; 20 ] (List.rev !log);
  let remaining = Sim.Engine.run_until e (Sim.Time.us 100) in
  Alcotest.(check bool) "drained" false remaining;
  Alcotest.(check (list int)) "all" [ 10; 20; 30; 40 ] (List.rev !log)

(* Regression: an event scheduled exactly at the limit must fire during
   [run_until limit] (the cutoff is events *after* the limit), and the
   comparison must go through [Time.compare], not raw ints. *)
let engine_run_until_at_limit () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t ->
      ignore
        (Sim.Engine.schedule_at e (Sim.Time.us t) (fun () ->
             fired := t :: !fired)))
    [ 10; 25; 40 ];
  let remaining = Sim.Engine.run_until e (Sim.Time.us 25) in
  Alcotest.(check bool) "later event remains" true remaining;
  Alcotest.(check (list int)) "event at limit fires" [ 10; 25 ]
    (List.rev !fired);
  check Alcotest.int "clock advanced to limit event" 25 (Sim.Engine.now e);
  (* A limit landing exactly on the final event drains the queue. *)
  let remaining = Sim.Engine.run_until e (Sim.Time.us 40) in
  Alcotest.(check bool) "drained at exact limit" false remaining;
  Alcotest.(check (list int)) "all fired" [ 10; 25; 40 ] (List.rev !fired)

(* run_at/run_after events recycle through a freelist; interleave them
   with cancellable schedule_at handles to check neither corrupts the
   other. *)
let engine_recycled_events () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for round = 0 to 2 do
    let base = Sim.Engine.now e in
    for i = 1 to 50 do
      Sim.Engine.run_at e
        (Sim.Time.add base (Sim.Time.us i))
        (fun () -> log := ((round * 100) + i) :: !log)
    done;
    let h =
      Sim.Engine.schedule_at e
        (Sim.Time.add base (Sim.Time.us 10))
        (fun () -> log := (-1) :: !log)
    in
    Sim.Engine.cancel e h;
    Sim.Engine.run e
  done;
  let expected =
    List.concat_map
      (fun round -> List.init 50 (fun i -> (round * 100) + i + 1))
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "recycled events all fire in order" expected
    (List.rev !log);
  Alcotest.(check bool) "cancelled handle never fired" false
    (List.mem (-1) !log)

(* Handles are generation-counted: cancelling after the event fired is
   a no-op (it used to corrupt the pending count), and a stale handle
   never cancels the unrelated event that recycled its slot. *)
let engine_cancel_after_fire () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let h1 = Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> fired := 1 :: !fired) in
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 20) (fun () -> fired := 2 :: !fired));
  Alcotest.(check bool) "stepped" true (Sim.Engine.step e);
  Sim.Engine.cancel e h1;
  check Alcotest.int "pending unchanged by stale cancel" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel e Sim.Engine.null;
  check Alcotest.int "null cancel is a no-op" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "both fired" [ 1; 2 ] (List.rev !fired)

let engine_stale_handle_spares_slot_reuser () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let h1 = Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> fired := 1 :: !fired) in
  Sim.Engine.run e;
  (* The new event recycles h1's slot with a bumped generation. *)
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 20) (fun () -> fired := 2 :: !fired));
  Sim.Engine.cancel e h1;
  check Alcotest.int "reused slot survives stale cancel" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "both fired" [ 1; 2 ] (List.rev !fired)

(* Cancelled records never fire on either drain path (run/run_until
   and step) and their slots recycle cleanly. *)
let engine_cancelled_reclaimed_by_step () =
  let e = Sim.Engine.create () in
  let leaked = ref false in
  for _round = 1 to 3 do
    let h =
      Sim.Engine.schedule_after e (Sim.Time.us 5) (fun () -> leaked := true)
    in
    ignore (Sim.Engine.schedule_after e (Sim.Time.us 7) (fun () -> ()));
    Sim.Engine.cancel e h;
    while Sim.Engine.step e do
      ()
    done
  done;
  Alcotest.(check bool) "cancelled never fired" false !leaked;
  check Alcotest.int "queue empty" 0 (Sim.Engine.pending e)

let engine_monotone_time =
  QCheck.Test.make ~name:"engine(wheel): callbacks fire in non-decreasing time"
    ~count:200
    QCheck.(list (int_range 0 10_000))
    (fun times ->
      let e = Sim.Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t ->
          ignore
            (Sim.Engine.schedule_at e (Sim.Time.us t) (fun () ->
                 fired := Sim.Engine.now e :: !fired)))
        times;
      Sim.Engine.run e;
      let seq = List.rev !fired in
      List.length seq = List.length times
      && seq = List.sort compare seq)

exception Boom

(* A callback raising out of [step]/[run_until] must leave the engine
   consistent: the fired event's record is recycled before the callback
   runs, so nothing leaks, the clock stays where the raising event fired,
   and the remaining events still run afterwards. *)
let engine_exception_safety () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  ignore
    (Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> fired := 1 :: !fired));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 20) (fun () -> raise Boom));
  ignore
    (Sim.Engine.schedule_at e (Sim.Time.us 30) (fun () -> fired := 3 :: !fired));
  Alcotest.check_raises "raises through run_until" Boom (fun () ->
      ignore (Sim.Engine.run_until e (Sim.Time.us 100)));
  Alcotest.(check int) "clock at the raising event" 20
    (Sim.Time.to_us (Sim.Engine.now e));
  Alcotest.(check int) "raising record reclaimed, survivor pending" 1
    (Sim.Engine.pending e);
  (* The engine keeps working: the survivor and fresh events (reusing
     the recycled slots) all fire. *)
  for i = 4 to 40 do
    ignore
      (Sim.Engine.schedule_at e
         (Sim.Time.us (10 * i))
         (fun () -> fired := i :: !fired))
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "all survivors fired" 39 (List.length !fired);
  Alcotest.(check int) "none left" 0 (Sim.Engine.pending e)

let engine_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  List.iter
    (fun v -> ignore (Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> log := v :: !log)))
    [ 1; 2; 3 ];
  Sim.Engine.run e;
  Alcotest.(check (list int)) "FIFO at same instant" [ 1; 2; 3 ] (List.rev !log)

(* An event scheduled for the current instant from inside a callback
   joins the tail of that instant: it fires after the events already
   queued at the same time and before any later time: the wheel drains
   the refilled current slot as a later batch at the same tick. *)
let engine_same_tick_reentry () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule_at e (Sim.Time.us 50) (fun () ->
         log := 0 :: !log;
         ignore
           (Sim.Engine.schedule_at e (Sim.Time.us 50) (fun () ->
                log := 9 :: !log))));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 50) (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 51) (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "reentry after the batch, before the next tick"
    [ 0; 1; 9; 2 ] (List.rev !log)

(* Cancellation is true removal: every cancel recycles its record at
   once (no tombstone waits for a drain), and [pending] counts live
   events only. *)
let engine_cancelled_pending () =
  let e = Sim.Engine.create () in
  let hs =
    List.init 8 (fun i ->
        Sim.Engine.schedule_at e (Sim.Time.us (10 * (i + 1))) (fun () -> ()))
  in
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 500) (fun () -> ()));
  List.iteri
    (fun i h ->
      Sim.Engine.cancel e h;
      check Alcotest.int "record reclaimed at cancel" (i + 1)
        (Sim.Engine.telemetry e).Sim.Engine.cancels_reclaimed;
      check Alcotest.int "pending counts live events only" (8 - i)
        (Sim.Engine.pending e))
    hs;
  Sim.Engine.run e;
  check Alcotest.int "queue empty" 0 (Sim.Engine.pending e);
  check Alcotest.int "only the live event fired" 1
    (Sim.Engine.telemetry e).Sim.Engine.events_fired

let engine_telemetry () =
  let e = Sim.Engine.create () in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule_at e (Sim.Time.us (i * 10)) (fun () -> ()))
  done;
  let h = Sim.Engine.schedule_at e (Sim.Time.us 500) (fun () -> ()) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  let tel = Sim.Engine.telemetry e in
  Alcotest.(check int) "fired = callbacks invoked" 10 tel.Sim.Engine.events_fired;
  Alcotest.(check int) "cancelled record reclaimed exactly once" 1
    tel.Sim.Engine.cancels_reclaimed

(* ------------------------------------------------------------------ *)
(* Wheel-specific edge cases                                           *)
(* ------------------------------------------------------------------ *)

(* 64 = the first time resolved by wheel level 1, 4096 by level 2,
   262144 by level 3.  Aligned-window placement and cascading must fire
   boundary±1 times in exact order with exact clocks. *)
let wheel_level_boundary () =
  let e = Sim.Engine.create () in
  let times = [ 65; 4096; 63; 262145; 4095; 64; 262143; 4097; 262144; 1; 0 ] in
  let log = ref [] in
  List.iter
    (fun t ->
      ignore
        (Sim.Engine.schedule_at e (Sim.Time.us t) (fun () ->
             log := Sim.Time.to_us (Sim.Engine.now e) :: !log)))
    times;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "boundary times fire in order"
    (List.sort compare times) (List.rev !log)

(* One event per wheel level plus two same-time events beyond the 2^24 us
   horizon (overflow list), scheduled out of order: everything must fire
   in time order with FIFO ties, and the far events must have cascaded
   down through the levels on the way. *)
let wheel_deep_cascade () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let add t v =
    ignore (Sim.Engine.schedule_at e (Sim.Time.us t) (fun () -> log := v :: !log))
  in
  add 20_000_000 4;
  add 20_000_000 5;
  add 300_000 3;
  add 10 0;
  add 5_000 2;
  add 100 1;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "levels + overflow in order, FIFO at ties"
    [ 0; 1; 2; 3; 4; 5 ] (List.rev !log);
  Alcotest.(check int) "clock at the overflow events" 20_000_000
    (Sim.Time.to_us (Sim.Engine.now e));
  let tel = Sim.Engine.telemetry e in
  Alcotest.(check bool) "far events cascaded down the levels" true
    (tel.Sim.Engine.cascades > 0)

(* Cancelling from inside a callback while a cascaded batch is draining:
   a later same-tick event (already relocated into the current level-0
   slot), a cascaded-but-not-yet-due event one tick over, and an event
   still parked at level 1 must all unlink cleanly, leaving no dead
   record queued. *)
let wheel_cancel_during_cascade () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  (* Tick 100 lives on level 1 from wheel time 0, so reaching it forces a
     cascade; the handles below are all in flight mid-drain when event 0
     cancels them. *)
  let hc = ref Sim.Engine.null
  and hd = ref Sim.Engine.null
  and hf = ref Sim.Engine.null in
  ignore
    (Sim.Engine.schedule_at e (Sim.Time.us 100) (fun () ->
         log := 0 :: !log;
         Sim.Engine.cancel e !hc;
         Sim.Engine.cancel e !hd;
         Sim.Engine.cancel e !hf));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 100) (fun () -> log := 1 :: !log));
  (* same tick, behind the canceller in the batch *)
  hc := Sim.Engine.schedule_at e (Sim.Time.us 100) (fun () -> log := 2 :: !log);
  (* same level-1 window, so cascaded to level 0 but one tick later *)
  hd := Sim.Engine.schedule_at e (Sim.Time.us 101) (fun () -> log := 3 :: !log);
  (* different level-1 slot: still parked above when cancelled *)
  hf := Sim.Engine.schedule_at e (Sim.Time.us 160) (fun () -> log := 4 :: !log);
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 170) (fun () -> log := 5 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "cancelled events skipped mid-batch" [ 0; 1; 5 ]
    (List.rev !log);
  Alcotest.(check int) "every cancelled record reclaimed" 3
    (Sim.Engine.telemetry e).Sim.Engine.cancels_reclaimed;
  Alcotest.(check int) "queue empty" 0 (Sim.Engine.pending e)

(* Peeking must not advance the wheel: after [run_until] returns with a
   far-future event still queued, a fresh event far earlier than it (but
   after the engine clock) must be accepted and fire first. *)
let wheel_peek_does_not_advance () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule_at e (Sim.Time.us 1_000_000) (fun () ->
         log := 2 :: !log));
  let remaining = Sim.Engine.run_until e (Sim.Time.us 10) in
  Alcotest.(check bool) "far event still queued" true remaining;
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 20) (fun () -> log := 1 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "late earlier insert fires first" [ 1; 2 ]
    (List.rev !log)

(* The differential harness: random schedule / cancel / run_until traces
   replayed on the engine and on a sorted-list oracle must produce the
   same observable outcome — firing order as (id, time) pairs, pending
   count after every op, and final clock.  Far schedules (x10000) push
   events past the wheel horizon so the overflow list is exercised too. *)
type trace_op = Sched of int | Sched_far of int | Cancel_nth of int | Run_for of int

(* The oracle keeps every scheduled entry in a list stably sorted by
   time, so same-time entries stay in insertion order; a cancel flags
   its entry, and firing drops flagged entries without touching the
   clock.  [fired] logs (id, time), newest first. *)
type entry = { at : int; id : int; mutable cancelled : bool }

type oracle = {
  mutable now : int;
  mutable queue : entry list;
  mutable fired : (int * int) list;
}

let oracle_schedule o ~id d =
  let en = { at = o.now + d; id; cancelled = false } in
  o.queue <- List.stable_sort (fun a b -> compare a.at b.at) (o.queue @ [ en ]);
  en

let rec oracle_run_until o limit =
  match o.queue with
  | en :: rest when en.at <= limit ->
      o.queue <- rest;
      if not en.cancelled then begin
        o.now <- en.at;
        o.fired <- (en.id, en.at) :: o.fired
      end;
      oracle_run_until o limit
  | _ -> ()

let oracle_pending o =
  List.length (List.filter (fun en -> not en.cancelled) o.queue)

let engine_differential =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun d -> Sched d) (int_range 0 2_000));
          (1, map (fun d -> Sched_far d) (int_range 0 4_000));
          (2, map (fun k -> Cancel_nth k) (int_range 0 30));
          (2, map (fun d -> Run_for d) (int_range 0 3_000));
        ])
  in
  let print_op = function
    | Sched d -> Printf.sprintf "Sched %d" d
    | Sched_far d -> Printf.sprintf "Sched_far %d" d
    | Cancel_nth k -> Printf.sprintf "Cancel_nth %d" k
    | Run_for d -> Printf.sprintf "Run_for %d" d
  in
  let arb =
    QCheck.make
      ~print:(QCheck.Print.list print_op)
      QCheck.Gen.(list_size (int_range 0 60) op_gen)
  in
  QCheck.Test.make ~name:"engine: wheel = sorted-list oracle on random traces"
    ~count:300 arb (fun ops ->
      let e = Sim.Engine.create () in
      let o = { now = 0; queue = []; fired = [] } in
      let fired = ref [] in
      let handles = ref [] and entries = ref [] in
      let ok = ref true in
      let sched id d =
        let h =
          Sim.Engine.schedule_after e (Sim.Time.us d) (fun () ->
              fired := (id, Sim.Time.to_us (Sim.Engine.now e)) :: !fired)
        in
        handles := h :: !handles;
        entries := oracle_schedule o ~id d :: !entries
      in
      List.iteri
        (fun id op ->
          (match op with
          | Sched d -> sched id d
          | Sched_far d -> sched id (d * 10_000)
          | Cancel_nth k -> (
              match (List.nth_opt !handles k, List.nth_opt !entries k) with
              | Some h, Some en ->
                  Sim.Engine.cancel e h;
                  en.cancelled <- true
              | _ -> ())
          | Run_for d ->
              ignore
                (Sim.Engine.run_until e
                   (Sim.Time.add (Sim.Engine.now e) (Sim.Time.us d)));
              oracle_run_until o (o.now + d));
          if Sim.Engine.pending e <> oracle_pending o then ok := false)
        ops;
      Sim.Engine.run e;
      oracle_run_until o max_int;
      !ok && !fired = o.fired && Sim.Time.to_us (Sim.Engine.now e) = o.now)

let engine_cases =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "sim:engine(wheel)",
    [
      tc "ordering" engine_ordering;
      tc "cascading events" engine_cascade;
      tc "cancellation" engine_cancel;
      tc "past rejected" engine_past_rejected;
      tc "run_until" engine_run_until;
      tc "run_until: event exactly at limit" engine_run_until_at_limit;
      tc "freelist event recycling" engine_recycled_events;
      tc "cancel after fire is a no-op" engine_cancel_after_fire;
      tc "stale handle spares slot reuser" engine_stale_handle_spares_slot_reuser;
      tc "step reclaims cancelled records" engine_cancelled_reclaimed_by_step;
      tc "same-time FIFO" engine_same_time_fifo;
      tc "same-tick reentry ordering" engine_same_tick_reentry;
      tc "exception safety" engine_exception_safety;
      tc "cancelled_pending accounting" engine_cancelled_pending;
      tc "telemetry counters" engine_telemetry;
      qcheck engine_monotone_time;
    ] )

let tests =
    [
      ( "sim:time",
        [
          Alcotest.test_case "unit conversions" `Quick time_units;
          Alcotest.test_case "pretty printing" `Quick time_pp;
        ] );
      ( "sim:rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split independence" `Quick rng_split_independent;
          Alcotest.test_case "exponential positive" `Quick rng_exponential_positive;
          qcheck rng_bounds;
          qcheck rng_int_in_bounds;
          qcheck rng_shuffle_permutes;
          qcheck rng_float_bounds;
        ] );
      engine_cases;
      ( "sim:wheel",
        [
          Alcotest.test_case "level-boundary scheduling" `Quick
            wheel_level_boundary;
          Alcotest.test_case "deep cascade + overflow" `Quick wheel_deep_cascade;
          Alcotest.test_case "cancel during cascade" `Quick
            wheel_cancel_during_cascade;
          Alcotest.test_case "peek does not advance the wheel" `Quick
            wheel_peek_does_not_advance;
          qcheck engine_differential;
        ] );
    ]
