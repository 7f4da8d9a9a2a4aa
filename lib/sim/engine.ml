(* The engine is the virtual clock over a hierarchical timing wheel
   ([Wheel]): O(1) schedule and cancel, true removal on cancel,
   whole-tick batch dispatch.  Handles, freelist recycling and the
   generation check that makes stale handles harmless all live inside
   [Wheel]; this module adds the clock and the past-time check. *)

type event = int

let null = -1

type t = { mutable clock : Time.t; wheel : (unit -> unit) Wheel.t }

let create () = { clock = Time.zero; wheel = Wheel.create () }
let now t = t.clock

let check_not_past t time =
  if Time.compare time t.clock < 0 then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %d is in the past (now=%d)"
         (Time.to_us time) (Time.to_us t.clock))

let schedule_at t time fn =
  check_not_past t time;
  Wheel.add t.wheel ~time:(Time.to_us time) fn

let schedule_after t delay fn = schedule_at t (Time.add t.clock delay) fn
let run_at t time fn = ignore (schedule_at t time fn : event)
let run_after t delay fn = run_at t (Time.add t.clock delay) fn
let cancel t ev = if ev >= 0 then ignore (Wheel.cancel t.wheel ev : bool)
let pending t = Wheel.length t.wheel

let step t =
  let nt = Wheel.next_time t.wheel in
  if nt < 0 then false
  else begin
    (* [pop] recycles the record before handing back the callback, so a
       handle to the fired event is stale by the time it runs. *)
    let fn = Wheel.pop t.wheel in
    t.clock <- Time.us nt;
    fn ();
    true
  end

let run t = while step t do () done

(* The wheel's [next_time] is pure and cached, so the next-event time is
   read once per iteration; the first pop of a tick pays the slot search
   and the rest of the batch drains at O(1) per event. *)
let rec run_until t limit =
  let nt = Wheel.next_time t.wheel in
  if nt < 0 then false
  else if Time.compare (Time.us nt) limit > 0 then true
  else begin
    let fn = Wheel.pop t.wheel in
    t.clock <- Time.us nt;
    fn ();
    run_until t limit
  end

type telemetry = { events_fired : int; cancels_reclaimed : int; cascades : int }

let telemetry t =
  {
    events_fired = Wheel.fired t.wheel;
    cancels_reclaimed = Wheel.cancelled t.wheel;
    cascades = Wheel.cascades t.wheel;
  }
