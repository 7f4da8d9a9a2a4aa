type policy = {
  period : Sim.Time.t;
  host_reserve_frames : int;
  guest_min_pages : int;
  guest_free_low : float;
  guest_free_high : float;
  step_pages : int;
}

let default_policy =
  {
    period = Sim.Time.sec 1;
    host_reserve_frames = Storage.Geom.pages_of_mb 64;
    guest_min_pages = Storage.Geom.pages_of_mb 96;
    guest_free_low = 0.05;
    guest_free_high = 0.25;
    step_pages = Storage.Geom.pages_of_mb 32;
  }

type t = {
  host : Host.Hostmm.t;
  guests : Guest.Guestos.t list;
  policy : policy;
  mutable running : bool;
  mutable timer : Sim.Engine.event;  (* the armed tick, for stop *)
}

(* A zero period would re-arm the tick at the same instant forever:
   virtual time, and with it a machine's time limit, would stall. *)
let validate p =
  let require ok field range =
    if not ok then
      invalid_arg
        (Printf.sprintf "Manager.create: Manager.policy.%s must be %s" field
           range)
  in
  require (p.period > Sim.Time.zero) "period" "> 0";
  require (p.host_reserve_frames >= 0) "host_reserve_frames" ">= 0";
  require (p.guest_min_pages >= 0) "guest_min_pages" ">= 0";
  require
    (Float.is_finite p.guest_free_low && p.guest_free_low >= 0.0)
    "guest_free_low" "finite and >= 0";
  require
    (Float.is_finite p.guest_free_high && p.guest_free_high >= p.guest_free_low)
    "guest_free_high" "finite and >= guest_free_low";
  require (p.step_pages >= 1) "step_pages" ">= 1"

let create ~host ~guests policy =
  validate policy;
  { host; guests; policy; running = false; timer = Sim.Engine.null }

(* One adjustment round.  Roughly MOM's Balloon rule: compute each
   guest's "slack" (free + clean page cache); under host pressure, grow
   the balloons of slack-rich guests; with host surplus, shrink the
   balloon of any squeezed guest. *)
let adjust t =
  let p = t.policy in
  let host_free = Host.Hostmm.free_frames t.host in
  let pressure = p.host_reserve_frames - host_free in
  List.iter
    (fun os ->
      let cfg = Guest.Guestos.config os in
      let mem = cfg.Guest.Gconfig.mem_pages in
      let target = Guest.Guestos.balloon_target os in
      let free = Guest.Guestos.free_pages os in
      let cache = Guest.Guestos.cache_pages os in
      let usable = mem - target in
      let free_frac = float_of_int (free + cache) /. float_of_int (max 1 usable) in
      if pressure > 0 && free_frac > p.guest_free_high then begin
        (* Donor: grow its balloon by up to a step. *)
        let headroom = usable - p.guest_min_pages in
        let grow = min p.step_pages (min headroom pressure) in
        if grow > 0 then
          Guest.Guestos.set_balloon_target os ~pages:(target + grow)
      end
      else if free_frac < p.guest_free_low && target > 0 then begin
        (* Squeezed guest: deflate if the host can afford it. *)
        let surplus = host_free - (p.host_reserve_frames / 2) in
        let shrink = min p.step_pages (min target (max 0 surplus)) in
        if shrink > 0 then
          Guest.Guestos.set_balloon_target os ~pages:(target - shrink)
      end)
    t.guests

let rec tick t () =
  t.timer <- Sim.Engine.null;
  if t.running then begin
    adjust t;
    arm t
  end

and arm t =
  t.timer <-
    Sim.Engine.schedule_after (Host.Hostmm.engine t.host) t.policy.period
      (tick t)

let start t =
  if not t.running then begin
    t.running <- true;
    arm t
  end

(* Cancels the armed tick outright instead of leaving a dead event to
   fire into a stopped manager. *)
let stop t =
  t.running <- false;
  Sim.Engine.cancel (Host.Hostmm.engine t.host) t.timer;
  t.timer <- Sim.Engine.null
