module Error = struct
  type t = Media | Transient

  let to_string = function Media -> "media" | Transient -> "transient"
end

module Config = struct
  type t = {
    seed : int;
    media_rate : float;
    transient_rate : float;
    degraded_rate : float;
    degraded_mult : float;
    czram_rate : float;
  }

  let none =
    {
      seed = 0;
      media_rate = 0.0;
      transient_rate = 0.0;
      degraded_rate = 0.0;
      degraded_mult = 1.0;
      czram_rate = 0.0;
    }

  let is_none c =
    c.media_rate = 0.0 && c.transient_rate = 0.0 && c.degraded_rate = 0.0
    && c.czram_rate = 0.0

  (* [czram_rate] follows [media_rate] unless given explicitly: a
     config that corrodes the disk corrodes the compressed pool at the
     same rate, but an experiment can corrupt just one domain. *)
  let make ?(seed = 0) ?(media_rate = 0.0) ?(transient_rate = 0.0)
      ?(degraded_rate = 0.0) ?(degraded_mult = 4.0) ?czram_rate () =
    let czram_rate =
      match czram_rate with Some r -> r | None -> media_rate
    in
    { seed; media_rate; transient_rate; degraded_rate; degraded_mult;
      czram_rate }
end

module Plan = struct
  type t = {
    cfg : Config.t;
    media_key : int64;
    transient_key : int64;
    degraded_key : int64;
    destage_media_key : int64;
    destage_transient_key : int64;
    czram_key : int64;
    remote_key : int64;
    none : bool;
  }

  let golden = 0x9E3779B97F4A7C15L

  (* Hash (key, a, b) to a float in [0, 1) with the SplitMix64
     finalizer.  Fault decisions are pure hashes of the request
     coordinates under a per-stream key, never draws from a shared
     mutable stream, so the pattern is independent of request
     interleaving (and hence of the worker-pool schedule). *)
  let hash01 key a b =
    let z = Int64.add key (Int64.mul (Int64.of_int a) golden) in
    let z = Sim.Rng.mix z in
    let z = Sim.Rng.mix (Int64.add z (Int64.mul (Int64.of_int b) golden)) in
    let bits = Int64.to_int (Int64.shift_right_logical z 11) in
    float_of_int bits /. 9007199254740992.0

  (* [Sim.Rng.mix]'s allocation-free native-int sibling.  Its 64-bit
     multipliers don't fit a 63-bit OCaml int, so these use
     smaller odd constants of the same character; overflow wraps, and
     the final mask keeps the result non-negative. *)
  let mix_int z =
    let z = z lxor (z lsr 30) in
    let z = z * 0x2545F4914F6CDD1D in
    let z = z lxor (z lsr 27) in
    let z = z * 0x1B03738712FAD5C9 in
    (z lxor (z lsr 31)) land max_int

  (* Reject a rate or multiplier out of range up front, naming it: a NaN
     rate would otherwise compare false everywhere and inject nothing.
     Rates above 1 act as 1 (sweeps pass a multiple of --fault-rate). *)
  let validate (c : Config.t) =
    let require ok field range =
      if not ok then
        invalid_arg
          (Printf.sprintf "Faults.Plan.create: Faults.Config.%s must be %s"
             field range)
    in
    let rate field r =
      require (Float.is_finite r && r >= 0.0) field "finite and >= 0"
    in
    rate "media_rate" c.media_rate;
    rate "transient_rate" c.transient_rate;
    rate "degraded_rate" c.degraded_rate;
    rate "czram_rate" c.czram_rate;
    require
      (Float.is_finite c.degraded_mult && c.degraded_mult >= 1.0)
      "degraded_mult" "finite and >= 1"

  let create cfg =
    validate cfg;
    let rng = Sim.Rng.of_int cfg.Config.seed in
    let media_key = Sim.Rng.next_int64 rng in
    let transient_key = Sim.Rng.next_int64 rng in
    let degraded_key = Sim.Rng.next_int64 rng in
    (* Destage keys are drawn after the read-path keys, so adding the
       write-path streams left every pre-existing read-fault pattern of a
       given seed untouched. *)
    let destage_media_key = Sim.Rng.next_int64 rng in
    let destage_transient_key = Sim.Rng.next_int64 rng in
    (* Per-tier keys come last, same discipline: the czram/remote error
       domains were added after the destage streams, so older seeds keep
       their exact disk-fault patterns. *)
    let czram_key = Sim.Rng.next_int64 rng in
    let remote_key = Sim.Rng.next_int64 rng in
    {
      cfg;
      media_key;
      transient_key;
      degraded_key;
      destage_media_key;
      destage_transient_key;
      czram_key;
      remote_key;
      none = Config.is_none cfg;
    }

  let none = create Config.none

  let config t = t.cfg

  let is_none t = t.none

  let read_error t ~sector ~nsectors ~attempt =
    if t.none then None
    else begin
      let cfg = t.cfg in
      let err = ref None in
      let s = ref sector in
      let last = sector + nsectors - 1 in
      while !err <> Some Error.Media && !s <= last do
        if cfg.media_rate > 0.0 && hash01 t.media_key !s 0 < cfg.media_rate
        then err := Some Error.Media
        else if
          !err = None && cfg.transient_rate > 0.0
          && hash01 t.transient_key !s attempt < cfg.transient_rate
        then err := Some Error.Transient;
        incr s
      done;
      !err
    end

  let write_error t ~sector ~attempt =
    if t.none then None
    else begin
      let cfg = t.cfg in
      if
        cfg.media_rate > 0.0
        && hash01 t.destage_media_key sector 0 < cfg.media_rate
      then Some Error.Media
      else if
        cfg.transient_rate > 0.0
        && hash01 t.destage_transient_key sector attempt < cfg.transient_rate
      then Some Error.Transient
      else None
    end

  let czram_error t ~page =
    if t.none then None
    else begin
      let cfg = t.cfg in
      if cfg.czram_rate > 0.0 && hash01 t.czram_key page 0 < cfg.czram_rate
      then Some Error.Media
      else None
    end

  let remote_error t ~sector ~attempt =
    if t.none then None
    else begin
      let cfg = t.cfg in
      if
        cfg.transient_rate > 0.0
        && hash01 t.remote_key sector attempt < cfg.transient_rate
      then Some Error.Transient
      else None
    end

  let degraded_mult t ~sector =
    if t.none || t.cfg.degraded_rate = 0.0 then None
    else if hash01 t.degraded_key sector 1 < t.cfg.degraded_rate then
      Some t.cfg.degraded_mult
    else None
end
