type vm_spec = { tenant : int; mem_mb : int; lifetime_epochs : int }

type t = { seed : int; mean_arrivals : float; mutable next_tenant : int }

(* The diurnal cycle length, in epochs. *)
let period = 12

let create ~seed ~mean_arrivals () = { seed; mean_arrivals; next_tenant = 0 }

(* One RNG per (seed, epoch, salt): every stochastic choice is a pure
   function of its coordinates, never of call order across epochs. *)
let epoch_rng t ~epoch ~salt =
  Sim.Rng.of_int
    ((t.seed * 0x9E3779B1) lxor ((epoch + 1) * 0x85EBCA77) lxor salt)

let load t ~epoch =
  let phase = float_of_int (epoch mod period) /. float_of_int period in
  (* Trough at the start of the "day", peak mid-day: 0.35 .. 1.0. *)
  let diurnal =
    0.35 +. (0.65 *. 0.5 *. (1.0 -. cos (2.0 *. Float.pi *. phase)))
  in
  let rng = epoch_rng t ~epoch ~salt:0x51F15E in
  let spike = if Sim.Rng.bool rng 0.12 then 1.5 else 1.0 in
  Float.min 1.6 (diurnal *. spike)

(* Heavy-tailed request sizes: mostly small tenants, a fat tail of
   64 MB ones (mean ~ 18 MB). *)
let sizes_mb =
  [| 4; 4; 4; 8; 8; 8; 8; 12; 12; 16; 16; 24; 24; 32; 48; 64 |]

let arrivals t ~epoch =
  let rng = epoch_rng t ~epoch ~salt:0xA221E5 in
  let expect = t.mean_arrivals *. load t ~epoch in
  let n =
    int_of_float expect
    + (if Sim.Rng.bool rng (expect -. Float.of_int (int_of_float expect))
       then 1
       else 0)
  in
  (* Explicit loop: the tenant counter and the RNG draws must advance
     in arrival order ([List.init]'s evaluation order is unspecified). *)
  let rec draw k acc =
    if k = 0 then List.rev acc
    else begin
      let tenant = t.next_tenant in
      t.next_tenant <- t.next_tenant + 1;
      let spec =
        {
          tenant;
          mem_mb = sizes_mb.(Sim.Rng.int rng (Array.length sizes_mb));
          lifetime_epochs = 2 + Sim.Rng.int rng 5;
        }
      in
      draw (k - 1) (spec :: acc)
    end
  in
  draw n []
