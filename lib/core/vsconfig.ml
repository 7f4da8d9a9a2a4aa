type t = {
  mapper : bool;
  preventer : bool;
  preventer_window : Sim.Time.t;
  preventer_max_buffers : int;
}

let defaults =
  {
    mapper = false;
    preventer = false;
    preventer_window = Sim.Time.ms 1;
    preventer_max_buffers = 32;
  }

let baseline = defaults
let mapper_only = { defaults with mapper = true }
let vswapper = { defaults with mapper = true; preventer = true }

let pp fmt t =
  Format.fprintf fmt "{mapper=%b; preventer=%b; window=%a; max_buffers=%d}"
    t.mapper t.preventer Sim.Time.pp t.preventer_window t.preventer_max_buffers
