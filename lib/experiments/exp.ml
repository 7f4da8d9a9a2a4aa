type faults = { seed : int; rate : float }

let no_faults = { seed = 1; rate = 0.0 }

type t = {
  id : string;
  title : string;
  paper_claim : string;
  run : scale:float -> faults:faults -> string;
}

type config_kind =
  | Baseline
  | Balloon_baseline
  | Mapper_only
  | Vswapper_full
  | Balloon_vswapper

let config_name = function
  | Baseline -> "baseline"
  | Balloon_baseline -> "balloon+base"
  | Mapper_only -> "mapper"
  | Vswapper_full -> "vswapper"
  | Balloon_vswapper -> "balloon+vswap"

let all_configs =
  [ Baseline; Balloon_baseline; Mapper_only; Vswapper_full; Balloon_vswapper ]

let vs_of = function
  | Baseline | Balloon_baseline -> Vswapper.Vsconfig.baseline
  | Mapper_only -> Vswapper.Vsconfig.mapper_only
  | Vswapper_full | Balloon_vswapper -> Vswapper.Vsconfig.vswapper

let ballooned = function
  | Balloon_baseline | Balloon_vswapper -> true
  | Baseline | Mapper_only | Vswapper_full -> false

let mb scale x = max 16 (int_of_float (float_of_int x *. scale))
let scaled_int scale x ~min:lo = max lo (int_of_float (float_of_int x *. scale))

type mark = { index : int; at : Sim.Time.t; snapshot : Metrics.Stats.t }

let mark_collector machine_ref =
  let acc = ref [] in
  let on_mark index =
    match !machine_ref with
    | None -> ()
    | Some m ->
        acc :=
          {
            index;
            at = Sim.Engine.now (Vmm.Machine.engine m);
            snapshot = Metrics.Stats.copy (Vmm.Machine.stats m);
          }
          :: !acc
  in
  (on_mark, fun () -> List.rev !acc)

type run_out = {
  runtime_s : float option;
  per_guest_s : float option array;
  stats : Metrics.Stats.t;
  oomed : bool;
  marks : mark list;
}

(* Per-experiment counter tallies.  The registry installs an
   experiment's tally in a domain-local key around its job, and [shard]
   re-installs the submitting experiment's tally around every sub-job:
   the pool's help-execution means a domain waiting in one experiment
   may execute another experiment's shard, so the tally must travel
   with the job, not the domain.  [Stats.add] sums the counters and
   takes the max of the highwaters, so a tally does not depend on the
   order its runs complete in. *)
let tally : Metrics.Stats.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let tally_mu = Mutex.create ()

let scoped t f =
  let saved = Domain.DLS.get tally in
  Domain.DLS.set tally t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set tally saved) f

let with_tally t f = scoped (Some t) f

let record s =
  match Domain.DLS.get tally with
  | Some t -> Mutex.protect tally_mu (fun () -> Metrics.Stats.add t s)
  | None -> ()

let run_machine ?(get_marks = fun () -> []) machine =
  let result = Vmm.Machine.run machine in
  record result.Vmm.Machine.stats;
  let to_s = Option.map Sim.Time.to_sec_float in
  let per_guest_s =
    Array.map (fun g -> to_s g.Vmm.Machine.runtime) result.Vmm.Machine.guests
  in
  let oomed =
    Array.exists (fun g -> g.Vmm.Machine.oomed) result.Vmm.Machine.guests
  in
  {
    runtime_s = per_guest_s.(0);
    per_guest_s;
    stats = result.Vmm.Machine.stats;
    oomed;
    marks = get_marks ();
  }

(* Fan a per-configuration loop out over the shared global pool.  [map]
   on the global pool is re-entrant — the calling domain helps execute
   queued jobs instead of blocking — so experiments sharded here may
   themselves be jobs of the outer registry sweep.  Results come back in
   submission order, and a job's exception is re-raised here, so a
   failing point fails the whole experiment exactly as the serial loop
   did (the registry captures it per-experiment). *)
let shard f xs =
  (* Sub-jobs inherit the submitting experiment's tally: they may execute
     on any pool domain (including one that is itself running a different
     experiment and merely helping). *)
  let t = Domain.DLS.get tally in
  let f x = scoped t (fun () -> f x) in
  Parallel.Pool.map (Parallel.Pool.global ()) f xs
  |> List.map (function Ok v -> v | Error e -> raise e)

let grid f rows cols =
  let n = List.length cols in
  let outs =
    shard
      (fun (r, c) -> f r c)
      (List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows)
  in
  List.mapi (fun i r -> (r, List.filteri (fun j _ -> j / n = i) outs)) rows

let series ~title ~x_label ~x name rows f =
  Metrics.Table.render_series ~title ~x_label ~x
    ~cols:(List.map (fun (r, outs) -> (name r, List.map f outs)) rows)

let testbed kind ~limit_mb (guest : Vmm.Config.guest_spec) =
  let guest_mb = guest.mem_mb in
  let guest =
    {
      guest with
      resident_limit_mb = Some limit_mb;
      balloon_static_mb = (if ballooned kind then Some limit_mb else None);
      warm_all = true;
    }
  in
  {
    (Vmm.Config.default ~guests:[ guest ]) with
    vs = vs_of kind;
    host_mem_mb = guest_mb * 2;
    host_swap_mb = guest_mb * 3 / 2;
  }

let make ~id ~title ~paper_claim run =
  let line = String.make 72 '=' in
  let run ~scale ~faults =
    Printf.sprintf "%s\n%s: %s\npaper: %s\n%s\n%s" line
      (String.uppercase_ascii id) title paper_claim line (run ~scale ~faults)
  in
  { id; title; paper_claim; run }
