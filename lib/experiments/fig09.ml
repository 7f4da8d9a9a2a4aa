(* Figure 9: Sysbench iteratively reads a 200 MB file in a 100 MB guest
   that believes it has 512 MB.  Four panels per iteration: (a) runtime,
   (b) page faults while host code runs (stale reads in iteration 1,
   false page anonymity later), (c) faults while guest code runs (decayed
   sequentiality), (d) sectors written to host swap (silent writes). *)

let configs = [ Exp.Baseline; Exp.Vswapper_full; Exp.Balloon_baseline ]

type per_iter = {
  runtime_s : float;
  host_faults : int;
  guest_faults : int;
  written_sectors : int;
}

let run_config ~scale kind ~iterations =
  let file_mb = Exp.mb scale 200 in
  let machine_ref = ref None in
  let on_mark, get_marks = Exp.mark_collector machine_ref in
  let workload =
    Workloads.Sysbench.workload ~iterations ~on_iteration:(fun i -> on_mark i)
      ~file_mb ()
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = Exp.mb scale 512;
      data_mb = file_mb + 64;
    }
  in
  let machine =
    Vmm.Machine.build (Exp.testbed kind ~limit_mb:(Exp.mb scale 100) guest)
  in
  machine_ref := Some machine;
  let out = Exp.run_machine ~get_marks machine in
  (* Consecutive marks bracket the iterations (mark -1 = start). *)
  let rec diffs = function
    | a :: (b : Exp.mark) :: rest ->
        {
          runtime_s =
            Sim.Time.to_sec_float (Sim.Time.sub b.Exp.at a.Exp.at);
          host_faults =
            b.snapshot.Metrics.Stats.host_context_faults
            - a.Exp.snapshot.Metrics.Stats.host_context_faults;
          guest_faults =
            b.snapshot.Metrics.Stats.guest_context_faults
            - a.Exp.snapshot.Metrics.Stats.guest_context_faults;
          written_sectors =
            b.snapshot.Metrics.Stats.swap_sectors_written
            - a.Exp.snapshot.Metrics.Stats.swap_sectors_written;
        }
        :: diffs (b :: rest)
    | [ _ ] | [] -> []
  in
  diffs out.Exp.marks

let run ~scale =
  let iterations = 8 in
  let results =
    List.map (fun kind -> (kind, run_config ~scale kind ~iterations)) configs
  in
  let x = List.init iterations (fun i -> string_of_int (i + 1)) in
  let panel title f =
    Exp.series ~title ~x_label:"iter" ~x Exp.config_name results (fun it ->
        Some (f it))
  in
  String.concat "\n"
    [
      panel "(a) runtime [s]  -- paper: baseline U-shaped 40->20->40s, vswapper flat ~4s, balloon ~3s"
        (fun it -> it.runtime_s);
      panel "(b) host-context faults [count] -- paper: huge in iter 1 (stale reads), then growing (false anonymity)"
        (fun it -> float_of_int it.host_faults);
      panel "(c) guest-context faults [count] -- paper: baseline grows with sequentiality decay; vswapper flat"
        (fun it -> float_of_int it.guest_faults);
      panel "(d) sectors written to host swap [count] -- paper: large & flat for baseline (silent writes); ~0 for vswapper"
        (fun it -> float_of_int it.written_sectors);
    ]

let exp =
  Exp.make ~id:"fig9"
    ~title:"Iterated sequential read: anatomy of uncooperative swapping"
    ~paper_claim:
      "baseline runtime is U-shaped across 8 iterations while vswapper stays \
       flat; host faults show stale reads (iter 1) and false anonymity; guest \
       faults show decayed sequentiality; swap writes show silent writes"
    run
