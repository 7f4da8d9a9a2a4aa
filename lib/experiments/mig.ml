(* Section 7 future work, implemented: migrating memory mappings instead
   of named pages.  A guest with a warm page cache is migrated after its
   workload settles; we compare wire traffic and transfer time for the
   classic full copy vs the Mapper-aware transfer, over 1 and 10 GbE. *)

let prepare ~scale kind =
  let file_mb = Exp.mb scale 384 in
  let workload = Workloads.Sysbench.workload ~iterations:1 ~file_mb () in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = Exp.mb scale 512;
      data_mb = file_mb + 64;
    }
  in
  let machine =
    Vmm.Machine.build (Exp.testbed kind ~limit_mb:(Exp.mb scale 256) guest)
  in
  ignore (Exp.run_machine machine);
  machine

let migrate_now machine link strategy =
  let result = ref None in
  Migration.Migrate.migrate ~machine ~guest:0 link strategy (fun r ->
      result := Some r);
  let engine = Vmm.Machine.engine machine in
  let steps = ref 0 in
  while !result = None && Sim.Engine.step engine && !steps < 10_000_000 do
    incr steps
  done;
  (* Migration experiments run on clean disks; an abort here means the
     harness itself regressed. *)
  match Option.get !result with
  | Migration.Migrate.Completed r -> r
  | Migration.Migrate.Aborted _ -> failwith "mig: unexpected disk abort"

let run ~scale ~faults:_ =
  let full = ("full copy", Migration.Migrate.Full_copy) in
  let aware = ("mapper-aware", Migration.Migrate.Mapper_aware) in
  let rows =
    Exp.grid
      (fun (kind, (strat_name, strategy)) (link_name, link) ->
        (* A fresh machine per measurement: migration shares the
           source's disk, so runs must not interfere. *)
        let r = migrate_now (prepare ~scale kind) link strategy in
        [
          Exp.config_name kind;
          strat_name;
          link_name;
          Printf.sprintf "%.2f"
            (Sim.Time.to_sec_float r.Migration.Migrate.duration);
          Printf.sprintf "%.1f"
            (float_of_int r.Migration.Migrate.bytes_sent /. 1048576.0);
          string_of_int r.Migration.Migrate.pages_copied;
          string_of_int r.Migration.Migrate.mappings_sent;
          string_of_int r.Migration.Migrate.pages_skipped;
        ])
      [
        (Exp.Baseline, full);
        (Exp.Vswapper_full, full);
        (Exp.Vswapper_full, aware);
      ]
      [ ("1GbE", Migration.Migrate.gbe); ("10GbE", Migration.Migrate.ten_gbe) ]
  in
  Metrics.Table.render
    ~title:
      "stop-and-copy transfer of a 512MB guest with a warm page cache \
       (mappings are 32-byte records the destination refetches locally)"
    ~headers:
      [ "source"; "strategy"; "link"; "time[s]"; "MB-sent"; "pages";
        "mappings"; "skipped" ]
    (List.concat (List.map snd rows))

let exp =
  Exp.make ~id:"mig"
    ~title:"Live-migration transfer via Mapper records (future work)"
    ~paper_claim:
      "Section 7: 'hypervisors that migrate guests can migrate memory \
       mappings instead of (named) memory pages ... and avoid requesting \
       pages that are wholly overwritten' — reducing migration time and \
       network traffic without guest cooperation"
    run
