(* Figure 11: pbzip2 I/O anatomy across the memory sweep: (a) disk
   operations, (b) sectors written, (c) pages scanned by host reclaim. *)

let mems = [ 512; 448; 384; 320; 256; 192 ]

let run ~scale ~faults:_ =
  let results = Pbzip_sweep.sweep ~scale mems in
  Pbzip_sweep.render
    ~title:"pbzip2 I/O anatomy (same setup as fig5)"
    ~mems
    ~panels:
      [
        ( "(a) disk operations [count] -- paper: vswapper needs far fewer",
          fun o -> Some (float_of_int o.Pbzip_sweep.disk_ops) );
        ( "(b) sectors written to host swap [count] -- paper: vswapper eliminates most writes",
          fun o -> Some (float_of_int o.Pbzip_sweep.written_sectors) );
        ( "(c) pages scanned by reclaim [count] -- paper: mapper up to doubles scans at low pressure",
          fun o -> Some (float_of_int o.Pbzip_sweep.pages_scanned) );
      ]
    results

let exp =
  Exp.make ~id:"fig11" ~title:"pbzip2 disk traffic and reclaim effort"
    ~paper_claim:
      "vswapper greatly reduces disk operations and nearly eliminates swap \
       writes (good for SSDs); the mapper up to doubles reclaim scan length \
       when memory pressure is low"
    run
