(* Figure 5: pbzip2 runtime vs actual guest memory; ballooning is fastest
   while alive but over-ballooning kills the compressor below 240 MB. *)

let mems = [ 512; 240; 128 ]

let run ~scale ~faults:_ =
  let results = Pbzip_sweep.sweep ~scale mems in
  Pbzip_sweep.render
    ~title:"pbzip2 (8 threads) in a 512MB guest; actual memory on the x-axis"
    ~mems
    ~panels:
      [
        ( "runtime [s] ('-' = workload OOM-killed by over-ballooning)",
          fun o -> o.Pbzip_sweep.runtime_s );
      ]
    results

let exp =
  Exp.make ~id:"fig5" ~title:"pbzip2 under shrinking memory (over-ballooning)"
    ~paper_claim:
      "ballooning fastest but kills bzip2 below 240MB; baseline up to 1.66x \
       slower than ballooning; vswapper within 1.03-1.08x, mapper 1.03-1.13x"
    run
