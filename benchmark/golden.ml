(* Golden fingerprints of the full-size workloads at seed 42 (see
   Suite.fingerprint_fields for what a fingerprint covers).  A change
   that alters simulated behaviour moves these on purpose; regenerate
   them only in a change to the benchmark itself — README.md says how. *)

let seed42 =
  [
    ("paper", 0x21fddb9e6d5d8a49);
    ("swapstorm", 0x3b619f3931b53e1a);
    ("tiered-faulty", 0x2f7f15fbbf1acbd6);
    ("fleet", 0x1c78267994409b26);
  ]

let lookup ~workload ~seed =
  if seed = 42 then List.assoc_opt workload seed42 else None
