(* Tests for the workload combinators and the machine executor. *)

let check = Alcotest.check
module W = Vmm.Workload

(* ------------------------------------------------------------------ *)
(* Workload combinators                                                *)
(* ------------------------------------------------------------------ *)

let drain_thread th =
  let rec go acc =
    match th () with None -> List.rev acc | Some op -> go (op :: acc)
  in
  go []

let compute_n = function W.Compute n -> n | _ -> -1

let of_list_yields_in_order () =
  let th = W.of_list [ W.Compute 1; W.Compute 2 ] in
  Alcotest.(check (list int)) "order" [ 1; 2 ]
    (List.map compute_n (drain_thread th));
  Alcotest.(check bool) "stays finished" true (th () = None)

let of_fun_indexes () =
  let th = W.of_fun (fun i -> if i < 3 then Some (W.Compute i) else None) in
  Alcotest.(check (list int)) "indexed" [ 0; 1; 2 ]
    (List.map compute_n (drain_thread th))

let concat_sequences () =
  let th = W.concat (W.of_list [ W.Compute 1 ]) (W.of_list [ W.Compute 2 ]) in
  Alcotest.(check (list int)) "a then b" [ 1; 2 ]
    (List.map compute_n (drain_thread th))

let repeat_rebuilds () =
  let round = ref 0 in
  let make () =
    incr round;
    W.of_list [ W.Compute !round ]
  in
  let th = W.repeat 3 make in
  Alcotest.(check (list int)) "three rounds" [ 1; 2; 3 ]
    (List.map compute_n (drain_thread th));
  check Alcotest.int "zero repeat" 0 (List.length (drain_thread (W.repeat 0 make)))

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let tiny_workload ~marks =
  {
    W.name = "tiny";
    setup =
      (fun os _rng ->
        let f = Guest.Guestos.create_file os ~blocks:64 in
        let r = Guest.Guestos.alloc_region os ~pages:16 in
        let ops =
          List.concat
            [
              List.init 64 (fun i -> W.File_read (f, i));
              List.init 16 (fun i -> W.Overwrite (r, i));
              [ W.Compute 1_000; W.Mark (fun () -> marks := !marks + 1) ];
            ]
        in
        {
          W.threads = [ W.of_list ops ];
          cleanup = (fun () -> Guest.Guestos.free_region os r);
        });
  }

let machine_runs_tiny_workload () =
  let marks = ref 0 in
  let guest =
    {
      (Vmm.Config.default_guest ~workload:(tiny_workload ~marks)) with
      mem_mb = 32;
      data_mb = 16;
    }
  in
  let cfg =
    { (Vmm.Config.default ~guests:[ guest ]) with host_mem_mb = 128 }
  in
  let result = Vmm.Machine.run (Vmm.Machine.build cfg) in
  (match result.Vmm.Machine.guests.(0).Vmm.Machine.runtime with
  | Some rt -> Alcotest.(check bool) "positive runtime" true (rt > 0)
  | None -> Alcotest.fail "workload did not finish");
  check Alcotest.int "mark fired" 1 !marks;
  Alcotest.(check bool) "no time limit hit" false result.Vmm.Machine.hit_time_limit;
  Alcotest.(check bool) "not oomed" false result.Vmm.Machine.guests.(0).Vmm.Machine.oomed

let machine_two_guests_phased () =
  let marks = ref 0 in
  let mk start_after =
    {
      (Vmm.Config.default_guest ~workload:(tiny_workload ~marks)) with
      mem_mb = 32;
      data_mb = 16;
      start_after;
    }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:[ mk Sim.Time.zero; mk (Sim.Time.sec 1) ]) with
      host_mem_mb = 256;
    }
  in
  let result = Vmm.Machine.run (Vmm.Machine.build cfg) in
  check Alcotest.int "both marked" 2 !marks;
  Array.iter
    (fun g ->
      match g.Vmm.Machine.runtime with
      | Some _ -> ()
      | None -> Alcotest.fail "a guest did not finish")
    result.Vmm.Machine.guests

let machine_vcpus_overlap_io () =
  (* Two compute+I/O threads on 2 VCPUs overlap each other's disk waits
     and must beat the 1-VCPU serialization. *)
  let mk_workload () =
    {
      W.name = "2thr";
      setup =
        (fun os _rng ->
          let f = Guest.Guestos.create_file os ~blocks:512 in
          let mk_thread t =
            W.of_fun (fun i ->
                if i >= 32 then None
                else if i land 1 = 0 then
                  (* Strided reads in a private half of the file. *)
                  Some (W.File_read (f, (t * 256) + (i * 4)))
                else Some (W.Compute 3_000))
          in
          { W.threads = [ mk_thread 0; mk_thread 1 ]; cleanup = (fun () -> ()) });
    }
  in
  let run vcpus =
    let guest =
      {
        (Vmm.Config.default_guest ~workload:(mk_workload ())) with
        mem_mb = 32;
        data_mb = 16;
        vcpus;
      }
    in
    let cfg = { (Vmm.Config.default ~guests:[ guest ]) with host_mem_mb = 128 } in
    let result = Vmm.Machine.run (Vmm.Machine.build cfg) in
    Option.get result.Vmm.Machine.guests.(0).Vmm.Machine.runtime
  in
  let t1 = run 1 and t2 = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "2 VCPUs (%d) not slower than 1 (%d)" t2 t1)
    true (t2 <= t1)

let machine_time_limit () =
  let forever =
    {
      W.name = "forever";
      setup =
        (fun _os _rng ->
          {
            W.threads = [ W.of_fun (fun _ -> Some (W.Compute 1_000_000)) ];
            cleanup = (fun () -> ());
          });
    }
  in
  let guest =
    { (Vmm.Config.default_guest ~workload:forever) with mem_mb = 32; data_mb = 16 }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      host_mem_mb = 128;
      time_limit = Sim.Time.sec 5;
    }
  in
  let result = Vmm.Machine.run (Vmm.Machine.build cfg) in
  Alcotest.(check bool) "limit hit" true result.Vmm.Machine.hit_time_limit;
  Alcotest.(check bool) "no runtime" true
    (result.Vmm.Machine.guests.(0).Vmm.Machine.runtime = None)

let machine_runs_twice_rejected () =
  let marks = ref 0 in
  let guest =
    {
      (Vmm.Config.default_guest ~workload:(tiny_workload ~marks)) with
      mem_mb = 32;
      data_mb = 16;
    }
  in
  let cfg = { (Vmm.Config.default ~guests:[ guest ]) with host_mem_mb = 128 } in
  let machine = Vmm.Machine.build cfg in
  ignore (Vmm.Machine.run machine);
  Alcotest.check_raises "second run rejected"
    (Invalid_argument "Machine.run: already ran") (fun () ->
      ignore (Vmm.Machine.run machine))

(* An out-of-range Vmm.Config field fails at [build], naming the field:
   a 0-vCPU guest or a static balloon larger than its guest is an
   error, not clamped into range. *)
let machine_bad_config_fails_loudly () =
  let g =
    {
      (Vmm.Config.default_guest ~workload:(tiny_workload ~marks:(ref 0))) with
      mem_mb = 32;
      data_mb = 16;
    }
  in
  let base =
    { (Vmm.Config.default ~guests:[ g ]) with host_mem_mb = 128; host_swap_mb = 64 }
  in
  let with_guest g = { base with guests = [ g ] } in
  let build cfg = ignore (Vmm.Machine.build cfg) in
  build
    (with_guest
       { g with resident_limit_mb = Some 1; balloon_static_mb = Some 32 });
  List.iter
    (fun (cfg, msg) ->
      Alcotest.check_raises msg
        (Invalid_argument ("Machine.build: Vmm.Config." ^ msg)) (fun () ->
          build cfg))
    [
      ({ base with host_mem_mb = 0 }, "host_mem_mb must be >= 1");
      ({ base with host_swap_mb = 0 }, "host_swap_mb must be >= 1");
      ({ base with time_limit = Sim.Time.zero }, "time_limit must be > 0");
      (with_guest { g with mem_mb = 0 }, "guest_spec.mem_mb must be >= 1");
      (with_guest { g with vcpus = 0 }, "guest_spec.vcpus must be >= 1");
      (with_guest { g with data_mb = -1 }, "guest_spec.data_mb must be >= 0");
      ( with_guest { g with resident_limit_mb = Some 0 },
        "guest_spec.resident_limit_mb must be >= 1" );
      ( with_guest { g with balloon_static_mb = Some 0 },
        "guest_spec.balloon_static_mb must be in [1, mem_mb]" );
      ( with_guest { g with balloon_static_mb = Some 33 },
        "guest_spec.balloon_static_mb must be in [1, mem_mb]" );
    ]

let config_names () =
  let w = tiny_workload ~marks:(ref 0) in
  let g = Vmm.Config.default_guest ~workload:w in
  let base = Vmm.Config.default ~guests:[ g ] in
  check Alcotest.string "baseline" "baseline" (Vmm.Config.name_of base);
  check Alcotest.string "vswapper" "vswapper"
    (Vmm.Config.name_of { base with vs = Vswapper.Vsconfig.vswapper });
  check Alcotest.string "balloon" "balloon+baseline"
    (Vmm.Config.name_of
       { base with guests = [ { g with balloon_static_mb = Some 16 } ] })

(* Differential property: with the disk reduced to a single queue of
   depth 1 and the per-guest in-flight bound at 1 (in both modes — the
   bound serializes readahead-initiated target faults, so it must match
   on each side), the async page-fault path degenerates to the
   synchronous one: a single-threaded guest has nothing to overlap, so
   both modes must produce identical runtimes and identical I/O
   accounting for any workload shape. *)
let async_sync_differential =
  QCheck.Test.make
    ~name:"machine: async (inflight=1, 1 queue) = sync for 1-thread guests"
    ~count:15
    QCheck.(
      triple (int_range 16 32) (int_range 8 16) (int_range 1 2))
    (fun (file_mb, limit_mb, iterations) ->
      let run ~async =
        let workload = Workloads.Sysbench.workload ~iterations ~file_mb () in
        let guest =
          {
            (Vmm.Config.default_guest ~workload) with
            mem_mb = 48;
            resident_limit_mb = Some limit_mb;
            warm_all = true;
            data_mb = file_mb + 16;
          }
        in
        let cfg =
          {
            (Vmm.Config.default ~guests:[ guest ]) with
            host_mem_mb = 128;
            host_swap_mb = 96;
            async_faults = async;
            disk =
              {
                Storage.Disk.default_config with
                num_queues = 1;
                per_queue_depth = 1;
              };
            hbase =
              { Host.Hconfig.default with max_inflight_faults = 1 };
          }
        in
        let r = Vmm.Machine.run (Vmm.Machine.build cfg) in
        let s = r.Vmm.Machine.stats in
        ( Array.map (fun g -> g.Vmm.Machine.runtime) r.Vmm.Machine.guests,
          ( s.Metrics.Stats.disk_ops,
            s.Metrics.Stats.disk_sectors_read,
            s.Metrics.Stats.disk_sectors_written,
            s.Metrics.Stats.host_swapins,
            s.Metrics.Stats.host_swapouts ),
          ( s.Metrics.Stats.guest_context_faults,
            s.Metrics.Stats.host_context_faults,
            s.Metrics.Stats.stale_reads,
            s.Metrics.Stats.false_reads ) )
      in
      run ~async:false = run ~async:true)

(* The benchmark's swapstorm machine at its smoke size (eight 8 MB
   storms on baseline VSwapper, async faults, an 8-queue disk), run to
   completion: afterwards the host's books and every guest's still
   agree with themselves. *)
let machine_swapstorm_keeps_books () =
  let guest =
    {
      (Vmm.Config.default_guest
         ~workload:
           (Workloads.Swapstorm.workload ~threads:4 ~rounds:1 ~compute_us:2
              ~mb:8 ()))
      with
      mem_mb = 24;
      vcpus = 1;
      resident_limit_mb = Some 4;
      data_mb = 64;
    }
  in
  let n = 8 in
  let cfg =
    {
      (Vmm.Config.default ~guests:(List.init n (fun _ -> guest))) with
      host_mem_mb = n * 24 * 2;
      host_swap_mb = n * 24;
      async_faults = true;
      disk =
        {
          Storage.Disk.default_config with
          num_queues = 8;
          per_queue_depth = 4;
        };
      hbase = { Host.Hconfig.default with max_inflight_faults = 16 };
    }
  in
  let m = Vmm.Machine.build cfg in
  let result = Vmm.Machine.run m in
  Array.iter
    (fun g ->
      Alcotest.(check bool)
        "guest finished" true (g.Vmm.Machine.runtime <> None))
    result.Vmm.Machine.guests;
  Alcotest.(check bool) "the host swapped" true
    (result.Vmm.Machine.stats.Metrics.Stats.host_swapouts > 0);
  Host.Hostmm.check_invariants (Vmm.Machine.host m);
  for i = 0 to n - 1 do
    Guest.Guestos.check_invariants (Vmm.Machine.os m i)
  done

let tests =
  [
    ( "vmm:workload",
      [
        Alcotest.test_case "of_list" `Quick of_list_yields_in_order;
        Alcotest.test_case "of_fun" `Quick of_fun_indexes;
        Alcotest.test_case "concat" `Quick concat_sequences;
        Alcotest.test_case "repeat" `Quick repeat_rebuilds;
      ] );
    ( "vmm:machine",
      [
        Alcotest.test_case "tiny workload" `Quick machine_runs_tiny_workload;
        Alcotest.test_case "two phased guests" `Quick machine_two_guests_phased;
        Alcotest.test_case "vcpu overlap" `Quick machine_vcpus_overlap_io;
        Alcotest.test_case "time limit" `Quick machine_time_limit;
        Alcotest.test_case "single run" `Quick machine_runs_twice_rejected;
        Alcotest.test_case "config names" `Quick config_names;
        Alcotest.test_case "bad config fails loudly" `Quick
          machine_bad_config_fails_loudly;
        Test_util.qcheck async_sync_differential;
        Alcotest.test_case "swapstorm keeps books" `Quick
          machine_swapstorm_keeps_books;
      ] );
  ]
