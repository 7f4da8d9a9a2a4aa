(* Tests for the MOM-like balloon manager policy. *)

let check = Alcotest.check
module M = Balloon.Manager

(* An idle-ish guest with lots of slack inside a machine whose host is
   under memory pressure: the manager should inflate its balloon. *)
let manager_inflates_under_pressure () =
  (* The guest touches 32 MB once, then idles: the host is pressured,
     the guest has slack -> a perfect inflation donor. *)
  let touch_then_idle =
    {
      Vmm.Workload.name = "touch-then-idle";
      setup =
        (fun os _rng ->
          let r =
            Guest.Guestos.alloc_region os ~pages:(Storage.Geom.pages_of_mb 32)
          in
          let ops =
            List.init (Guest.Guestos.region_pages r) (fun i ->
                Vmm.Workload.Overwrite (r, i))
            @ List.init 40 (fun _ -> Vmm.Workload.Compute 200_000)
          in
          {
            Vmm.Workload.threads = [ Vmm.Workload.of_list ops ];
            cleanup = (fun () -> Guest.Guestos.free_region os r);
          });
    }
  in
  let guest =
    { (Vmm.Config.default_guest ~workload:touch_then_idle) with mem_mb = 64; data_mb = 16 }
  in
  let policy =
    {
      M.default_policy with
      M.period = Sim.Time.ms 200;
      host_reserve_frames = Storage.Geom.pages_of_mb 48;
      guest_min_pages = Storage.Geom.pages_of_mb 16;
      guest_free_high = 0.1;
      step_pages = Storage.Geom.pages_of_mb 4;
    }
  in
  (* Host 64MB: after the guest boots, free frames < 48MB reserve. *)
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      host_mem_mb = 64;
      manager = Some policy;
    }
  in
  let machine = Vmm.Machine.build cfg in
  let result = Vmm.Machine.run machine in
  ignore result;
  let os = Vmm.Machine.os machine 0 in
  Alcotest.(check bool) "balloon target grew" true
    (Guest.Guestos.balloon_target os > 0);
  Alcotest.(check bool) "balloon actually inflated" true
    (Guest.Guestos.balloon_size os > 0)

let manager_respects_guest_min () =
  let policy = M.default_policy in
  (* guest_min_pages bounds inflation: with a 64MB guest and min=96MB,
     no inflation should ever be requested. *)
  let idle_workload =
    {
      Vmm.Workload.name = "idle";
      setup =
        (fun _os _rng ->
          {
            Vmm.Workload.threads =
              [ Vmm.Workload.of_list (List.init 20 (fun _ -> Vmm.Workload.Compute 200_000)) ];
            cleanup = (fun () -> ());
          });
    }
  in
  let guest =
    { (Vmm.Config.default_guest ~workload:idle_workload) with mem_mb = 64; data_mb = 16 }
  in
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      host_mem_mb = 64;
      manager = Some { policy with M.period = Sim.Time.ms 200 };
    }
  in
  let machine = Vmm.Machine.build cfg in
  ignore (Vmm.Machine.run machine);
  let os = Vmm.Machine.os machine 0 in
  check Alcotest.int "no inflation below guest_min" 0
    (Guest.Guestos.balloon_target os)

let manager_stop_freezes_targets () =
  let host =
    Host.Hostmm.create
      ~config:(Host.Hconfig.with_memory_mb Host.Hconfig.default 16)
      ~vsconfig:Vswapper.Vsconfig.baseline ~swap_slots:4096 ~images:[ 1024 ] ()
  in
  let gid =
    Host.Hostmm.register_guest host ~vdisk:(Host.Hostmm.image host 0)
      ~gpa_pages:4096 ~resident_limit:None
  in
  let os =
    Guest.Guestos.create ~host ~gid ~config:(Guest.Gconfig.default ~mem_mb:16)
  in
  let m = M.create ~host ~guests:[ os ] M.default_policy in
  M.start m;
  M.stop m;
  (* A stopped manager schedules nothing further; the engine drains. *)
  Test_util.drain (Host.Hostmm.engine host);
  check Alcotest.int "no target set" 0 (Guest.Guestos.balloon_target os)

let manager_deflates_squeezed_guest () =
  (* A guest whose balloon was inflated and that then comes under
     pressure gets memory back when the host has surplus. *)
  let touch_late =
    {
      Vmm.Workload.name = "late-demand";
      setup =
        (fun os _rng ->
          let r =
            Guest.Guestos.alloc_region os ~pages:(Storage.Geom.pages_of_mb 40)
          in
          (* Idle for a while (manager balloons the free guest), then
             demand memory. *)
          let ops =
            List.init 10 (fun _ -> Vmm.Workload.Compute 500_000)
            @ List.init (Guest.Guestos.region_pages r) (fun i ->
                  Vmm.Workload.Overwrite (r, i))
          in
          {
            Vmm.Workload.threads = [ Vmm.Workload.of_list ops ];
            cleanup = (fun () -> Guest.Guestos.free_region os r);
          });
    }
  in
  let guest =
    { (Vmm.Config.default_guest ~workload:touch_late) with mem_mb = 64; data_mb = 16 }
  in
  let policy =
    {
      M.default_policy with
      M.period = Sim.Time.ms 200;
      host_reserve_frames = Storage.Geom.pages_of_mb 40;
      guest_min_pages = Storage.Geom.pages_of_mb 8;
      guest_free_high = 0.3;
      step_pages = Storage.Geom.pages_of_mb 8;
    }
  in
  (* A roomy host: surplus exists, so deflation is permitted. *)
  let cfg =
    {
      (Vmm.Config.default ~guests:[ guest ]) with
      host_mem_mb = 256;
      manager = Some policy;
    }
  in
  let machine = Vmm.Machine.build cfg in
  let result = Vmm.Machine.run machine in
  (* The workload must finish despite having been ballooned. *)
  Alcotest.(check bool) "finished" true
    (result.Vmm.Machine.guests.(0).Vmm.Machine.runtime <> None)

(* An out-of-range policy field fails at [create], naming the field and
   its range; a zero period used to livelock [Machine.run]. *)
let bad_policy_fails_loudly () =
  let host =
    Host.Hostmm.create ~config:Host.Hconfig.default
      ~vsconfig:Vswapper.Vsconfig.baseline ~swap_slots:64 ~images:[] ()
  in
  let create policy = ignore (M.create ~host ~guests:[] policy) in
  let d = M.default_policy in
  (* The default, [Metis_sweep]'s 4 s period, and low = high. *)
  create d;
  create { d with period = Sim.Time.sec 4 };
  create { d with guest_free_low = 0.1; guest_free_high = 0.1 };
  List.iter
    (fun (policy, msg) ->
      Alcotest.check_raises msg
        (Invalid_argument ("Manager.create: Manager.policy." ^ msg)) (fun () ->
          create policy))
    [
      ({ d with period = Sim.Time.zero }, "period must be > 0");
      ({ d with host_reserve_frames = -1 }, "host_reserve_frames must be >= 0");
      ({ d with guest_min_pages = -1 }, "guest_min_pages must be >= 0");
      ({ d with guest_free_low = -0.01 }, "guest_free_low must be finite and >= 0");
      ({ d with guest_free_low = nan }, "guest_free_low must be finite and >= 0");
      ( { d with guest_free_high = infinity },
        "guest_free_high must be finite and >= guest_free_low" );
      ( { d with guest_free_high = 0.01 },
        "guest_free_high must be finite and >= guest_free_low" );
      ({ d with step_pages = 0 }, "step_pages must be >= 1");
    ]

let tests =
  [
    ( "balloon:manager",
      [
        Alcotest.test_case "inflates under pressure" `Quick manager_inflates_under_pressure;
        Alcotest.test_case "respects guest min" `Quick manager_respects_guest_min;
        Alcotest.test_case "stop freezes" `Quick manager_stop_freezes_targets;
        Alcotest.test_case "deflates squeezed guest" `Quick manager_deflates_squeezed_guest;
        Alcotest.test_case "bad policy fails loudly" `Quick bad_policy_fails_loudly;
      ] );
  ]
