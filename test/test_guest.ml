(* Tests for the guest OS model: page cache with readahead, dirty
   write-back, anonymous memory with guest-level swap, the balloon
   driver, OOM behaviour and bookkeeping invariants. *)

let check = Alcotest.check
module G = Guest.Guestos
module H = Host.Hostmm
module C = Storage.Content

type rig = {
  engine : Sim.Engine.t;
  stats : Metrics.Stats.t;
  host : H.t;
  os : G.t;
}

(* Guest with 16 MiB of believed memory on a roomy host (the host only
   pressures the guest when a test sets a resident limit). *)
let mk_rig ?(mem_mb = 16) ?resident_limit_mb () =
  let gcfg =
    { (Guest.Gconfig.default ~mem_mb) with swap_blocks = 2048 }
  in
  let nblocks = gcfg.Guest.Gconfig.swap_blocks + Storage.Geom.pages_of_mb 32 in
  let host =
    H.create
      ~config:(Host.Hconfig.with_memory_mb Host.Hconfig.default 128)
      ~vsconfig:Vswapper.Vsconfig.baseline ~swap_slots:16_384
      ~images:[ nblocks ] ()
  in
  let gid =
    H.register_guest host ~vdisk:(H.image host 0)
      ~gpa_pages:gcfg.Guest.Gconfig.mem_pages
      ~resident_limit:(Option.map Storage.Geom.pages_of_mb resident_limit_mb)
  in
  let os = G.create ~host ~gid ~config:gcfg in
  let engine = H.engine host in
  let booted = ref false in
  G.boot os (fun () -> booted := true);
  Test_util.drain_until engine (fun () -> !booted);
  { engine; stats = H.stats host; host; os }

let sync rig f =
  let done_ = ref false in
  f (fun () -> done_ := true);
  Test_util.drain_until rig.engine (fun () -> !done_)

(* ------------------------------------------------------------------ *)
(* Page cache                                                          *)
(* ------------------------------------------------------------------ *)

let read_caches_and_readahead () =
  let rig = mk_rig () in
  let f = G.create_file rig.os ~blocks:256 in
  sync rig (G.read_file rig.os f ~idx:0);
  let cached = G.cache_pages rig.os in
  Alcotest.(check bool) "readahead brought more than one block" true (cached > 1);
  let ops_before = rig.stats.Metrics.Stats.disk_ops in
  sync rig (G.read_file rig.os f ~idx:0);
  check Alcotest.int "cache hit: no new I/O" ops_before
    rig.stats.Metrics.Stats.disk_ops;
  G.check_invariants rig.os

let sequential_reads_grow_window () =
  let rig = mk_rig () in
  let f = G.create_file rig.os ~blocks:512 in
  for idx = 0 to 255 do
    sync rig (G.read_file rig.os f ~idx)
  done;
  (* With a growing window, far fewer I/O requests than blocks. *)
  Alcotest.(check bool) "few requests" true
    (rig.stats.Metrics.Stats.disk_ops < 64);
  (* The final window may prefetch past block 255 (the file has 512). *)
  Alcotest.(check bool) "everything cached" true (G.cache_pages rig.os >= 256);
  G.check_invariants rig.os

let write_file_dirties_and_fsync_cleans () =
  let rig = mk_rig () in
  let f = G.create_file rig.os ~blocks:16 in
  sync rig (G.write_file rig.os f ~idx:3);
  check Alcotest.int "one dirty page" 1 (G.dirty_cache_pages rig.os);
  sync rig (G.fsync_file rig.os f);
  check Alcotest.int "clean after fsync" 0 (G.dirty_cache_pages rig.os);
  G.check_invariants rig.os

let written_data_survives_cache_drop () =
  let rig = mk_rig ~mem_mb:16 () in
  let f = G.create_file rig.os ~blocks:16 in
  sync rig (G.write_file rig.os f ~idx:0);
  sync rig (G.fsync_file rig.os f);
  (* Chew through all guest memory so the cached page gets evicted. *)
  let big = G.alloc_region rig.os ~pages:(Storage.Geom.pages_of_mb 14) in
  for i = 0 to G.region_pages big - 1 do
    sync rig (fun k -> G.overwrite_page rig.os big ~idx:i k)
  done;
  G.free_region rig.os big;
  (* Re-read: must come back from the virtual disk. *)
  sync rig (G.read_file rig.os f ~idx:0);
  G.check_invariants rig.os

let random_reads_keep_window_small () =
  (* Two guests read the same number of blocks; the random reader must
     issue far more I/O requests than the sequential one. *)
  let sequential =
    let rig = mk_rig () in
    let f = G.create_file rig.os ~blocks:512 in
    for idx = 0 to 127 do
      sync rig (G.read_file rig.os f ~idx)
    done;
    rig.stats.Metrics.Stats.disk_ops
  in
  let strided =
    let rig = mk_rig () in
    let f = G.create_file rig.os ~blocks:512 in
    for i = 0 to 127 do
      sync rig (G.read_file rig.os f ~idx:(i * 97 mod 512))
    done;
    rig.stats.Metrics.Stats.disk_ops
  in
  Alcotest.(check bool)
    (Printf.sprintf "random (%d) needs more requests than sequential (%d)"
       strided sequential)
    true
    (strided > 2 * sequential)

let file_bounds_checked () =
  let rig = mk_rig () in
  let f = G.create_file rig.os ~blocks:4 in
  Alcotest.check_raises "read oob" (Invalid_argument "Guestos.read_file: idx")
    (fun () -> G.read_file rig.os f ~idx:4 (fun () -> ()));
  Alcotest.check_raises "write oob" (Invalid_argument "Guestos.write_file: idx")
    (fun () -> G.write_file rig.os f ~idx:(-1) (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Anonymous memory and guest swap                                     *)
(* ------------------------------------------------------------------ *)

let anon_touch_and_guest_swap_roundtrip () =
  let rig = mk_rig ~mem_mb:16 () in
  let r = G.alloc_region rig.os ~pages:64 in
  for i = 0 to 63 do
    sync rig (fun k -> G.touch rig.os r ~idx:i ~write:true k)
  done;
  (* Pressure the guest into swapping region pages to its own disk. *)
  let big = G.alloc_region rig.os ~pages:(Storage.Geom.pages_of_mb 14) in
  for i = 0 to G.region_pages big - 1 do
    sync rig (fun k -> G.overwrite_page rig.os big ~idx:i k)
  done;
  Alcotest.(check bool) "guest swapped something out" true
    (rig.stats.Metrics.Stats.guest_swapouts > 0);
  G.free_region rig.os big;
  (* Touch the region again: pages come back via guest swap-in. *)
  for i = 0 to 63 do
    sync rig (fun k -> G.touch rig.os r ~idx:i ~write:false k)
  done;
  Alcotest.(check bool) "guest swapins happened" true
    (rig.stats.Metrics.Stats.guest_swapins > 0);
  Alcotest.(check bool) "major faults counted" true
    (rig.stats.Metrics.Stats.guest_major_faults > 0);
  G.free_region rig.os r;
  G.check_invariants rig.os

let free_region_releases_pages () =
  let rig = mk_rig () in
  let free_before = G.free_pages rig.os in
  let r = G.alloc_region rig.os ~pages:32 in
  for i = 0 to 31 do
    sync rig (fun k -> G.touch rig.os r ~idx:i ~write:true k)
  done;
  check Alcotest.int "pages consumed" (free_before - 32) (G.free_pages rig.os);
  G.free_region rig.os r;
  check Alcotest.int "pages back" free_before (G.free_pages rig.os);
  (* Double free is a no-op. *)
  G.free_region rig.os r;
  check Alcotest.int "still back" free_before (G.free_pages rig.os);
  G.check_invariants rig.os

let memcpy_page_works () =
  let rig = mk_rig () in
  let r = G.alloc_region rig.os ~pages:4 in
  sync rig (fun k -> G.memcpy_page rig.os r ~idx:2 k);
  G.free_region rig.os r;
  G.check_invariants rig.os

(* ------------------------------------------------------------------ *)
(* Balloon driver                                                      *)
(* ------------------------------------------------------------------ *)

let balloon_converges () =
  let rig = mk_rig () in
  G.start_services rig.os;
  let target = Storage.Geom.pages_of_mb 4 in
  G.set_balloon_target rig.os ~pages:target;
  Test_util.drain_until rig.engine (fun () -> G.balloon_size rig.os >= target);
  check Alcotest.int "target reached" target (G.balloon_size rig.os);
  Alcotest.(check bool) "host saw inflation" true
    (rig.stats.Metrics.Stats.balloon_inflated_pages >= target);
  (* Deflate. *)
  G.set_balloon_target rig.os ~pages:0;
  Test_util.drain_until rig.engine (fun () -> G.balloon_size rig.os = 0);
  Alcotest.(check bool) "deflations counted" true
    (rig.stats.Metrics.Stats.balloon_deflated_pages >= target);
  G.check_invariants rig.os

let oom_fires_when_starved () =
  let rig = mk_rig ~mem_mb:16 () in
  G.start_services rig.os;
  let killed = ref false in
  let region = ref None in
  G.set_oom_handler rig.os (fun () ->
      killed := true;
      match !region with
      | Some r -> G.free_region rig.os r
      | None -> ());
  (* Balloon away almost everything, then demand more than remains. *)
  G.set_balloon_target rig.os ~pages:(Storage.Geom.pages_of_mb 12);
  Test_util.drain_until rig.engine (fun () ->
      G.balloon_size rig.os >= Storage.Geom.pages_of_mb 12);
  let r = G.alloc_region rig.os ~pages:(Storage.Geom.pages_of_mb 8) in
  region := Some r;
  (* Cycle through the region repeatedly: sustained thrash against the
     tiny usable memory must eventually trip the killer. *)
  let i = ref 0 and pass = ref 0 in
  let finished = ref false in
  let rec touch_loop () =
    if !killed then ()
    else if !i >= G.region_pages r then begin
      i := 0;
      incr pass;
      if !pass >= 40 then finished := true else touch_loop ()
    end
    else begin
      let idx = !i in
      incr i;
      G.overwrite_page rig.os r ~idx (fun () -> touch_loop ())
    end
  in
  touch_loop ();
  (try
     Test_util.drain_until rig.engine (fun () -> !killed || !finished)
   with Failure _ -> ());
  Alcotest.(check bool) "OOM killer fired" true (G.oomed rig.os);
  Alcotest.(check bool) "kill counted" true
    (rig.stats.Metrics.Stats.oom_kills > 0)

(* An out-of-range Gconfig field fails at [create], naming the field
   and its range; a 101 % misaligned share used to be accepted. *)
let bad_config_fails_loudly () =
  let host =
    H.create
      ~config:(Host.Hconfig.with_memory_mb Host.Hconfig.default 16)
      ~vsconfig:Vswapper.Vsconfig.baseline ~swap_slots:64 ~images:[] ()
  in
  let create config = ignore (G.create ~host ~gid:0 ~config) in
  let d = Guest.Gconfig.default ~mem_mb:4 in
  create { d with misaligned_io_percent = 100 };
  List.iter
    (fun (config, msg) ->
      Alcotest.check_raises msg
        (Invalid_argument ("Guestos.create: Gconfig." ^ msg)) (fun () ->
          create config))
    [
      ({ d with mem_pages = 0 }, "mem_pages must be >= 1");
      ({ d with swap_blocks = 0 }, "swap_blocks must be >= 1");
      ( { d with misaligned_io_percent = -1 },
        "misaligned_io_percent must be in [0, 100]" );
      ( { d with misaligned_io_percent = 101 },
        "misaligned_io_percent must be in [0, 100]" );
    ]

let tests =
  [
    ( "guest:page-cache",
      [
        Alcotest.test_case "read caches + readahead" `Quick read_caches_and_readahead;
        Alcotest.test_case "window growth" `Quick sequential_reads_grow_window;
        Alcotest.test_case "dirty + fsync" `Quick write_file_dirties_and_fsync_cleans;
        Alcotest.test_case "writeback survives drop" `Quick written_data_survives_cache_drop;
        Alcotest.test_case "random window reset" `Quick random_reads_keep_window_small;
        Alcotest.test_case "file bounds" `Quick file_bounds_checked;
      ] );
    ( "guest:anon",
      [
        Alcotest.test_case "guest swap roundtrip" `Quick anon_touch_and_guest_swap_roundtrip;
        Alcotest.test_case "free region" `Quick free_region_releases_pages;
        Alcotest.test_case "memcpy page" `Quick memcpy_page_works;
      ] );
    ( "guest:balloon+oom",
      [
        Alcotest.test_case "balloon converges" `Quick balloon_converges;
        Alcotest.test_case "OOM fires" `Quick oom_fires_when_starved;
      ] );
    ( "guest:config",
      [
        Alcotest.test_case "bad config fails loudly" `Quick
          bad_config_fails_loudly;
      ] );
  ]
