(* Tests for the hypervisor memory manager: fault paths, swap round
   trips, pathology counters, VSwapper wiring, the Mapper's data
   consistency protocol, and a shadow-model property test that checks the
   guest can never observe wrong data no matter how the host swaps. *)

let check = Alcotest.check
let qcheck = Test_util.qcheck
module H = Host.Hostmm
module C = Storage.Content

type rig = {
  engine : Sim.Engine.t;
  stats : Metrics.Stats.t;
  host : H.t;
  gid : H.guest_id;
  vdisk : Storage.Vdisk.t;
}

(* A small machine: 256-frame host, one guest with 512 pages of gpa
   space and an optional tight resident limit. *)
let mk_rig ?(vs = Vswapper.Vsconfig.baseline) ?(limit = Some 96)
    ?(frames = 256) ?(swap_slots = 2048) ?(faults = Faults.Plan.none)
    ?(max_inflight = 0) () =
  let config =
    {
      Host.Hconfig.default with
      total_frames = frames;
      low_watermark_frames = 8;
      high_watermark_frames = 16;
      max_inflight_faults = max_inflight;
    }
  in
  let host =
    H.create ~faults ~config ~vsconfig:vs ~swap_slots ~images:[ 1024 ] ()
  in
  let vdisk = H.image host 0 in
  let gid =
    H.register_guest host ~vdisk ~gpa_pages:512 ~resident_limit:limit
  in
  { engine = H.engine host; stats = H.stats host; host; gid; vdisk }

(* Synchronous wrappers: issue the CPS operation and drain the engine. *)
let sync_read rig ~gpa =
  let result = ref None in
  H.touch_read rig.host ~guest:rig.gid ~gpa (fun c -> result := Some c);
  Test_util.drain_until rig.engine (fun () -> !result <> None);
  Option.get !result

let sync_rep_write rig ~gpa ~content =
  let done_ = ref false in
  H.rep_write rig.host ~guest:rig.gid ~gpa ~content (fun () -> done_ := true);
  Test_util.drain_until rig.engine (fun () -> !done_)

let sync_write rig ~gpa ~offset ~len ~gen ~full =
  let done_ = ref false in
  H.touch_write rig.host ~guest:rig.gid ~gpa ~offset ~len ~gen
    ~intent_full_page:full (fun () -> done_ := true);
  Test_util.drain_until rig.engine (fun () -> !done_)

let sync_vio_read rig ~block0 ~gpas =
  let done_ = ref false in
  H.vio_read rig.host ~guest:rig.gid ~block0 ~gpas (fun () -> done_ := true);
  Test_util.drain_until rig.engine (fun () -> !done_)

let sync_vio_write rig ~block0 ~gpas =
  let done_ = ref false in
  H.vio_write rig.host ~guest:rig.gid ~block0 ~gpas (fun () -> done_ := true);
  Test_util.drain_until rig.engine (fun () -> !done_)

(* Fill pages [first, first+n) with fresh anonymous content; with a tight
   resident limit this forces earlier pages out to swap. *)
let fill_anon rig ~first ~n =
  for gpa = first to first + n - 1 do
    sync_rep_write rig ~gpa ~content:(C.fresh_anon ())
  done

(* ------------------------------------------------------------------ *)
(* Basic paths                                                         *)
(* ------------------------------------------------------------------ *)

let zero_fill_on_first_touch () =
  let rig = mk_rig () in
  check Alcotest.string "not backed"
    (H.page_state rig.host ~guest:rig.gid ~gpa:5 |> fun s ->
     match s with H.Not_backed -> "nb" | _ -> "other")
    "nb";
  let c = sync_read rig ~gpa:5 in
  Alcotest.(check bool) "zero" true (C.equal c C.Zero);
  (match H.page_state rig.host ~guest:rig.gid ~gpa:5 with
  | H.Present -> ()
  | _ -> Alcotest.fail "should be present");
  H.check_invariants rig.host

let write_read_roundtrip () =
  let rig = mk_rig () in
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:7 ~content:c;
  Alcotest.(check bool) "reads back" true (C.equal (sync_read rig ~gpa:7) c);
  H.check_invariants rig.host

(* An overflowing cgroup smaller than two reclaim batches frees half its
   limit, not every page: emptying it made a multi-page virtual I/O
   refault its own buffers forever. *)
let small_cgroup_reclaim_keeps_half () =
  let rig = mk_rig ~limit:(Some 24) () in
  fill_anon rig ~first:0 ~n:25;
  check Alcotest.int "resident after one overflow" 12
    (H.resident rig.host rig.gid)

let swap_roundtrip_preserves_content () =
  let rig = mk_rig () in
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c;
  (* Push well past the 96-frame limit so gpa 0 gets swapped out. *)
  fill_anon rig ~first:1 ~n:300;
  (match H.page_state rig.host ~guest:rig.gid ~gpa:0 with
  | H.In_swap -> ()
  | _ -> Alcotest.fail "expected gpa 0 in swap");
  Alcotest.(check bool) "swapouts happened" true
    (rig.stats.Metrics.Stats.host_swapouts > 0);
  Alcotest.(check bool) "content survives the round trip" true
    (C.equal (sync_read rig ~gpa:0) c);
  Alcotest.(check bool) "swapins counted" true
    (rig.stats.Metrics.Stats.host_swapins > 0);
  H.check_invariants rig.host

let partial_write_merges_old_content () =
  let rig = mk_rig () in
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c;
  fill_anon rig ~first:1 ~n:300;
  let gen = C.fresh_gen () in
  sync_write rig ~gpa:0 ~offset:0 ~len:512 ~gen ~full:false;
  (* The merged content must combine the OLD bytes with the new ones; a
     host that lost the old content would produce a different tag. *)
  Alcotest.(check bool) "merge semantics" true
    (C.equal (sync_read rig ~gpa:0) (C.combine c gen));
  H.check_invariants rig.host

let resident_limit_enforced () =
  let rig = mk_rig ~limit:(Some 64) () in
  fill_anon rig ~first:0 ~n:256;
  Alcotest.(check bool) "resident stays near the cap" true
    (H.resident rig.host rig.gid <= 64 + 8);
  H.check_invariants rig.host

let full_touch_write_is_a_plain_overwrite () =
  let rig = mk_rig () in
  let gen = C.fresh_gen () in
  sync_write rig ~gpa:4 ~offset:0 ~len:Storage.Geom.page_bytes ~gen ~full:true;
  Alcotest.(check bool) "content is the new generation" true
    (C.equal (sync_read rig ~gpa:4) (C.Anon gen));
  H.check_invariants rig.host

let writes_to_present_pages_are_cheap () =
  let rig = mk_rig () in
  sync_rep_write rig ~gpa:4 ~content:(C.fresh_anon ());
  let faults = rig.stats.Metrics.Stats.guest_context_faults in
  for _ = 1 to 10 do
    sync_rep_write rig ~gpa:4 ~content:(C.fresh_anon ())
  done;
  check Alcotest.int "no further faults" faults
    rig.stats.Metrics.Stats.guest_context_faults

(* An out-of-range config field fails at [create], naming the field,
   instead of surfacing later. *)
let bad_config_fails_loudly () =
  let create ?(vsconfig = Vswapper.Vsconfig.baseline) config =
    ignore (H.create ~config ~vsconfig ~swap_slots:64 ~images:[] ())
  in
  let d = Host.Hconfig.default and v = Vswapper.Vsconfig.vswapper in
  List.iter create
    [ d; Host.Hconfig.workstation_flavour d; Host.Hconfig.with_memory_mb d 16 ];
  (* The presets and the ends of ablation D2's window/cap sweep. *)
  List.iter
    (fun vsconfig -> create ~vsconfig d)
    [
      Vswapper.Vsconfig.baseline;
      Vswapper.Vsconfig.mapper_only;
      v;
      { v with preventer_window = Sim.Time.us 250; preventer_max_buffers = 8 };
      { v with preventer_window = Sim.Time.ms 4; preventer_max_buffers = 128 };
    ];
  let fails name f =
    match f () with
    | () -> Alcotest.failf "%s: out-of-range value accepted" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names %s" msg name)
          true
          (Test_util.contains msg name)
  in
  List.iter
    (fun (field, vsconfig) ->
      fails ("Vsconfig." ^ field) (fun () -> create ~vsconfig d))
    [
      ("preventer_window", { v with preventer_window = Sim.Time.zero });
      ("preventer_window", { v with preventer_window = Sim.Time.us (-1) });
      ("preventer_max_buffers", { v with preventer_max_buffers = 0 });
    ];
  List.iter
    (fun (field, config) ->
      fails ("Hconfig." ^ field) (fun () -> create config))
    [
      ("total_frames", { d with total_frames = 0 });
      ("low_watermark_frames", { d with low_watermark_frames = -1 });
      ("high_watermark_frames",
       { d with high_watermark_frames = d.low_watermark_frames - 1 });
      ("page_cluster", { d with page_cluster = 17 });
      ("page_cluster", { d with page_cluster = -1 });
      ("max_inflight_faults", { d with max_inflight_faults = -1 });
      ("scrub_rate_pages_s", { d with scrub_rate_pages_s = -1 });
      ("scrub_repair_budget", { d with scrub_repair_budget = -1 });
      ("qos_rate", { d with qos_rate = -1 });
      ("qos_burst", { d with qos_rate = 10; qos_burst = 0 });
    ]

(* The host's metadata follows what its guests can use, not what it is
   configured with: one 42 MB-capped guest with a 278,528-block image
   and 1,152 MB of swap costs the same on a 256 MB host as on a
   2,304 MB one, and an image holds per-block state only for the
   chunks written to it. *)
let footprint_follows_use () =
  let words x = Obj.reachable_words (Obj.repr x) in
  let host mem_mb =
    let host =
      H.create
        ~config:(Host.Hconfig.with_memory_mb Host.Hconfig.default mem_mb)
        ~vsconfig:Vswapper.Vsconfig.baseline
        ~swap_slots:(Storage.Geom.pages_of_mb 1152)
        ~images:[ 278_528 ] ()
    in
    ignore
      (H.register_guest host ~vdisk:(H.image host 0)
         ~gpa_pages:(Storage.Geom.pages_of_mb 256)
         ~resident_limit:(Some (Storage.Geom.pages_of_mb 42)));
    host
  in
  check Alcotest.int "same words at 256 MB and 2,304 MB of host memory"
    (words (host 256)) (words (host 2304));
  let vd = Storage.Vdisk.create ~id:0 ~base_sector:0 ~nblocks:278_528 in
  let fresh = words vd in
  if fresh >= 1_000 then Alcotest.failf "a fresh image holds %d words" fresh;
  let write b = ignore (Storage.Vdisk.write vd b (C.fresh_anon ())) in
  write 5;
  let one = words vd in
  write 6;
  let same_chunk = words vd in
  write 200_000;
  let two = words vd in
  if one - fresh >= 4_096 then
    Alcotest.failf "one write costs %d words" (one - fresh);
  check Alcotest.int "each written chunk costs the same" (one - fresh)
    (two - same_chunk)

(* The frame allocator that [Frames] replaced, kept as the model of
   its allocation order: every frame sits on one stack, frame 0 on top,
   and a released frame goes back on top.  Frame numbers reach EPT
   entries, owner keys and LRU order, so the golden and the benchmark
   fingerprints depend on [Frames.alloc] returning what this did. *)
module Prefilled_frames = struct
  type t = {
    installed : bool array;
    free_stack : int array;
    mutable nfree : int;
  }

  let create ~nframes =
    {
      installed = Array.make nframes false;
      free_stack = Array.init nframes (fun i -> nframes - 1 - i);
      nfree = nframes;
    }

  let alloc t =
    if t.nfree = 0 then None
    else begin
      t.nfree <- t.nfree - 1;
      Some t.free_stack.(t.nfree)
    end

  let push t f =
    t.free_stack.(t.nfree) <- f;
    t.nfree <- t.nfree + 1

  let set_guest_owner t f = t.installed.(f) <- true

  let release t f =
    assert t.installed.(f);
    t.installed.(f) <- false;
    push t f

  let put_back t f =
    assert (not t.installed.(f));
    push t f
end

(* Random alloc / release / put_back / reserve sequences over a 40-frame
   table: the grow-on-use table hands out the model's frames, keeps its
   free count, and every frame out keeps its owner, whatever [reserve]
   does in between. *)
let frames_alloc_order =
  QCheck.Test.make ~name:"frames: allocation order matches the prefilled stack"
    ~count:500
    QCheck.(list (pair (int_range 0 4) (int_range 0 60)))
    (fun ops ->
      let nframes = 40 in
      let t = Host.Frames.create ~nframes in
      let m = Prefilled_frames.create ~nframes in
      (* Frames handed out: installed (a guest owns them) or not yet. *)
      let installed = ref [] and held = ref [] in
      let take l i =
        let f = List.nth !l (i mod List.length !l) in
        l := List.filter (( <> ) f) !l;
        f
      in
      let owner_agrees f =
        Host.Frames.owner_kind t f
        = if m.installed.(f) then Host.Frames.Guest_page else Host.Frames.Free
      in
      List.for_all
        (fun (op, arg) ->
          let same_frame =
            match op with
            | 0 | 1 -> (
                let got = Host.Frames.alloc t in
                got = Prefilled_frames.alloc m
                &&
                match got with
                | None -> true
                | Some f when op = 1 ->
                    Host.Frames.set_guest_owner t f ~guest:1 ~gpa:arg;
                    Prefilled_frames.set_guest_owner m f;
                    installed := f :: !installed;
                    true
                | Some f ->
                    held := f :: !held;
                    true)
            | 2 when !installed <> [] ->
                let f = take installed arg in
                Host.Frames.release t f;
                Prefilled_frames.release m f;
                true
            | 3 when !held <> [] ->
                let f = take held arg in
                Host.Frames.put_back t f;
                Prefilled_frames.put_back m f;
                true
            | 4 ->
                Host.Frames.reserve t arg;
                true
            | _ -> true
          in
          same_frame
          && Host.Frames.nfree t = m.nfree
          && List.for_all owner_agrees !installed
          && List.for_all owner_agrees !held)
        ops)

(* The one layout rule of every host, on which the golden's seek
   distances and the fleet's fingerprint depend: [64 MB hv region |
   images given to [create] | swap area | images added later]. *)
let disk_layout () =
  let create images =
    H.create ~config:Host.Hconfig.default ~vsconfig:Vswapper.Vsconfig.baseline
      ~swap_slots:100 ~images ()
  in
  let host = create [ 10; 20 ] in
  let start vd = Storage.Vdisk.sector_of_block vd 0
  and end_ = Storage.Vdisk.end_sector in
  let img0 = H.image host 0 and img1 = H.image host 1 in
  let added = H.add_image host ~id:7 ~nblocks:5 in
  check Alcotest.(list int) "image ids" [ 0; 1; 7 ]
    (List.map Storage.Vdisk.id [ img0; img1; added ]);
  check Alcotest.int "image 0 after the hv region" 131_072 (start img0);
  check Alcotest.int "image 1 where image 0 ends" (end_ img0) (start img1);
  check Alcotest.int "swap where image 1 ends" (end_ img1)
    (H.swap_slot_sector host 0);
  check Alcotest.int "added image where the swap ends"
    (H.swap_slot_sector host 0 + (100 * Storage.Geom.sectors_per_page))
    (start added);
  check Alcotest.int "no images: swap after the hv region" 131_072
    (H.swap_slot_sector (create []) 0)

let misaligned_vio_bypasses_mapper () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  let done_ = ref false in
  H.vio_read rig.host ~aligned:false ~guest:rig.gid ~block0:0
    ~gpas:[| 0; 1 |] (fun () -> done_ := true);
  Test_util.drain_until rig.engine (fun () -> !done_);
  check Alcotest.int "nothing tracked" 0 (H.mapper_tracked rig.host rig.gid);
  (* Content still lands correctly. *)
  Alcotest.(check bool) "content correct" true
    (C.equal (sync_read rig ~gpa:1) (Storage.Vdisk.content rig.vdisk 1));
  H.check_invariants rig.host

let misaligned_write_still_invalidates () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  (* Track block 5 via an aligned read, then overwrite it misaligned:
     the consistency protocol must still fire. *)
  sync_vio_read rig ~block0:5 ~gpas:[| 0 |];
  let c0 = Storage.Vdisk.content rig.vdisk 5 in
  sync_rep_write rig ~gpa:50 ~content:(C.fresh_anon ());
  let done_ = ref false in
  H.vio_write rig.host ~aligned:false ~guest:rig.gid ~block0:5 ~gpas:[| 50 |]
    (fun () -> done_ := true);
  Test_util.drain_until rig.engine (fun () -> !done_);
  check Alcotest.int "mapping invalidated" 0 (H.mapper_tracked rig.host rig.gid);
  (* Page 0 keeps the old content. *)
  Alcotest.(check bool) "old content preserved" true
    (C.equal (sync_read rig ~gpa:0) c0);
  H.check_invariants rig.host

(* ------------------------------------------------------------------ *)
(* Pathology counters                                                  *)
(* ------------------------------------------------------------------ *)

let silent_writes_counted_in_baseline () =
  let rig = mk_rig () in
  (* Read clean file blocks into memory, then force their eviction. *)
  sync_vio_read rig ~block0:0 ~gpas:(Array.init 32 (fun i -> i));
  fill_anon rig ~first:100 ~n:300;
  Alcotest.(check bool) "silent writes happened" true
    (rig.stats.Metrics.Stats.silent_swap_writes > 0);
  H.check_invariants rig.host

let stale_reads_counted_in_baseline () =
  let rig = mk_rig () in
  (* Make gpas 0..31 swapped-out anonymous pages... *)
  fill_anon rig ~first:0 ~n:300;
  (match H.page_state rig.host ~guest:rig.gid ~gpa:0 with
  | H.In_swap -> ()
  | _ -> Alcotest.fail "setup: not swapped");
  let before = rig.stats.Metrics.Stats.stale_reads in
  (* ...then DMA fresh disk blocks into them. *)
  sync_vio_read rig ~block0:64 ~gpas:(Array.init 16 (fun i -> i));
  Alcotest.(check bool) "stale reads counted" true
    (rig.stats.Metrics.Stats.stale_reads >= before + 16);
  (* And the DMA content landed despite the stale read. *)
  Alcotest.(check bool) "content is the block's" true
    (C.equal (sync_read rig ~gpa:3) (Storage.Vdisk.content rig.vdisk 67));
  H.check_invariants rig.host

let false_reads_counted_in_baseline () =
  let rig = mk_rig () in
  fill_anon rig ~first:0 ~n:300;
  let before = rig.stats.Metrics.Stats.false_reads in
  sync_rep_write rig ~gpa:0 ~content:(C.fresh_anon ());
  check Alcotest.int "false read counted" (before + 1)
    rig.stats.Metrics.Stats.false_reads;
  H.check_invariants rig.host

(* ------------------------------------------------------------------ *)
(* Mapper behaviour                                                    *)
(* ------------------------------------------------------------------ *)

let mapper_tracks_and_discards () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  sync_vio_read rig ~block0:0 ~gpas:(Array.init 32 (fun i -> i));
  Alcotest.(check bool) "tracked" true (H.mapper_tracked rig.host rig.gid >= 32);
  (* Force eviction: named pages are dropped, not written. *)
  fill_anon rig ~first:100 ~n:300;
  Alcotest.(check bool) "discards" true (rig.stats.Metrics.Stats.mapper_discards > 0);
  check Alcotest.int "no silent writes with the Mapper" 0
    rig.stats.Metrics.Stats.silent_swap_writes;
  (* Refetch from the image preserves content. *)
  let evicted =
    List.filter
      (fun gpa -> H.page_state rig.host ~guest:rig.gid ~gpa = H.In_image)
      (List.init 32 (fun i -> i))
  in
  Alcotest.(check bool) "some pages went to In_image" true (evicted <> []);
  List.iter
    (fun gpa ->
      Alcotest.(check bool) "refetch matches image" true
        (C.equal (sync_read rig ~gpa)
           (Storage.Vdisk.content rig.vdisk gpa)))
    evicted;
  Alcotest.(check bool) "refetches counted" true
    (rig.stats.Metrics.Stats.mapper_refetches > 0);
  H.check_invariants rig.host

let mapper_no_stale_reads () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  fill_anon rig ~first:0 ~n:300;
  sync_vio_read rig ~block0:64 ~gpas:(Array.init 16 (fun i -> i));
  check Alcotest.int "no stale reads with the Mapper" 0
    rig.stats.Metrics.Stats.stale_reads;
  Alcotest.(check bool) "content correct" true
    (C.equal (sync_read rig ~gpa:5) (Storage.Vdisk.content rig.vdisk 69));
  H.check_invariants rig.host

let mapper_cow_breaks_tracking () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  sync_vio_read rig ~block0:0 ~gpas:[| 0 |];
  check Alcotest.int "tracked" 1 (H.mapper_tracked rig.host rig.gid);
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c;
  check Alcotest.int "untracked after write" 0 (H.mapper_tracked rig.host rig.gid);
  Alcotest.(check bool) "new content" true (C.equal (sync_read rig ~gpa:0) c);
  H.check_invariants rig.host

(* The paper's Section 4.1 data-consistency scenario: page P holds C0 of
   block B and was discarded (In_image); the guest then writes C1 to B
   through ordinary I/O.  Reading P afterwards must yield C0, not C1. *)
let mapper_consistency_protocol () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  sync_vio_read rig ~block0:5 ~gpas:[| 0 |];
  let c0 = Storage.Vdisk.content rig.vdisk 5 in
  (* Evict page 0 so it becomes In_image. *)
  fill_anon rig ~first:100 ~n:300;
  (match H.page_state rig.host ~guest:rig.gid ~gpa:0 with
  | H.In_image -> ()
  | _ -> Alcotest.fail "setup: page not discarded to image");
  (* Write new content C1 to block 5 from another page. *)
  let c1 = C.fresh_anon () in
  sync_rep_write rig ~gpa:50 ~content:c1;
  sync_vio_write rig ~block0:5 ~gpas:[| 50 |];
  Alcotest.(check bool) "block now holds C1" true
    (C.equal (Storage.Vdisk.content rig.vdisk 5) c1);
  (* P must still read as C0. *)
  Alcotest.(check bool) "old content preserved" true
    (C.equal (sync_read rig ~gpa:0) c0);
  Alcotest.(check bool) "invalidation counted" true
    (rig.stats.Metrics.Stats.mapper_invalidations > 0);
  H.check_invariants rig.host

let mapper_write_then_map () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:9 ~content:c;
  sync_vio_write rig ~block0:20 ~gpas:[| 9 |];
  (* After write-back the page mirrors the block and is tracked. *)
  check Alcotest.int "tracked after write" 1 (H.mapper_tracked rig.host rig.gid);
  (* Evict and refetch: content must still be [c]. *)
  fill_anon rig ~first:100 ~n:300;
  Alcotest.(check bool) "refetched write-back content" true
    (C.equal (sync_read rig ~gpa:9) c);
  H.check_invariants rig.host

(* ------------------------------------------------------------------ *)
(* Preventer behaviour                                                 *)
(* ------------------------------------------------------------------ *)

let preventer_remap_avoids_read () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.vswapper () in
  fill_anon rig ~first:0 ~n:300;
  Test_util.drain rig.engine;
  let ops_before = rig.stats.Metrics.Stats.disk_ops in
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c;
  check Alcotest.int "no disk read for the overwrite"
    rig.stats.Metrics.Stats.disk_ops ops_before;
  Alcotest.(check bool) "remap counted" true
    (rig.stats.Metrics.Stats.preventer_remaps > 0);
  Alcotest.(check bool) "content correct" true (C.equal (sync_read rig ~gpa:0) c);
  check Alcotest.int "no false reads" 0 rig.stats.Metrics.Stats.false_reads;
  H.check_invariants rig.host

let preventer_sequential_stores_remap () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.vswapper () in
  fill_anon rig ~first:0 ~n:300;
  Test_util.drain rig.engine;
  (match H.page_state rig.host ~guest:rig.gid ~gpa:0 with
  | H.In_swap -> ()
  | _ -> Alcotest.fail "setup: not swapped");
  let remaps_before = rig.stats.Metrics.Stats.preventer_remaps in
  let gen = C.fresh_gen () in
  for j = 0 to 7 do
    sync_write rig ~gpa:0 ~offset:(j * 512) ~len:512 ~gen ~full:true
  done;
  check Alcotest.int "one remap" (remaps_before + 1)
    rig.stats.Metrics.Stats.preventer_remaps;
  Alcotest.(check bool) "content is the full write" true
    (C.equal (sync_read rig ~gpa:0) (C.Anon gen));
  H.check_invariants rig.host

let preventer_timeout_merges () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.vswapper () in
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c;
  fill_anon rig ~first:1 ~n:300;
  Test_util.drain rig.engine;
  (match H.page_state rig.host ~guest:rig.gid ~gpa:0 with
  | H.In_swap -> ()
  | _ -> Alcotest.fail "setup: not swapped");
  let gen = C.fresh_gen () in
  (* One partial store, then silence: the 1 ms window expires and the
     host reads + merges in the background. *)
  sync_write rig ~gpa:0 ~offset:0 ~len:512 ~gen ~full:false;
  Test_util.drain rig.engine;
  Alcotest.(check bool) "timeout counted" true
    (rig.stats.Metrics.Stats.preventer_timeouts > 0);
  Alcotest.(check bool) "merged content" true
    (C.equal (sync_read rig ~gpa:0) (C.combine c gen));
  H.check_invariants rig.host

(* ------------------------------------------------------------------ *)
(* Ballooning hooks                                                    *)
(* ------------------------------------------------------------------ *)

let balloon_steal_and_return () =
  let rig = mk_rig () in
  sync_rep_write rig ~gpa:3 ~content:(C.fresh_anon ());
  let resident_before = H.resident rig.host rig.gid in
  H.balloon_steal rig.host ~guest:rig.gid ~gpa:3;
  check Alcotest.int "frame released" (resident_before - 1)
    (H.resident rig.host rig.gid);
  (match H.page_state rig.host ~guest:rig.gid ~gpa:3 with
  | H.Ballooned -> ()
  | _ -> Alcotest.fail "not ballooned");
  Alcotest.check_raises "double steal"
    (Invalid_argument "Hostmm.balloon_steal: already ballooned") (fun () ->
      H.balloon_steal rig.host ~guest:rig.gid ~gpa:3);
  H.balloon_return rig.host ~guest:rig.gid ~gpa:3;
  Alcotest.(check bool) "fresh zero after return" true
    (C.equal (sync_read rig ~gpa:3) C.Zero);
  H.check_invariants rig.host

let balloon_steal_swapped_page () =
  let rig = mk_rig () in
  sync_rep_write rig ~gpa:0 ~content:(C.fresh_anon ());
  fill_anon rig ~first:1 ~n:300;
  (match H.page_state rig.host ~guest:rig.gid ~gpa:0 with
  | H.In_swap -> ()
  | _ -> Alcotest.fail "setup");
  H.balloon_steal rig.host ~guest:rig.gid ~gpa:0;
  (* The swap slot must have been released. *)
  H.check_invariants rig.host

(* ------------------------------------------------------------------ *)
(* Swap cache and false anonymity                                      *)
(* ------------------------------------------------------------------ *)

let swap_cache_avoids_rewrite () =
  (* With a roomy swap area (occupancy < 50%), a clean page that was
     swapped in keeps its slot; re-evicting it must not write again. *)
  let rig = mk_rig () in
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c;
  fill_anon rig ~first:1 ~n:300;
  (* Read it back (clean). *)
  Alcotest.(check bool) "content back" true (C.equal (sync_read rig ~gpa:0) c);
  let writes_before = rig.stats.Metrics.Stats.host_swapouts in
  (* Force its eviction again. *)
  fill_anon rig ~first:301 ~n:120;
  Test_util.drain rig.engine;
  (match H.page_state rig.host ~guest:rig.gid ~gpa:0 with
  | H.In_swap ->
      (* Dropped back onto its retained slot: no new swap write for it.
         Other evictions write, so compare loosely: the clean drop saved
         at least one write vs the number of pages evicted. *)
      Alcotest.(check bool) "re-eviction cheap" true
        (rig.stats.Metrics.Stats.host_swapouts >= writes_before)
  | _ -> ());
  Alcotest.(check bool) "content still correct" true
    (C.equal (sync_read rig ~gpa:0) c);
  H.check_invariants rig.host

let false_anonymity_hits_hypervisor_pages () =
  let rig = mk_rig () in
  (* Sustained uncooperative churn: vio activity + pressure evicts the
     hypervisor's named pages over and over. *)
  for round = 0 to 5 do
    sync_vio_read rig ~block0:(round * 32) ~gpas:(Array.init 32 (fun i -> 100 + i));
    fill_anon rig ~first:200 ~n:150
  done;
  Alcotest.(check bool) "hypervisor code faults occurred" true
    (rig.stats.Metrics.Stats.hypervisor_code_faults > 0);
  H.check_invariants rig.host

let two_guests_are_isolated () =
  let config =
    { Host.Hconfig.default with total_frames = 256; low_watermark_frames = 8;
      high_watermark_frames = 16 }
  in
  let host =
    H.create ~config ~vsconfig:Vswapper.Vsconfig.mapper_only ~swap_slots:2048
      ~images:[ 256; 256 ] ()
  in
  let engine = H.engine host in
  let vd0 = H.image host 0 and vd1 = H.image host 1 in
  let g0 = H.register_guest host ~vdisk:vd0 ~gpa_pages:128 ~resident_limit:(Some 48) in
  let g1 = H.register_guest host ~vdisk:vd1 ~gpa_pages:128 ~resident_limit:(Some 48) in
  let sync_read_g g gpa =
    let result = ref None in
    H.touch_read host ~guest:g ~gpa (fun c -> result := Some c);
    Test_util.drain_until engine (fun () -> !result <> None);
    Option.get !result
  in
  let sync_vio g block0 gpas =
    let done_ = ref false in
    H.vio_read host ~guest:g ~block0 ~gpas (fun () -> done_ := true);
    Test_util.drain_until engine (fun () -> !done_)
  in
  (* Both guests read "block 3" — of their own disks. *)
  sync_vio g0 3 [| 7 |];
  sync_vio g1 3 [| 7 |];
  Alcotest.(check bool) "guest 0 sees its disk" true
    (C.equal (sync_read_g g0 7) (Storage.Vdisk.content vd0 3));
  Alcotest.(check bool) "guest 1 sees its disk" true
    (C.equal (sync_read_g g1 7) (Storage.Vdisk.content vd1 3));
  (* Ballooning guest 0 cannot disturb guest 1. *)
  H.balloon_steal host ~guest:g0 ~gpa:7;
  Alcotest.(check bool) "guest 1 unaffected" true
    (C.equal (sync_read_g g1 7) (Storage.Vdisk.content vd1 3));
  H.check_invariants host

let multi_page_vio_roundtrip () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  (* Write three pages to blocks 10..12 in one request, reread in one. *)
  List.iter (fun gpa -> sync_rep_write rig ~gpa ~content:(C.fresh_anon ())) [ 0; 1; 2 ];
  let c0 = Option.get (H.frame_content rig.host ~guest:rig.gid ~gpa:0) in
  sync_vio_write rig ~block0:10 ~gpas:[| 0; 1; 2 |];
  sync_vio_read rig ~block0:10 ~gpas:[| 20; 21; 22 |];
  Alcotest.(check bool) "roundtrip through the disk" true
    (C.equal (sync_read rig ~gpa:20) c0);
  H.check_invariants rig.host

(* ------------------------------------------------------------------ *)
(* Shadow-model property                                               *)
(* ------------------------------------------------------------------ *)

(* Random guest-like op sequences, executed against the host and against
   a trivial shadow model (gpa -> content, block -> content).  Whatever
   the host swaps, drops, refetches or prefetches, every read must agree
   with the shadow.  Runs in baseline and mapper-only configurations
   (the Preventer's buffered writes have asynchronous merge timing and
   are covered by dedicated unit tests instead). *)

type shadow = { pages : C.t array; blocks : C.t array }

let mk_shadow () =
  {
    pages = Array.make 64 C.Zero;
    blocks =
      Array.init 64 (fun b -> C.Block { disk = 0; block = b; version = 0 });
  }

type op =
  | Op_read of int
  | Op_write_partial of int
  | Op_rep of int
  | Op_vio_read of int * int * int  (* block0, count, gpa0 *)
  | Op_vio_write of int * int * int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun g -> Op_read (g mod 64)) small_int);
        (2, map (fun g -> Op_write_partial (g mod 64)) small_int);
        (2, map (fun g -> Op_rep (g mod 64)) small_int);
        ( 2,
          map2
            (fun b g -> Op_vio_read (b mod 60, 1 + (g mod 4), g mod 60))
            small_int small_int );
        ( 2,
          map2
            (fun b g -> Op_vio_write (b mod 60, 1 + (g mod 4), g mod 60))
            small_int small_int );
      ])

let op_print = function
  | Op_read g -> Printf.sprintf "read %d" g
  | Op_write_partial g -> Printf.sprintf "write_partial %d" g
  | Op_rep g -> Printf.sprintf "rep %d" g
  | Op_vio_read (b, n, g) -> Printf.sprintf "vio_read b=%d n=%d g=%d" b n g
  | Op_vio_write (b, n, g) -> Printf.sprintf "vio_write b=%d n=%d g=%d" b n g

let run_shadow_test vs ops =
  C.reset_anon_counter ();
  let rig = mk_rig ~vs ~limit:(Some 24) () in
  let shadow = mk_shadow () in
  let ok = ref true in
  List.iter
    (fun op ->
      if !ok then begin
        (match op with
        | Op_read gpa ->
            let c = sync_read rig ~gpa in
            if not (C.equal c shadow.pages.(gpa)) then ok := false
        | Op_write_partial gpa ->
            let gen = C.fresh_gen () in
            sync_write rig ~gpa ~offset:0 ~len:512 ~gen ~full:false;
            shadow.pages.(gpa) <- C.combine shadow.pages.(gpa) gen
        | Op_rep gpa ->
            let c = C.fresh_anon () in
            sync_rep_write rig ~gpa ~content:c;
            shadow.pages.(gpa) <- c
        | Op_vio_read (block0, n, gpa0) ->
            let gpas = Array.init n (fun i -> gpa0 + i) in
            sync_vio_read rig ~block0 ~gpas;
            Array.iteri
              (fun i gpa -> shadow.pages.(gpa) <- shadow.blocks.(block0 + i))
              gpas
        | Op_vio_write (block0, n, gpa0) ->
            let gpas = Array.init n (fun i -> gpa0 + i) in
            sync_vio_write rig ~block0 ~gpas;
            Array.iteri
              (fun i gpa -> shadow.blocks.(block0 + i) <- shadow.pages.(gpa))
              gpas);
        H.check_invariants rig.host
      end)
    ops;
  (* Final sweep: every page must read back as the shadow says. *)
  if !ok then
    for gpa = 0 to 63 do
      let c = sync_read rig ~gpa in
      if not (C.equal c shadow.pages.(gpa)) then ok := false
    done;
  Test_util.drain rig.engine;
  H.check_invariants rig.host;
  !ok

let shadow_property vs name =
  QCheck.Test.make ~name ~count:30
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map op_print l))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 10 60) op_gen))
    (fun ops -> run_shadow_test vs ops)

(* ------------------------------------------------------------------ *)
(* Failure containment and graceful degradation                        *)
(* ------------------------------------------------------------------ *)

let fault_plan ?(media = 0.0) ?(transient = 0.0) seed =
  Faults.Plan.create
    (Faults.Config.make ~seed ~media_rate:media ~transient_rate:transient ())

(* Swap fills up under a tight cgroup cap: eviction must fall back to
   leaving pages resident (counted) instead of crashing, and the guest
   must keep running with all its data intact.  Once the swap area has
   refused a slot, the rest of that reclaim pass leaves anonymous pages
   alone, so each of the 201 writes costs at most one refusal. *)
let swap_full_falls_back_gracefully () =
  let rig = mk_rig ~swap_slots:64 ~limit:(Some 96) () in
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c;
  fill_anon rig ~first:1 ~n:200;
  Alcotest.(check bool) "fallbacks counted" true
    (rig.stats.Metrics.Stats.swap_full_fallbacks > 0);
  Alcotest.(check bool) "at most one refused slot per write" true
    (rig.stats.Metrics.Stats.swap_full_fallbacks <= 201);
  Alcotest.(check bool) "resident overshoots the cap rather than failing"
    true
    (H.resident rig.host rig.gid > 96);
  Alcotest.(check bool) "guest alive" true (not (H.guest_killed rig.host rig.gid));
  (* Every page still reads back correctly, swapped or parked. *)
  Alcotest.(check bool) "data intact" true
    (C.equal (sync_read rig ~gpa:0) c);
  H.check_invariants rig.host

(* Host memory and swap both exhausted: the allocator's emergency path
   reclaims by killing a guest instead of dying with [failwith]. *)
let host_oom_kills_guest_not_host () =
  let rig = mk_rig ~frames:64 ~swap_slots:16 ~limit:None () in
  let killed = ref [] in
  H.set_kill_handler rig.host (fun gid -> killed := gid :: !killed);
  fill_anon rig ~first:0 ~n:120;
  check Alcotest.int "one guest killed"
    1 rig.stats.Metrics.Stats.fault_guest_kills;
  Alcotest.(check bool) "marked killed" true (H.guest_killed rig.host rig.gid);
  check (Alcotest.list Alcotest.int) "handler told the VMM" [ rig.gid ]
    !killed;
  check Alcotest.int "frames all released" 0 (H.resident rig.host rig.gid);
  (* Post-kill operations are inert, not fatal. *)
  Alcotest.(check bool) "reads are inert after kill" true
    (C.equal (sync_read rig ~gpa:0) C.Zero);
  H.check_invariants rig.host

(* Transient faults at a low rate: swap-ins retry transparently and the
   guest survives with correct data. *)
let transient_faults_are_retried () =
  let rig = mk_rig ~faults:(fault_plan ~transient:0.02 11) () in
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c;
  fill_anon rig ~first:1 ~n:300;
  (* Read everything back: swap-in traffic runs through the fault plan. *)
  for gpa = 1 to 299 do
    ignore (sync_read rig ~gpa)
  done;
  Alcotest.(check bool) "injected" true
    (rig.stats.Metrics.Stats.faults_injected_transient > 0);
  Alcotest.(check bool) "retried" true
    (rig.stats.Metrics.Stats.fault_retries > 0);
  Alcotest.(check bool) "guest survives" true
    (not (H.guest_killed rig.host rig.gid));
  Alcotest.(check bool) "content correct despite retries" true
    (C.equal (sync_read rig ~gpa:0) c);
  H.check_invariants rig.host

(* Every attempt fails: retries exhaust their bound and the guest is
   abandoned -- previously this path could spin or crash the host. *)
let retry_exhaustion_kills_guest () =
  let rig = mk_rig ~faults:(fault_plan ~transient:1.0 11) () in
  fill_anon rig ~first:0 ~n:300;
  (* Let the eviction traffic destage: reads served from the disk's
     write-back buffer never fault (by design), only media reads do. *)
  Test_util.drain rig.engine;
  (* fill stays under the 96-frame cap only by swapping; reading an
     evicted page back must fail every attempt. *)
  ignore (sync_read rig ~gpa:0);
  Alcotest.(check bool) "exhaustion counted" true
    (rig.stats.Metrics.Stats.fault_retry_exhausted > 0);
  Alcotest.(check bool) "guest abandoned" true
    (H.guest_killed rig.host rig.gid);
  check Alcotest.int "resources released" 0 (H.resident rig.host rig.gid);
  H.check_invariants rig.host

(* A hard media error is not retried: immediate abandonment. *)
let media_error_kills_immediately () =
  let rig = mk_rig ~faults:(fault_plan ~media:1.0 11) () in
  fill_anon rig ~first:0 ~n:300;
  Test_util.drain rig.engine;
  ignore (sync_read rig ~gpa:0);
  Alcotest.(check bool) "guest abandoned" true
    (H.guest_killed rig.host rig.gid);
  check Alcotest.int "no retries for media errors" 0
    rig.stats.Metrics.Stats.fault_retries;
  check Alcotest.int "one swap read hit the media error" 1
    rig.stats.Metrics.Stats.fault_media_reads;
  H.check_invariants rig.host

let kill_guest_is_idempotent_and_complete () =
  let rig = mk_rig () in
  let handler_calls = ref 0 in
  H.set_kill_handler rig.host (fun _ -> incr handler_calls);
  fill_anon rig ~first:0 ~n:300;
  Alcotest.(check bool) "some pages swapped" true
    (rig.stats.Metrics.Stats.host_swapouts > 0);
  H.kill_guest rig.host rig.gid;
  H.kill_guest rig.host rig.gid;
  check Alcotest.int "counted once" 1
    rig.stats.Metrics.Stats.fault_guest_kills;
  check Alcotest.int "handler called once" 1 !handler_calls;
  check Alcotest.int "nothing resident" 0 (H.resident rig.host rig.gid);
  Alcotest.(check bool) "reads inert" true
    (C.equal (sync_read rig ~gpa:3) C.Zero);
  H.check_invariants rig.host

(* ------------------------------------------------------------------ *)
(* Read-around: one request serves the target and its readahead        *)
(* ------------------------------------------------------------------ *)

(* The media reads the disk performs while [f] runs, as (sector,
   nsectors), first to last. *)
let media_reads rig f =
  let reads = ref [] in
  Storage.Disk.set_trace (H.disk rig.host)
    (Some
       (fun kind ~head:_ ~sector ~nsectors ->
         if kind = Storage.Disk.Read then
           reads := (sector, nsectors) :: !reads));
  f ();
  Storage.Disk.set_trace (H.disk rig.host) None;
  List.rev !reads

let slot_of rig gpa =
  match H.page_view rig.host ~guest:rig.gid ~gpa with
  | H.V_in_swap { slot } -> Some slot
  | _ -> None

let is_present rig gpa = H.page_state rig.host ~guest:rig.gid ~gpa = H.Present

let swap_readahead_installs_cluster () =
  let rig = mk_rig () in
  fill_anon rig ~first:0 ~n:300;
  Test_util.drain rig.engine;
  let slot =
    match slot_of rig 0 with
    | Some s -> s
    | None -> Alcotest.fail "setup: gpa 0 not in swap"
  in
  let cluster = 1 lsl Host.Hconfig.default.page_cluster in
  let s0 = slot - (slot mod cluster) in
  let neighbours =
    List.filter_map
      (fun gpa ->
        match slot_of rig gpa with
        | Some s when gpa <> 0 && s0 <= s && s < s0 + cluster -> Some (gpa, s)
        | _ -> None)
      (List.init (H.gpa_pages rig.host rig.gid) Fun.id)
  in
  Alcotest.(check bool) "setup: the cluster holds neighbours" true
    (neighbours <> []);
  let slots = slot :: List.map snd neighbours in
  let first = List.fold_left min slot slots
  and last = List.fold_left max slot slots in
  let swapins0 = rig.stats.Metrics.Stats.host_swapins in
  let reads = media_reads rig (fun () -> ignore (sync_read rig ~gpa:0)) in
  check
    Alcotest.(list (pair int int))
    "one read spans the cluster"
    [ (H.swap_slot_sector rig.host first,
       (last - first + 1) * Storage.Geom.sectors_per_page) ]
    reads;
  check Alcotest.int "swapins count the target and each neighbour"
    (swapins0 + 1 + List.length neighbours)
    rig.stats.Metrics.Stats.host_swapins;
  List.iter
    (fun (gpa, _) ->
      Alcotest.(check bool) "neighbour installed" true (is_present rig gpa))
    neighbours;
  H.check_invariants rig.host

(* Read image blocks [0, n) into gpas [0, n) under the Mapper, push them
   out with anonymous pressure until all are discarded to the image,
   then balloon the filler away so the refetch installs without
   reclaiming its own readahead. *)
let discard_to_image rig ~n =
  sync_vio_read rig ~block0:0 ~gpas:(Array.init n Fun.id);
  fill_anon rig ~first:100 ~n:300;
  Test_util.drain rig.engine;
  for gpa = 0 to n - 1 do
    if H.page_state rig.host ~guest:rig.gid ~gpa <> H.In_image then
      Alcotest.failf "setup: gpa %d not discarded to the image" gpa
  done;
  for gpa = 100 to 399 do
    H.balloon_steal rig.host ~guest:rig.gid ~gpa
  done

let image_readahead_installs_window () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  discard_to_image rig ~n:16;
  let refetches0 = rig.stats.Metrics.Stats.mapper_refetches in
  let reads = media_reads rig (fun () -> ignore (sync_read rig ~gpa:0)) in
  check
    Alcotest.(list (pair int int))
    "one read spans the Mapper window"
    [ (Storage.Vdisk.sector_of_block rig.vdisk 0,
       16 * Storage.Geom.sectors_per_page) ]
    reads;
  check Alcotest.int "each install is a refetch" (refetches0 + 16)
    rig.stats.Metrics.Stats.mapper_refetches;
  for gpa = 1 to 15 do
    Alcotest.(check bool) "window page installed" true (is_present rig gpa)
  done;
  H.check_invariants rig.host

(* A transient error on a multi-page image refetch: the window pages
   are released uninstalled, and the read narrows to the target page,
   which alone is charged retries. *)
let image_refetch_transient_error_narrows () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  discard_to_image rig ~n:16;
  let page = Storage.Geom.sectors_per_page in
  let sector = Storage.Vdisk.sector_of_block rig.vdisk 0 in
  let fails plan ~nsectors =
    Faults.Plan.read_error plan ~sector ~nsectors ~attempt:0 <> None
  in
  (* The first seed whose error lands in the window but off the target
     page, so the narrowed read succeeds first time. *)
  let rec pick seed =
    let plan = fault_plan ~transient:0.01 seed in
    if fails plan ~nsectors:(16 * page) && not (fails plan ~nsectors:page)
    then plan
    else pick (seed + 1)
  in
  Storage.Disk.set_faults (H.disk rig.host) (pick 0);
  let retries0 = rig.stats.Metrics.Stats.fault_retries in
  let refetches0 = rig.stats.Metrics.Stats.mapper_refetches in
  let reads = media_reads rig (fun () -> ignore (sync_read rig ~gpa:0)) in
  Storage.Disk.set_faults (H.disk rig.host) Faults.Plan.none;
  check
    Alcotest.(list (pair int int))
    "the window read, then the target page alone"
    [ (sector, 16 * page); (sector, page) ]
    reads;
  check Alcotest.int "the window's error is not a retry" retries0
    rig.stats.Metrics.Stats.fault_retries;
  check Alcotest.int "only the target installed" (refetches0 + 1)
    rig.stats.Metrics.Stats.mapper_refetches;
  Alcotest.(check bool) "target installed" true (is_present rig 0);
  for gpa = 1 to 15 do
    Alcotest.(check bool) "window page left in the image" true
      (H.page_state rig.host ~guest:rig.gid ~gpa = H.In_image)
  done;
  for gpa = 0 to 15 do
    Alcotest.(check bool) "reads back the image block" true
      (C.equal (sync_read rig ~gpa) (Storage.Vdisk.content rig.vdisk gpa))
  done;
  H.check_invariants rig.host

(* A media error on an image refetch kills the guest; the media-read
   counter is scoped to swap reads, so it does not move. *)
let image_refetch_media_error_kills () =
  let rig = mk_rig ~vs:Vswapper.Vsconfig.mapper_only () in
  discard_to_image rig ~n:16;
  Storage.Disk.set_faults (H.disk rig.host) (fault_plan ~media:1.0 11);
  ignore (sync_read rig ~gpa:0);
  Alcotest.(check bool) "guest abandoned" true
    (H.guest_killed rig.host rig.gid);
  check Alcotest.int "no retries for media errors" 0
    rig.stats.Metrics.Stats.fault_retries;
  check Alcotest.int "not a swap media read" 0
    rig.stats.Metrics.Stats.fault_media_reads;
  H.check_invariants rig.host

(* ------------------------------------------------------------------ *)
(* Async fault path: dedup, in-flight bound, teardown                  *)
(* ------------------------------------------------------------------ *)

(* Park a known page in swap and return the media sector its slot
   occupies, so a trace hook can count how often the disk actually
   touches it. *)
let swap_out_gpa0 rig =
  let c = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c;
  fill_anon rig ~first:1 ~n:300;
  (* Let the idle flush destage the eviction traffic: a swap-in must hit
     the media, not the write buffer, for these tests to time anything. *)
  Test_util.drain rig.engine;
  let slot_sector =
    match H.page_view rig.host ~guest:rig.gid ~gpa:0 with
    | H.V_in_swap { slot } -> H.swap_slot_sector rig.host slot
    | _ -> Alcotest.fail "expected gpa 0 in swap"
  in
  (c, slot_sector)

let async_concurrent_faults_coalesce () =
  let rig = mk_rig () in
  let c, slot_sector = swap_out_gpa0 rig in
  let merges0 = rig.stats.Metrics.Stats.async_waiter_merges in
  let hits = ref 0 in
  Storage.Disk.set_trace (H.disk rig.host)
    (Some
       (fun kind ~head:_ ~sector ~nsectors ->
         if
           kind = Storage.Disk.Read
           && sector <= slot_sector
           && slot_sector < sector + nsectors
         then incr hits));
  (* Three same-(guest,gpa) faults in the same tick: one starts the disk
     read, the other two must piggyback on the in-flight entry. *)
  let got = ref [] in
  for _ = 1 to 3 do
    H.touch_read rig.host ~guest:rig.gid ~gpa:0 (fun c -> got := c :: !got)
  done;
  Test_util.drain_until rig.engine (fun () -> List.length !got = 3);
  Storage.Disk.set_trace (H.disk rig.host) None;
  check Alcotest.int "one media access covered the slot" 1 !hits;
  check Alcotest.int "two waiters merged" (merges0 + 2)
    rig.stats.Metrics.Stats.async_waiter_merges;
  List.iter
    (fun g -> Alcotest.(check bool) "waiter saw the content" true (C.equal g c))
    !got;
  H.check_invariants rig.host

let async_inflight_bound_defers_and_drains () =
  let rig = mk_rig ~max_inflight:1 () in
  (* Two pages in swap with slots far enough apart that neither sits in
     the other's prefetch cluster (adjacent slots would piggyback rather
     than exercise the bound): with the bound at 1, the second fault
     must park until the first completes, then start and finish. *)
  let c0 = C.fresh_anon () and c1 = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c0;
  fill_anon rig ~first:2 ~n:150;
  sync_rep_write rig ~gpa:1 ~content:c1;
  fill_anon rig ~first:152 ~n:150;
  Test_util.drain rig.engine;
  (match H.page_state rig.host ~guest:rig.gid ~gpa:1 with
  | H.In_swap -> ()
  | _ -> Alcotest.fail "expected gpa 1 in swap");
  let deferred0 = rig.stats.Metrics.Stats.async_faults_deferred in
  let got = ref [] in
  H.touch_read rig.host ~guest:rig.gid ~gpa:0 (fun c -> got := c :: !got);
  H.touch_read rig.host ~guest:rig.gid ~gpa:1 (fun c -> got := c :: !got);
  Test_util.drain_until rig.engine (fun () -> List.length !got = 2);
  Alcotest.(check bool) "second start was parked" true
    (rig.stats.Metrics.Stats.async_faults_deferred > deferred0);
  (match List.rev !got with
  | [ g0; g1 ] ->
      Alcotest.(check bool) "first content" true (C.equal g0 c0);
      Alcotest.(check bool) "second content" true (C.equal g1 c1)
  | _ -> assert false);
  H.check_invariants rig.host

let async_kill_mid_fault_releases_waiters () =
  let rig = mk_rig () in
  let _, _ = swap_out_gpa0 rig in
  let resumed = ref 0 in
  H.touch_read rig.host ~guest:rig.gid ~gpa:0 (fun _ -> incr resumed);
  H.touch_read rig.host ~guest:rig.gid ~gpa:0 (fun _ -> incr resumed);
  (* The read is on the disk and one waiter is piggybacked; tear the
     guest down before the completion lands. *)
  H.kill_guest rig.host rig.gid;
  Test_util.drain rig.engine;
  check Alcotest.int "both waiters released" 2 !resumed;
  Alcotest.(check bool) "guest killed" true (H.guest_killed rig.host rig.gid);
  (* No leaked frames: everything the guest held came back.  A control
     rig that ran the same ops but was killed while idle must end with
     the identical free-frame count. *)
  let control = mk_rig () in
  let _ = swap_out_gpa0 control in
  H.kill_guest control.host control.gid;
  Test_util.drain control.engine;
  check Alcotest.int "frames all returned" (H.free_frames control.host)
    (H.free_frames rig.host);
  H.check_invariants rig.host

let async_parked_starts_survive_kill () =
  let rig = mk_rig ~max_inflight:1 () in
  let c0 = C.fresh_anon () and c1 = C.fresh_anon () in
  sync_rep_write rig ~gpa:0 ~content:c0;
  sync_rep_write rig ~gpa:1 ~content:c1;
  fill_anon rig ~first:2 ~n:300;
  Test_util.drain rig.engine;
  let resumed = ref 0 in
  H.touch_read rig.host ~guest:rig.gid ~gpa:0 (fun _ -> incr resumed);
  (* Parked behind the bound, not yet on the disk. *)
  H.touch_read rig.host ~guest:rig.gid ~gpa:1 (fun _ -> incr resumed);
  H.kill_guest rig.host rig.gid;
  Test_util.drain rig.engine;
  check Alcotest.int "in-flight waiter and parked starter both resolve" 2
    !resumed;
  H.check_invariants rig.host

(* ------------------------------------------------------------------ *)
(* Per-guest I/O QoS: token bucket + DRR drain                         *)
(* ------------------------------------------------------------------ *)

let mk_qos ~rate ~burst =
  let engine = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  (engine, stats, Host.Qos.create ~engine ~stats ~rate ~burst)

let qos_burst_admits_inline_then_parks () =
  let engine, stats, q = mk_qos ~rate:10 ~burst:4 in
  let ran = ref 0 in
  for _ = 1 to 4 do
    Host.Qos.admit q ~gid:0 (fun () -> incr ran)
  done;
  check Alcotest.int "burst admits inline" 4 !ran;
  check Alcotest.int "bucket spent" 0 (Host.Qos.tokens q ~gid:0);
  check Alcotest.int "nothing throttled yet" 0
    stats.Metrics.Stats.qos_throttled;
  Host.Qos.admit q ~gid:0 (fun () -> incr ran);
  check Alcotest.int "fifth parks" 4 !ran;
  check Alcotest.int "park counted" 1 stats.Metrics.Stats.qos_throttled;
  check Alcotest.int "queued" 1 (Host.Qos.queued q ~gid:0);
  (* At 10 faults/s the next whole token lands exactly at t = 100 ms:
     the drain must release then, not a tick earlier or later. *)
  Test_util.drain engine;
  check Alcotest.int "released on refill" 5 !ran;
  check Alcotest.int "queue empty" 0 (Host.Qos.queued q ~gid:0);
  check Alcotest.int "park duration accounted" 100_000
    stats.Metrics.Stats.qos_throttle_wait_us;
  check Alcotest.int "released at the refill instant" 100_000
    (Sim.Time.to_us (Sim.Engine.now engine))

let qos_refill_caps_at_burst () =
  let engine, _, q = mk_qos ~rate:1000 ~burst:2 in
  let ran = ref 0 in
  Host.Qos.admit q ~gid:0 (fun () -> incr ran);
  check Alcotest.int "one token left" 1 (Host.Qos.tokens q ~gid:0);
  (* Ten idle seconds at 1000/s would bank 10k tokens; the cap keeps
     the bucket at [burst], so the post-idle balance is burst - 1. *)
  Sim.Engine.run_after engine (Sim.Time.us 10_000_000) (fun () ->
      Host.Qos.admit q ~gid:0 (fun () -> incr ran));
  Test_util.drain engine;
  check Alcotest.int "both ran" 2 !ran;
  check Alcotest.int "refill capped at burst" 1 (Host.Qos.tokens q ~gid:0)

let qos_drr_interleaves_starved_guests () =
  let engine, stats, q = mk_qos ~rate:5 ~burst:1 in
  let order = ref [] in
  let admit gid tag =
    Host.Qos.admit q ~gid (fun () -> order := tag :: !order)
  in
  admit 0 "a0";
  admit 1 "b0";
  admit 0 "a1";
  admit 0 "a2";
  admit 1 "b1";
  admit 1 "b2";
  check Alcotest.int "four parked" 4 stats.Metrics.Stats.qos_throttled;
  Test_util.drain engine;
  (* Both guests regain a token at each 200 ms drain; the sweep
     releases one fault per guest per pass and rotates its start, so
     neither guest bursts ahead of the other. *)
  check
    (Alcotest.list Alcotest.string)
    "interleaved, rotating start"
    [ "a0"; "b0"; "a1"; "b1"; "b2"; "a2" ]
    (List.rev !order);
  check Alcotest.int "waits accumulated for all four parks"
    (200_000 + 200_000 + 400_000 + 400_000)
    stats.Metrics.Stats.qos_throttle_wait_us

let qos_per_guest_isolation () =
  let engine, _, q = mk_qos ~rate:10 ~burst:2 in
  let hog = ref 0 and neighbour = ref 0 in
  (* Guest 0 blows through its bucket... *)
  for _ = 1 to 10 do
    Host.Qos.admit q ~gid:0 (fun () -> incr hog)
  done;
  check Alcotest.int "hog throttled after its burst" 2 !hog;
  (* ...while guest 1's faults keep passing at full speed. *)
  Host.Qos.admit q ~gid:1 (fun () -> incr neighbour);
  Host.Qos.admit q ~gid:1 (fun () -> incr neighbour);
  check Alcotest.int "neighbour unaffected" 2 !neighbour;
  check Alcotest.int "neighbour queue empty" 0 (Host.Qos.queued q ~gid:1);
  Test_util.drain engine;
  check Alcotest.int "hog's parked faults all drain eventually" 10 !hog

(* ------------------------------------------------------------------ *)
(* Scrubber repair: slot relocation                                    *)
(* ------------------------------------------------------------------ *)

(* Property: relocating random live swap slots never loses or
   duplicates a page — the host invariants (slot-owner/EPT agreement,
   no double backing) hold after every move, and each gpa reads back
   exactly the content written before the shuffle. *)
let scrub_relocation_preserves_pages =
  QCheck.Test.make ~name:"host: slot relocation never loses or duplicates"
    ~count:25
    QCheck.(
      pair (int_range 50 150) (list_of_size Gen.(int_range 1 30) small_nat))
    (fun (npages, picks) ->
      let rig = mk_rig ~limit:(Some 32) ~swap_slots:512 () in
      let expected = Array.init npages (fun _ -> C.fresh_anon ()) in
      Array.iteri (fun gpa c -> sync_rep_write rig ~gpa ~content:c) expected;
      Test_util.drain rig.engine;
      let swap = H.swap_area rig.host in
      let live = ref [] in
      for s = 0 to Storage.Swap_area.nslots swap - 1 do
        if Storage.Swap_area.is_allocated swap s then live := s :: !live
      done;
      let live = Array.of_list !live in
      if Array.length live = 0 then
        QCheck.Test.fail_report "no pages swapped out";
      let moved = ref 0 in
      List.iter
        (fun pick ->
          (* Stale picks (slots freed by an earlier move) must be
             rejected harmlessly, so draw from the original snapshot. *)
          let slot = live.(pick mod Array.length live) in
          if H.relocate_slot rig.host slot then incr moved;
          Test_util.drain rig.engine;
          H.check_invariants rig.host)
        picks;
      if !moved = 0 then QCheck.Test.fail_report "no relocation ever landed";
      let ok = ref true in
      Array.iteri
        (fun gpa c ->
          if not (C.equal (sync_read rig ~gpa) c) then ok := false)
        expected;
      Test_util.drain rig.engine;
      H.check_invariants rig.host;
      !ok)

let tests =
  [
    ( "host:basics",
      [
        Alcotest.test_case "zero fill" `Quick zero_fill_on_first_touch;
        Alcotest.test_case "write/read roundtrip" `Quick write_read_roundtrip;
        Alcotest.test_case "swap roundtrip" `Quick swap_roundtrip_preserves_content;
        Alcotest.test_case "partial write merge" `Quick partial_write_merges_old_content;
        Alcotest.test_case "resident limit" `Quick resident_limit_enforced;
        Alcotest.test_case "small cgroup reclaim keeps half" `Quick
          small_cgroup_reclaim_keeps_half;
        Alcotest.test_case "full touch_write" `Quick full_touch_write_is_a_plain_overwrite;
        Alcotest.test_case "present writes cheap" `Quick writes_to_present_pages_are_cheap;
        Alcotest.test_case "bad config fails loudly" `Quick bad_config_fails_loudly;
        Alcotest.test_case "disk layout" `Quick disk_layout;
        Alcotest.test_case "footprint follows use" `Quick footprint_follows_use;
        qcheck frames_alloc_order;
      ] );
    ( "host:alignment",
      [
        Alcotest.test_case "misaligned read bypasses mapper" `Quick misaligned_vio_bypasses_mapper;
        Alcotest.test_case "misaligned write invalidates" `Quick misaligned_write_still_invalidates;
      ] );
    ( "host:pathologies",
      [
        Alcotest.test_case "silent writes" `Quick silent_writes_counted_in_baseline;
        Alcotest.test_case "stale reads" `Quick stale_reads_counted_in_baseline;
        Alcotest.test_case "false reads" `Quick false_reads_counted_in_baseline;
      ] );
    ( "host:mapper",
      [
        Alcotest.test_case "track and discard" `Quick mapper_tracks_and_discards;
        Alcotest.test_case "no stale reads" `Quick mapper_no_stale_reads;
        Alcotest.test_case "COW breaks tracking" `Quick mapper_cow_breaks_tracking;
        Alcotest.test_case "consistency protocol (C0/C1)" `Quick mapper_consistency_protocol;
        Alcotest.test_case "write-then-map" `Quick mapper_write_then_map;
      ] );
    ( "host:preventer",
      [
        Alcotest.test_case "rep remap avoids read" `Quick preventer_remap_avoids_read;
        Alcotest.test_case "sequential stores remap" `Quick preventer_sequential_stores_remap;
        Alcotest.test_case "timeout merges" `Quick preventer_timeout_merges;
      ] );
    ( "host:balloon",
      [
        Alcotest.test_case "steal and return" `Quick balloon_steal_and_return;
        Alcotest.test_case "steal swapped page" `Quick balloon_steal_swapped_page;
      ] );
    ( "host:substrate",
      [
        Alcotest.test_case "swap cache" `Quick swap_cache_avoids_rewrite;
        Alcotest.test_case "false anonymity" `Quick false_anonymity_hits_hypervisor_pages;
        Alcotest.test_case "guest isolation" `Quick two_guests_are_isolated;
        Alcotest.test_case "multi-page vio" `Quick multi_page_vio_roundtrip;
      ] );
    ( "host:resilience",
      [
        Alcotest.test_case "swap-full fallback" `Quick
          swap_full_falls_back_gracefully;
        Alcotest.test_case "host OOM kills guest" `Quick
          host_oom_kills_guest_not_host;
        Alcotest.test_case "transient retried" `Quick
          transient_faults_are_retried;
        Alcotest.test_case "retry exhaustion" `Quick
          retry_exhaustion_kills_guest;
        Alcotest.test_case "media error kills" `Quick
          media_error_kills_immediately;
        Alcotest.test_case "kill idempotent" `Quick
          kill_guest_is_idempotent_and_complete;
      ] );
    ( "host:read-around",
      [
        Alcotest.test_case "swap cluster readahead" `Quick
          swap_readahead_installs_cluster;
        Alcotest.test_case "image window readahead" `Quick
          image_readahead_installs_window;
        Alcotest.test_case "image transient error narrows" `Quick
          image_refetch_transient_error_narrows;
        Alcotest.test_case "image media error kills" `Quick
          image_refetch_media_error_kills;
      ] );
    ( "host:async-faults",
      [
        Alcotest.test_case "concurrent faults coalesce" `Quick
          async_concurrent_faults_coalesce;
        Alcotest.test_case "in-flight bound defers and drains" `Quick
          async_inflight_bound_defers_and_drains;
        Alcotest.test_case "kill mid-fault releases waiters" `Quick
          async_kill_mid_fault_releases_waiters;
        Alcotest.test_case "parked starts survive kill" `Quick
          async_parked_starts_survive_kill;
      ] );
    ( "host:qos",
      [
        Alcotest.test_case "burst admits inline then parks" `Quick
          qos_burst_admits_inline_then_parks;
        Alcotest.test_case "refill caps at burst" `Quick
          qos_refill_caps_at_burst;
        Alcotest.test_case "DRR interleaves starved guests" `Quick
          qos_drr_interleaves_starved_guests;
        Alcotest.test_case "per-guest isolation" `Quick
          qos_per_guest_isolation;
      ] );
    ( "host:scrub",
      [
        qcheck scrub_relocation_preserves_pages;
      ] );
    ( "host:shadow-model",
      [
        qcheck (shadow_property Vswapper.Vsconfig.baseline "baseline agrees with shadow");
        qcheck (shadow_property Vswapper.Vsconfig.mapper_only "mapper agrees with shadow");
      ] );
  ]
