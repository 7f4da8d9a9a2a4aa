(* Tests for geometry, content tags, the virtual disk, the mechanical
   disk model (including the write-back cache), and the cluster-based
   swap-slot allocator. *)

let check = Alcotest.check
let qcheck = Test_util.qcheck

(* ------------------------------------------------------------------ *)
(* Geom / Content                                                      *)
(* ------------------------------------------------------------------ *)

let geom_units () =
  check Alcotest.int "sectors per page" 8 Storage.Geom.sectors_per_page;
  check Alcotest.int "pages of mb" 256 (Storage.Geom.pages_of_mb 1);
  check Alcotest.int "sectors of pages" 80 (Storage.Geom.sectors_of_pages 10);
  check Alcotest.int "mb of pages" 2 (Storage.Geom.mb_of_pages 512)

let content_equality () =
  let open Storage.Content in
  Alcotest.(check bool) "zero" true (equal Zero Zero);
  Alcotest.(check bool) "anon same" true (equal (Anon 3) (Anon 3));
  Alcotest.(check bool) "anon diff" false (equal (Anon 3) (Anon 4));
  let b v = Block { disk = 1; block = 2; version = v } in
  Alcotest.(check bool) "block same" true (equal (b 0) (b 0));
  Alcotest.(check bool) "block version" false (equal (b 0) (b 1));
  Alcotest.(check bool) "cross kind" false (equal Zero (Anon 0))

let content_fresh_unique () =
  let a = Storage.Content.fresh_anon () in
  let b = Storage.Content.fresh_anon () in
  Alcotest.(check bool) "unique" false (Storage.Content.equal a b)

let content_combine_deterministic () =
  let open Storage.Content in
  let base = Block { disk = 0; block = 7; version = 2 } in
  Alcotest.(check bool) "same inputs same tag" true
    (equal (combine base 5) (combine base 5));
  Alcotest.(check bool) "different base differs" false
    (equal (combine base 5) (combine Zero 5));
  Alcotest.(check bool) "different gen differs" false
    (equal (combine base 5) (combine base 6))

(* ------------------------------------------------------------------ *)
(* Vdisk                                                               *)
(* ------------------------------------------------------------------ *)

let vdisk_pristine_and_write () =
  let vd = Storage.Vdisk.create ~id:3 ~base_sector:1000 ~nblocks:16 in
  check Alcotest.int "sector of block" (1000 + 40) (Storage.Vdisk.sector_of_block vd 5);
  (match Storage.Vdisk.content vd 5 with
  | Storage.Content.Block { disk = 3; block = 5; version = 0 } -> ()
  | c -> Alcotest.failf "pristine content: %s" (Storage.Content.to_string c));
  let v1 = Storage.Vdisk.write vd 5 (Storage.Content.Anon 99) in
  check Alcotest.int "version bumps" 1 v1;
  Alcotest.(check bool) "reads back what was written" true
    (Storage.Content.equal (Storage.Vdisk.content vd 5) (Storage.Content.Anon 99));
  check Alcotest.int "other block untouched" 0 (Storage.Vdisk.version vd 6)

let vdisk_bounds () =
  let vd = Storage.Vdisk.create ~id:0 ~base_sector:0 ~nblocks:4 in
  Alcotest.check_raises "oob" (Invalid_argument "Vdisk 0: block 4 out of range")
    (fun () -> ignore (Storage.Vdisk.content vd 4))

(* ------------------------------------------------------------------ *)
(* Disk                                                                *)
(* ------------------------------------------------------------------ *)

let mk_disk () =
  let engine = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let disk = Storage.Disk.create ~engine ~stats Storage.Disk.default_config in
  (engine, stats, disk)

let disk_sequential_cheaper_than_random () =
  let _, _, disk = mk_disk () in
  (* Head starts at 0; reading at 0 is sequential. *)
  let seq = Storage.Disk.service_time disk ~sector:0 ~nsectors:8 in
  let rnd = Storage.Disk.service_time disk ~sector:50_000_000 ~nsectors:8 in
  Alcotest.(check bool) "big asymmetry" true (rnd > 50 * seq)

let disk_forward_skip_cheap () =
  let _, _, disk = mk_disk () in
  let skip = Storage.Disk.service_time disk ~sector:100 ~nsectors:8 in
  let back = Storage.Disk.service_time disk ~sector:(-100) ~nsectors:8 in
  ignore back;
  (* A 100-sector forward gap costs about the gap's transfer time. *)
  Alcotest.(check bool) "forward skip < 1ms" true (Sim.Time.to_us skip < 1_000)

let disk_backward_expensive () =
  let engine, _, disk = mk_disk () in
  (* Park the head at sector 1008 by serving one read. *)
  Storage.Disk.submit disk ~sector:1000 ~nsectors:8 ~kind:Storage.Disk.Read
    (fun _ -> ());
  Test_util.drain engine;
  let back = Storage.Disk.service_time disk ~sector:900 ~nsectors:8 in
  let fwd = Storage.Disk.service_time disk ~sector:1100 ~nsectors:8 in
  (* A short backward jump pays seek + rotation; forward does not. *)
  Alcotest.(check bool) "backward >> forward" true
    (Sim.Time.to_us back > 4 * Sim.Time.to_us fwd)

let disk_read_completion_ordering () =
  let engine, stats, disk = mk_disk () in
  let log = ref [] in
  Storage.Disk.submit disk ~sector:0 ~nsectors:8 ~kind:Storage.Disk.Read
    (fun _ -> log := "a" :: !log);
  Storage.Disk.submit disk ~sector:8 ~nsectors:8 ~kind:Storage.Disk.Read
    (fun _ -> log := "b" :: !log);
  Test_util.drain engine;
  Alcotest.(check (list string)) "FIFO reads" [ "a"; "b" ] (List.rev !log);
  check Alcotest.int "two media reads" 2 stats.Metrics.Stats.disk_ops;
  check Alcotest.int "sectors" 16 stats.Metrics.Stats.disk_sectors_read;
  check Alcotest.int "second was sequential" 2 stats.Metrics.Stats.disk_seq_reads

let disk_write_acks_fast () =
  let engine, _, disk = mk_disk () in
  let acked_at = ref (-1) in
  Storage.Disk.submit disk ~sector:1_000_000 ~nsectors:8 ~kind:Storage.Disk.Write
    (fun _ -> acked_at := Sim.Engine.now engine);
  Test_util.drain engine;
  (* Buffered ack is orders of magnitude below a random-seek time. *)
  Alcotest.(check bool) "fast ack" true (!acked_at >= 0 && !acked_at < 1_000)

let disk_read_served_from_write_buffer () =
  let engine, stats, disk = mk_disk () in
  Storage.Disk.submit disk ~sector:500_000 ~nsectors:8 ~kind:Storage.Disk.Write
    (fun _ -> ());
  let done_at = ref (-1) in
  Storage.Disk.submit disk ~sector:500_000 ~nsectors:8 ~kind:Storage.Disk.Read
    (fun _ -> done_at := Sim.Engine.now engine);
  Test_util.drain_until engine (fun () -> !done_at >= 0);
  Alcotest.(check bool) "RAM-speed read" true (!done_at < 1_000);
  check Alcotest.int "no media read" 0 stats.Metrics.Stats.disk_sectors_read

let disk_flushes_when_idle () =
  let engine, stats, disk = mk_disk () in
  Storage.Disk.submit disk ~sector:100 ~nsectors:16 ~kind:Storage.Disk.Write
    (fun _ -> ());
  Storage.Disk.submit disk ~sector:116 ~nsectors:16 ~kind:Storage.Disk.Write
    (fun _ -> ());
  check Alcotest.int "buffered" 32 (Storage.Disk.buffered_write_sectors disk);
  Test_util.drain engine;
  check Alcotest.int "flushed" 0 (Storage.Disk.buffered_write_sectors disk);
  (* Adjacent runs merged into one media write. *)
  check Alcotest.int "one flush op" 1 stats.Metrics.Stats.disk_ops;
  check Alcotest.int "sectors written" 32 stats.Metrics.Stats.disk_sectors_written

(* Reads queued while the disk is busy coalesce: three nearby requests
   become one seek + one transfer, with every completion dispatched from
   the single batch event. *)
let disk_coalesces_queued_reads () =
  let engine, stats, disk = mk_disk () in
  let log = ref [] in
  let r name sector =
    Storage.Disk.submit disk ~sector ~nsectors:8 ~kind:Storage.Disk.Read
      (fun _ -> log := name :: !log)
  in
  (* The first submit dispatches immediately (batch of one)... *)
  r "busy" 1_000_000;
  (* ...so these three queue during its service and coalesce. *)
  r "a" 2_000_000;
  r "b" 2_000_008;
  r "c" 2_000_100;
  Test_util.drain engine;
  Alcotest.(check (list string)) "ascending-sector completion order"
    [ "busy"; "a"; "b"; "c" ] (List.rev !log);
  check Alcotest.int "two media accesses" 2 stats.Metrics.Stats.disk_ops;
  check Alcotest.int "two batches" 2 stats.Metrics.Stats.disk_read_batches;
  check Alcotest.int "four batched reads" 4
    stats.Metrics.Stats.disk_batched_reads;
  (* batches < requests: the queue actually merged something. *)
  Alcotest.(check bool) "coalescing happened" true
    (stats.Metrics.Stats.disk_read_batches
    < stats.Metrics.Stats.disk_batched_reads);
  (* Second batch spans 2_000_000..2_000_108 (gaps included). *)
  check Alcotest.int "sectors include span gaps" (8 + 108)
    stats.Metrics.Stats.disk_sectors_read

(* A batch's media span never exceeds max_batch_sectors. *)
let disk_batch_cap () =
  let engine = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let cfg = { Storage.Disk.default_config with max_batch_sectors = 16 } in
  let disk = Storage.Disk.create ~engine ~stats cfg in
  Storage.Disk.submit disk ~sector:5_000_000 ~nsectors:8
    ~kind:Storage.Disk.Read (fun _ -> ());
  List.iter
    (fun s ->
      Storage.Disk.submit disk ~sector:s ~nsectors:8 ~kind:Storage.Disk.Read
        (fun _ -> ()))
    [ 6_000_000; 6_000_008; 6_000_016 ];
  Test_util.drain engine;
  (* 24 adjacent sectors under a 16-sector cap: the pair batches, the
     third goes alone. *)
  check Alcotest.int "three batches" 3 stats.Metrics.Stats.disk_read_batches;
  check Alcotest.int "four reads" 4 stats.Metrics.Stats.disk_batched_reads

(* covered_by_buffer semantics: only a read wholly inside a buffered
   write run is served at RAM speed; partial overlap goes to the media. *)
let disk_read_after_write_partial_overlap () =
  let engine, stats, disk = mk_disk () in
  Storage.Disk.submit disk ~sector:1_000 ~nsectors:16 ~kind:Storage.Disk.Write
    (fun _ -> ());
  let inside = ref false and partial = ref false in
  Storage.Disk.submit disk ~sector:1_004 ~nsectors:8 ~kind:Storage.Disk.Read
    (fun _ -> inside := true);
  Storage.Disk.submit disk ~sector:1_008 ~nsectors:16 ~kind:Storage.Disk.Read
    (fun _ -> partial := true);
  Test_util.drain_until engine (fun () -> !inside && !partial);
  (* Only the straddling read touched the media. *)
  check Alcotest.int "one media read" 16 stats.Metrics.Stats.disk_sectors_read

(* queue_depth counts waiting reads + buffered write runs + the access
   in flight, and returns to zero once everything drains. *)
let disk_queue_depth_consistency () =
  let engine, _, disk = mk_disk () in
  check Alcotest.int "idle" 0 (Storage.Disk.queue_depth disk);
  Storage.Disk.submit disk ~sector:3_000_000 ~nsectors:8
    ~kind:Storage.Disk.Read (fun _ -> ());
  check Alcotest.int "one in service" 1 (Storage.Disk.queue_depth disk);
  List.iter
    (fun s ->
      Storage.Disk.submit disk ~sector:s ~nsectors:8 ~kind:Storage.Disk.Read
        (fun _ -> ()))
    [ 4_000_000; 4_000_008; 4_000_016 ];
  Storage.Disk.write_buffered disk ~sector:9_000_000 ~nsectors:8;
  check Alcotest.int "3 reads + 1 run + 1 in service" 5
    (Storage.Disk.queue_depth disk);
  Test_util.drain engine;
  check Alcotest.int "drained" 0 (Storage.Disk.queue_depth disk)

(* Property: under arbitrary interleavings, every submitted read
   completes exactly once, and same-sector reads complete in submission
   order even when coalesced into different positions of a batch. *)
let disk_every_read_completes_once =
  QCheck.Test.make
    ~name:"disk: reads complete exactly once, same-sector in order"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 0 40))
    (fun picks ->
      let engine, _, disk = mk_disk () in
      (* A small sector universe (spread out to force seeks) so distinct
         submissions frequently hit the same sector. *)
      let completed = ref [] in
      List.iteri
        (fun i p ->
          let sector = p * 10_000 in
          Storage.Disk.submit disk ~sector ~nsectors:8
            ~kind:Storage.Disk.Read (fun _ ->
              completed := (sector, i) :: !completed))
        picks;
      Test_util.drain engine;
      let completed = List.rev !completed in
      let ids = List.map snd completed in
      let n = List.length picks in
      List.sort compare ids = List.init n Fun.id
      && (* per sector, completion ids appear in submission order *)
      List.for_all
        (fun p ->
          let sector = p * 10_000 in
          let mine =
            List.filter_map
              (fun (s, i) -> if s = sector then Some i else None)
              completed
          in
          mine = List.sort compare mine)
        picks)

let disk_rejects_empty () =
  let _, _, disk = mk_disk () in
  Alcotest.check_raises "zero sectors"
    (Invalid_argument "Disk.submit: nsectors must be positive") (fun () ->
      Storage.Disk.submit disk ~sector:0 ~nsectors:0 ~kind:Storage.Disk.Read
        (fun _ -> ()))

(* Regression: submit/write_buffered accepted negative sectors and
   requests past the end of the media; they now validate bounds. *)
let disk_rejects_out_of_bounds () =
  let _, _, disk = mk_disk () in
  Alcotest.check_raises "negative sector"
    (Invalid_argument "Disk.submit: negative sector -8") (fun () ->
      Storage.Disk.submit disk ~sector:(-8) ~nsectors:8
        ~kind:Storage.Disk.Read (fun _ -> ()));
  let cap = Storage.Disk.capacity_sectors in
  Alcotest.check_raises "past capacity"
    (Invalid_argument
       (Printf.sprintf "Disk.submit: [%d, %d) past capacity %d" (cap - 4)
          (cap + 4) cap)) (fun () ->
      Storage.Disk.submit disk ~sector:(cap - 4) ~nsectors:8
        ~kind:Storage.Disk.Write (fun _ -> ()));
  Alcotest.check_raises "write_buffered checked too"
    (Invalid_argument "Disk.write_buffered: negative sector -1") (fun () ->
      Storage.Disk.write_buffered disk ~sector:(-1) ~nsectors:1);
  (* The very last sectors are still valid. *)
  Storage.Disk.submit disk ~sector:(cap - 8) ~nsectors:8
    ~kind:Storage.Disk.Write (fun _ -> ())

(* An out-of-range config field fails at [create], naming the field and
   its range, instead of being clamped into range. *)
let disk_bad_config_fails_loudly () =
  let create config =
    ignore
      (Storage.Disk.create ~engine:(Sim.Engine.create ())
         ~stats:(Metrics.Stats.create ()) config)
  in
  let d = Storage.Disk.default_config in
  create d;
  create { d with num_queues = 8; per_queue_depth = 4 };
  List.iter
    (fun (config, msg) ->
      Alcotest.check_raises msg
        (Invalid_argument ("Disk.create: Disk.config." ^ msg)) (fun () ->
          create config))
    [
      ({ d with max_batch_sectors = 0 }, "max_batch_sectors must be >= 1");
      ({ d with num_queues = 0 }, "num_queues must be >= 1");
      ({ d with per_queue_depth = 0 }, "per_queue_depth must be >= 1");
    ]

let disk_injects_typed_errors () =
  let engine = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let faults =
    Faults.Plan.create (Faults.Config.make ~seed:5 ~media_rate:1.0 ())
  in
  let disk =
    Storage.Disk.create ~engine ~stats ~faults Storage.Disk.default_config
  in
  let got = ref None in
  Storage.Disk.submit disk ~sector:0 ~nsectors:8 ~kind:Storage.Disk.Read
    (fun reply ->
      got := Some reply.Storage.Disk.result;
      Alcotest.(check bool) "service time positive" true
        (Sim.Time.to_us reply.Storage.Disk.service > 0));
  Test_util.drain engine;
  (match !got with
  | Some (Error Storage.Disk.Media) -> ()
  | Some (Error Storage.Disk.Transient) -> Alcotest.fail "expected media"
  | Some (Ok ()) -> Alcotest.fail "expected an injected error"
  | None -> Alcotest.fail "read never completed");
  check Alcotest.int "counted" 1 stats.Metrics.Stats.faults_injected_media;
  (* Writes are absorbed by the write-back cache: always Ok. *)
  let wrote = ref false in
  Storage.Disk.submit disk ~sector:64 ~nsectors:8 ~kind:Storage.Disk.Write
    (fun reply ->
      wrote := reply.Storage.Disk.result = Ok ());
  Test_util.drain engine;
  Alcotest.(check bool) "write ok under faults" true !wrote

let disk_degraded_latency () =
  let engine = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let mk faults =
    Storage.Disk.create ~engine ~stats ~faults Storage.Disk.default_config
  in
  let slow =
    mk
      (Faults.Plan.create
         (Faults.Config.make ~seed:5 ~degraded_rate:1.0 ~degraded_mult:4.0 ()))
  in
  let fast = mk Faults.Plan.none in
  let time disk =
    let t = ref Sim.Time.zero in
    Storage.Disk.submit disk ~sector:10_000 ~nsectors:8 ~kind:Storage.Disk.Read
      (fun reply -> t := reply.Storage.Disk.service);
    Test_util.drain engine;
    Sim.Time.to_us !t
  in
  let fast_us = time fast and slow_us = time slow in
  Alcotest.(check bool) "~4x slower" true
    (slow_us > 3 * fast_us && slow_us < 6 * fast_us);
  check Alcotest.int "degraded batches counted" 1
    stats.Metrics.Stats.faults_degraded_batches

(* ------------------------------------------------------------------ *)
(* Write-buffer run index                                              *)
(* ------------------------------------------------------------------ *)

(* The write buffer as a sorted (start, len) list, the reference that
   [Storage.Write_runs] must match answer for answer.  The three
   functions are the list-based disk code, unchanged; the cap is small
   so that chunking shows within a small sector universe. *)
module List_runs = struct
  type t = {
    mutable write_runs : (int * int) list;
    mutable write_buf_sectors : int;
  }

  let max_flush_sectors = 6

  (* Insert a dirty run, merging with overlapping/adjacent runs; the buffer
     occupancy is maintained incrementally (placed minus merged-away). *)
  let add_write_run t sector nsectors =
    let s0 = sector and e0 = sector + nsectors in
    let merged = ref 0 in
    let placed = ref 0 in
    let rec insert acc s e = function
      | [] ->
          placed := e - s;
          List.rev ((s, e - s) :: acc)
      | ((rs, rl) as run) :: rest ->
          let re = rs + rl in
          if re < s then insert (run :: acc) s e rest
          else if rs > e then begin
            placed := e - s;
            List.rev_append acc ((s, e - s) :: run :: rest)
          end
          else begin
            merged := !merged + rl;
            insert acc (min s rs) (max e re) rest
          end
    in
    t.write_runs <- insert [] s0 e0 t.write_runs;
    t.write_buf_sectors <- t.write_buf_sectors + !placed - !merged

  (* Is [sector, sector+n) fully inside some buffered run? *)
  let covered_by_buffer t sector nsectors =
    List.exists
      (fun (rs, rl) -> sector >= rs && sector + nsectors <= rs + rl)
      t.write_runs

  (* Take up to [max_flush_sectors] from the buffered run closest to the
     destage head (a one-step elevator with bounded chunks).  When the head
     sits inside the chosen run the chunk starts at the head — continuing
     the current sweep — rather than paying a backward seek to the run
     start; the sectors behind the head stay buffered for a later pass. *)
  let pop_flush_chunk t ~head =
    match t.write_runs with
    | [] -> None
    | runs ->
        let best =
          List.fold_left
            (fun acc ((rs, rl) as run) ->
              let re = rs + rl in
              let dist =
                if head >= rs && head <= re then 0
                else min (abs (rs - head)) (abs (re - head))
              in
              match acc with
              | None -> Some (dist, run)
              | Some (bd, _) -> if dist < bd then Some (dist, run) else acc)
            None runs
        in
        (match best with
        | None -> None
        | Some (_, ((rs, rl) as run)) ->
            let re = rs + rl in
            let start = if head > rs && head < re then head else rs in
            let chunk = min (re - start) max_flush_sectors in
            let left = start - rs in
            let right = re - (start + chunk) in
            t.write_runs <-
              List.concat_map
                (fun r ->
                  if r = run then
                    (if left > 0 then [ (rs, left) ] else [])
                    @ (if right > 0 then [ (start + chunk, right) ] else [])
                  else [ r ])
                t.write_runs;
            t.write_buf_sectors <- t.write_buf_sectors - chunk;
            Some (start, chunk))
end

type runs_op = Add of int * int | Covers of int * int | Pop of int

let print_runs_op = function
  | Add (s, n) -> Printf.sprintf "add %d+%d" s n
  | Covers (s, n) -> Printf.sprintf "covers %d+%d" s n
  | Pop head -> Printf.sprintf "pop @%d" head

(* Property: on random add/covers/pop sequences over a small sector
   universe — so that merges, touching runs, heads inside runs and
   equidistant heads all occur — the index gives the list code's
   answers, popped chunks, run count, sector total and covered set. *)
let write_runs_match_list_code =
  let universe = 60 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun s n -> Add (s, n)) (int_range 0 48) (int_range 1 8));
          (2, map2 (fun s n -> Covers (s, n)) (int_range 0 48) (int_range 1 8));
          (3, map (fun h -> Pop h) (int_range 0 universe));
        ])
  in
  QCheck.Test.make ~name:"write_runs: matches the list code" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list print_runs_op)
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let r = { List_runs.write_runs = []; write_buf_sectors = 0 } in
      let w = Storage.Write_runs.create () in
      List.for_all
        (fun op ->
          (match op with
          | Add (sector, nsectors) ->
              List_runs.add_write_run r sector nsectors;
              Storage.Write_runs.add w ~sector ~nsectors;
              true
          | Covers (sector, nsectors) ->
              List_runs.covered_by_buffer r sector nsectors
              = Storage.Write_runs.covers w ~sector ~nsectors
          | Pop head ->
              List_runs.pop_flush_chunk r ~head
              = Storage.Write_runs.pop_nearest w ~head
                  ~max:List_runs.max_flush_sectors)
          && List.length r.write_runs = Storage.Write_runs.count w
          && r.write_buf_sectors = Storage.Write_runs.sectors w
          && List.for_all
               (fun sector ->
                 List_runs.covered_by_buffer r sector 1
                 = Storage.Write_runs.covers w ~sector ~nsectors:1)
               (List.init universe Fun.id))
        ops)

let write_runs_tie_goes_to_lower_run () =
  let w = Storage.Write_runs.create () in
  Storage.Write_runs.add w ~sector:10 ~nsectors:10;
  Storage.Write_runs.add w ~sector:30 ~nsectors:10;
  (* Head 25 is 5 sectors past [10, 20) and 5 short of [30, 40). *)
  check Alcotest.(option (pair int int)) "lower run popped" (Some (10, 10))
    (Storage.Write_runs.pop_nearest w ~head:25 ~max:64);
  check Alcotest.int "one run left" 1 (Storage.Write_runs.count w);
  Alcotest.(check bool) "upper run still buffered" true
    (Storage.Write_runs.covers w ~sector:30 ~nsectors:10)

let write_runs_head_inside_run () =
  let w = Storage.Write_runs.create () in
  Storage.Write_runs.add w ~sector:100 ~nsectors:100;
  check Alcotest.(option (pair int int)) "chunk starts at the head"
    (Some (150, 20))
    (Storage.Write_runs.pop_nearest w ~head:150 ~max:20);
  check Alcotest.int "left and right parts" 2 (Storage.Write_runs.count w);
  check Alcotest.int "sectors" 80 (Storage.Write_runs.sectors w);
  Alcotest.(check bool) "left part buffered" true
    (Storage.Write_runs.covers w ~sector:100 ~nsectors:50);
  Alcotest.(check bool) "chunk gone" false
    (Storage.Write_runs.covers w ~sector:150 ~nsectors:1);
  Alcotest.(check bool) "right part buffered" true
    (Storage.Write_runs.covers w ~sector:170 ~nsectors:30)

(* ------------------------------------------------------------------ *)
(* Swap area                                                           *)
(* ------------------------------------------------------------------ *)

(* The slot allocator without the wholly-free-cluster count: the
   round-robin cluster walk and the first-free slot scan of
   [Storage.Swap_area], over plain arrays.  The swap-area property runs
   it in lockstep with the real area. *)
module Walk_alloc = struct
  let cluster_slots = Storage.Swap_area.cluster_slots

  type t = {
    nslots : int;
    used : bool array;
    free_in_cluster : int array;
    mutable cur_cluster : int;
    mutable cur_offset : int;
    mutable scan_cursor : int;
    mutable in_use : int;
    mutable fragmented_allocs : int;
  }

  let create nslots =
    let nclusters = (nslots + cluster_slots - 1) / cluster_slots in
    {
      nslots;
      used = Array.make nslots false;
      free_in_cluster =
        Array.init nclusters (fun c ->
            min cluster_slots (nslots - (c * cluster_slots)));
      cur_cluster = -1;
      cur_offset = 0;
      scan_cursor = 0;
      in_use = 0;
      fragmented_allocs = 0;
    }

  let nclusters t = Array.length t.free_in_cluster
  let cluster_capacity t c = min cluster_slots (t.nslots - (c * cluster_slots))

  let take t slot =
    t.used.(slot) <- true;
    t.free_in_cluster.(slot / cluster_slots) <-
      t.free_in_cluster.(slot / cluster_slots) - 1;
    t.in_use <- t.in_use + 1;
    Some slot

  let find_free_cluster t =
    let n = nclusters t in
    let start = if t.cur_cluster < 0 then 0 else (t.cur_cluster + 1) mod n in
    let rec go i remaining =
      if remaining = 0 then None
      else if t.free_in_cluster.(i) = cluster_capacity t i then Some i
      else go ((i + 1) mod n) (remaining - 1)
    in
    go start n

  let rec alloc t =
    if t.in_use = t.nslots then None
    else if
      t.cur_cluster >= 0 && t.cur_offset < cluster_capacity t t.cur_cluster
    then begin
      let slot = (t.cur_cluster * cluster_slots) + t.cur_offset in
      t.cur_offset <- t.cur_offset + 1;
      if not t.used.(slot) then take t slot else alloc t
    end
    else
      match find_free_cluster t with
      | Some c ->
          t.cur_cluster <- c;
          t.cur_offset <- 0;
          alloc t
      | None ->
          t.cur_cluster <- -1;
          t.fragmented_allocs <- t.fragmented_allocs + 1;
          let rec find i remaining =
            if remaining = 0 then None
            else if not t.used.(i) then Some i
            else find ((i + 1) mod t.nslots) (remaining - 1)
          in
          (match find t.scan_cursor t.nslots with
          | None -> None
          | Some slot ->
              t.scan_cursor <- (slot + 1) mod t.nslots;
              take t slot)

  let free t slot =
    t.used.(slot) <- false;
    t.free_in_cluster.(slot / cluster_slots) <-
      t.free_in_cluster.(slot / cluster_slots) + 1;
    t.in_use <- t.in_use - 1
end

let swap_cluster_sequential () =
  let sa = Storage.Swap_area.create ~base_sector:0 ~nslots:1024 in
  let slots =
    List.init 300 (fun i ->
        Option.get (Storage.Swap_area.alloc sa (Storage.Content.Anon i)))
  in
  (* Consecutive allocations fill clusters sequentially. *)
  let consecutive =
    List.for_all2 (fun a b -> b = a + 1)
      (List.filteri (fun i _ -> i < 299) slots)
      (List.tl slots)
  in
  Alcotest.(check bool) "sequential runs" true consecutive;
  check Alcotest.int "in use" 300 (Storage.Swap_area.in_use sa)

(* Regression: create used truncating division, silently resizing the
   area (300 -> 256 slots, 100 -> 256).  The cluster count now rounds
   up and the exact requested nslots is kept. *)
let swap_cluster_rounding () =
  check Alcotest.int "cluster size" 256 Storage.Swap_area.cluster_slots;
  let sa = Storage.Swap_area.create ~base_sector:0 ~nslots:300 in
  check Alcotest.int "exact nslots kept" 300 (Storage.Swap_area.nslots sa);
  check Alcotest.int "partial cluster counts as free" 2
    (Storage.Swap_area.free_clusters sa);
  let sa2 = Storage.Swap_area.create ~base_sector:0 ~nslots:100 in
  check Alcotest.int "sub-cluster area keeps size" 100
    (Storage.Swap_area.nslots sa2);
  (* Every requested slot is allocatable, and exhaustion happens at
     exactly the requested count, not at a cluster boundary. *)
  let slots =
    List.init 300 (fun i -> Storage.Swap_area.alloc sa (Storage.Content.Anon i))
  in
  Alcotest.(check bool) "all 300 allocate" true
    (List.for_all Option.is_some slots);
  Alcotest.(check (option int)) "301st fails" None
    (Storage.Swap_area.alloc sa Storage.Content.Zero);
  check Alcotest.int "in use" 300 (Storage.Swap_area.in_use sa);
  (* Freeing the partial cluster's slots makes it wholly free again. *)
  List.iter
    (fun s -> if Option.get s >= 256 then Storage.Swap_area.free sa (Option.get s))
    slots;
  check Alcotest.int "partial cluster free again" 1
    (Storage.Swap_area.free_clusters sa)

(* create used to clamp a size below 1 to a one-slot area. *)
let swap_bad_size_fails_loudly () =
  List.iter
    (fun nslots ->
      Alcotest.check_raises
        (Printf.sprintf "nslots %d" nslots)
        (Invalid_argument "Swap_area.create: nslots must be >= 1")
        (fun () -> ignore (Storage.Swap_area.create ~base_sector:0 ~nslots)))
    [ 0; -5 ];
  let sa = Storage.Swap_area.create ~base_sector:0 ~nslots:1 in
  check Alcotest.int "one slot" 1 (Storage.Swap_area.nslots sa);
  Alcotest.(check (option int)) "it allocates" (Some 0)
    (Storage.Swap_area.alloc sa Storage.Content.Zero);
  Alcotest.(check (option int)) "then the area is full" None
    (Storage.Swap_area.alloc sa Storage.Content.Zero)

let swap_roundtrip () =
  let sa = Storage.Swap_area.create ~base_sector:800 ~nslots:256 in
  let c = Storage.Content.Anon 7 in
  let s = Option.get (Storage.Swap_area.alloc sa c) in
  Alcotest.(check bool) "allocated" true (Storage.Swap_area.is_allocated sa s);
  Alcotest.(check bool) "content" true
    (Storage.Content.equal c (Storage.Swap_area.content sa s));
  check Alcotest.int "sector" (800 + (s * 8)) (Storage.Swap_area.sector_of_slot sa s);
  Storage.Swap_area.free sa s;
  Alcotest.(check bool) "freed" false (Storage.Swap_area.is_allocated sa s);
  Alcotest.check_raises "double free"
    (Invalid_argument (Printf.sprintf "Swap_area.free: slot %d is free" s))
    (fun () -> Storage.Swap_area.free sa s)

let swap_fragmentation_fallback () =
  let sa = Storage.Swap_area.create ~base_sector:0 ~nslots:512 in
  (* Fill both clusters entirely. *)
  let slots =
    List.init 512 (fun i ->
        Option.get (Storage.Swap_area.alloc sa (Storage.Content.Anon i)))
  in
  check Alcotest.int "full" 512 (Storage.Swap_area.in_use sa);
  Alcotest.(check (option int)) "exhausted" None
    (Storage.Swap_area.alloc sa Storage.Content.Zero);
  (* Free every other slot: no cluster becomes wholly free. *)
  List.iteri (fun i s -> if i mod 2 = 0 then Storage.Swap_area.free sa s) slots;
  check Alcotest.int "half free" 256 (Storage.Swap_area.in_use sa);
  check Alcotest.int "no free clusters" 0 (Storage.Swap_area.free_clusters sa);
  let before = Storage.Swap_area.fragmented_allocs sa in
  let s = Option.get (Storage.Swap_area.alloc sa Storage.Content.Zero) in
  Alcotest.(check bool) "allocated a hole" true (Storage.Swap_area.is_allocated sa s);
  Alcotest.(check bool) "fell back to scanning" true
    (Storage.Swap_area.fragmented_allocs sa > before)

let swap_free_cluster_reuse () =
  let sa = Storage.Swap_area.create ~base_sector:0 ~nslots:512 in
  let slots =
    List.init 512 (fun i ->
        Option.get (Storage.Swap_area.alloc sa (Storage.Content.Anon i)))
  in
  (* Free the whole first cluster; it becomes allocatable again. *)
  List.iteri (fun i s -> if i < 256 then Storage.Swap_area.free sa s) slots;
  check Alcotest.int "one free cluster" 1 (Storage.Swap_area.free_clusters sa);
  let s = Option.get (Storage.Swap_area.alloc sa Storage.Content.Zero) in
  Alcotest.(check bool) "reused cluster 0" true (s < 256)

(* Property: over areas of 1 to ~4 clusters, the last often partial,
   bursts of allocations and scattered frees drive the allocator through
   whole-cluster allocation, exhaustion and the fragmented scan.  Every
   allocation returns the slot the walk returns, with the same
   fragmented count; after every burst the free-cluster count equals a
   recount of the wholly-free clusters; the books (in use, contents)
   hold throughout. *)
let swap_model =
  QCheck.Test.make ~name:"swap_area: random alloc/free keeps books" ~count:100
    QCheck.(
      pair (int_range 1 1_100)
        (list_of_size
           Gen.(int_range 0 200)
           (triple (int_range 0 99) (int_range 1 64) small_nat)))
    (fun (nslots, bursts) ->
      let sa = Storage.Swap_area.create ~base_sector:0 ~nslots in
      let walk = Walk_alloc.create nslots in
      let tags = Array.make nslots (-1) in (* content tag of a live slot *)
      let live = Array.make nslots 0 and nlive = ref 0 in
      let next_tag = ref 0 in
      let alloc () =
        let got = Storage.Swap_area.alloc sa (Storage.Content.Anon !next_tag) in
        if got <> Walk_alloc.alloc walk then failwith "slot differs from walk";
        if Storage.Swap_area.fragmented_allocs sa <> walk.fragmented_allocs
        then failwith "fragmented_allocs differs from walk";
        match got with
        | Some s ->
            if tags.(s) >= 0 then failwith "double alloc";
            tags.(s) <- !next_tag;
            incr next_tag;
            live.(!nlive) <- s;
            incr nlive
        | None -> if !nlive <> nslots then failwith "early exhaustion"
      in
      let free pick =
        let i = pick mod !nlive in
        let s = live.(i) in
        decr nlive;
        live.(i) <- live.(!nlive);
        tags.(s) <- -1;
        Storage.Swap_area.free sa s;
        Walk_alloc.free walk s
      in
      let cluster_slots = Storage.Swap_area.cluster_slots in
      let recount () =
        let n = ref 0 in
        for c = 0 to (nslots - 1) / cluster_slots do
          let all_free = ref true in
          for s = c * cluster_slots to min nslots ((c + 1) * cluster_slots) - 1 do
            if Storage.Swap_area.is_allocated sa s then all_free := false
          done;
          if !all_free then incr n
        done;
        !n
      in
      List.iter
        (fun (op, burst, pick) ->
          for i = 1 to burst do
            if op < 60 || !nlive = 0 then alloc () else free (pick + i)
          done;
          if Storage.Swap_area.free_clusters sa <> recount () then
            failwith "free_clusters differs from a recount")
        bursts;
      Storage.Swap_area.in_use sa = !nlive
      && Seq.for_all
           (fun (s, tag) ->
             tag < 0
             || Storage.Content.equal
                  (Storage.Swap_area.content sa s)
                  (Storage.Content.Anon tag))
           (Array.to_seqi tags))

let disk_service_monotone =
  QCheck.Test.make ~name:"disk: service time monotone in transfer size"
    ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 512))
    (fun (sector, n) ->
      let _, _, disk = mk_disk () in
      let a = Storage.Disk.service_time disk ~sector ~nsectors:n in
      let b = Storage.Disk.service_time disk ~sector ~nsectors:(n + 8) in
      b >= a)

let vdisk_version_counts_writes =
  QCheck.Test.make ~name:"vdisk: version equals number of writes" ~count:200
    QCheck.(list (int_range 0 15))
    (fun writes ->
      let vd = Storage.Vdisk.create ~id:0 ~base_sector:0 ~nblocks:16 in
      let counts = Array.make 16 0 in
      List.iter
        (fun b ->
          counts.(b) <- counts.(b) + 1;
          let v = Storage.Vdisk.write vd b (Storage.Content.Anon counts.(b)) in
          if v <> counts.(b) then failwith "version mismatch")
        writes;
      Array.to_list counts
      = List.init 16 (fun b -> Storage.Vdisk.version vd b))

(* ------------------------------------------------------------------ *)
(* Multi-queue (NVMe-style) disk                                       *)
(* ------------------------------------------------------------------ *)

let mk_mq_disk ~num_queues ~per_queue_depth =
  let engine = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let disk =
    Storage.Disk.create ~engine ~stats
      { Storage.Disk.default_config with num_queues; per_queue_depth }
  in
  (engine, stats, disk)

(* The same far-apart read set finishes sooner when its requests land on
   two queues served in parallel than when they serialize behind one
   elevator head. *)
let mq_parallel_service_faster () =
  let run ~num_queues ~spread =
    let engine, _, disk = mk_mq_disk ~num_queues ~per_queue_depth:1 in
    let pending = ref 0 in
    List.iteri
      (fun i s ->
        incr pending;
        Storage.Disk.submit disk ~sector:s ~nsectors:8
          ~kind:Storage.Disk.Read
          ~queue:(if spread then i else 0)
          (fun _ -> decr pending))
      [ 1_000_000; 200_000_000; 50_000_000; 400_000_000 ];
    Test_util.drain engine;
    check Alcotest.int "all completed" 0 !pending;
    Sim.Time.to_us (Sim.Engine.now engine)
  in
  let serial = run ~num_queues:1 ~spread:false in
  let parallel = run ~num_queues:4 ~spread:true in
  Alcotest.(check bool)
    (Printf.sprintf "4 queues (%d us) beat 1 (%d us)" parallel serial)
    true
    (parallel < serial)

(* Queue steering reduces mod num_queues, and per-queue counters track
   where batches were actually served. *)
let mq_queue_reduction_and_stats () =
  let engine, stats, disk = mk_mq_disk ~num_queues:2 ~per_queue_depth:1 in
  check Alcotest.int "clamped queue count" 2 (Storage.Disk.num_queues disk);
  (* queue 5 mod 2 = 1; queue 2 mod 2 = 0. *)
  Storage.Disk.submit disk ~sector:1_000_000 ~nsectors:8
    ~kind:Storage.Disk.Read ~queue:5 (fun _ -> ());
  Storage.Disk.submit disk ~sector:2_000_000 ~nsectors:8
    ~kind:Storage.Disk.Read ~queue:2 (fun _ -> ());
  Test_util.drain engine;
  let qs = Storage.Disk.queue_stats disk in
  check Alcotest.int "two queues reported" 2 (Array.length qs);
  check Alcotest.int "queue 0 served one batch" 1
    qs.(0).Storage.Disk.q_batches;
  check Alcotest.int "queue 1 served one batch" 1
    qs.(1).Storage.Disk.q_batches;
  check Alcotest.int "mq stat counts non-zero queues only" 1
    stats.Metrics.Stats.disk_mq_batches;
  Alcotest.(check bool) "depth highwater >= 2 with both on the media" true
    (stats.Metrics.Stats.disk_queue_depth_highwater >= 2)

(* per_queue_depth > 1 admits concurrent batches on one queue; the
   queue's own highwater proves they overlapped. *)
let mq_depth_admits_concurrent_batches () =
  let engine, _, disk = mk_mq_disk ~num_queues:1 ~per_queue_depth:2 in
  List.iter
    (fun s ->
      Storage.Disk.submit disk ~sector:s ~nsectors:8 ~kind:Storage.Disk.Read
        (fun _ -> ()))
    [ 1_000_000; 300_000_000 ];
  Test_util.drain engine;
  let qs = Storage.Disk.queue_stats disk in
  check Alcotest.int "both batches overlapped" 2
    qs.(0).Storage.Disk.q_depth_highwater

(* Every read completes exactly once no matter which queue it is steered
   to — the multi-queue generalization of the single-queue property. *)
let mq_every_read_completes_once =
  QCheck.Test.make ~name:"disk: mq reads complete exactly once" ~count:100
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(int_range 1 30) (pair (int_range 0 40) (int_range 0 7))))
    (fun (nq, picks) ->
      let engine, _, disk = mk_mq_disk ~num_queues:nq ~per_queue_depth:2 in
      let completions = Hashtbl.create 64 in
      List.iteri
        (fun i (slot, q) ->
          Storage.Disk.submit disk ~sector:(slot * 1_000_000) ~nsectors:8
            ~kind:Storage.Disk.Read ~queue:q (fun _ ->
              Hashtbl.replace completions i
                (1 + Option.value ~default:0 (Hashtbl.find_opt completions i))))
        picks;
      Test_util.drain engine;
      List.for_all
        (fun i -> Hashtbl.find_opt completions i = Some 1)
        (List.init (List.length picks) Fun.id))

(* ------------------------------------------------------------------ *)
(* Destage-path fault injection                                        *)
(* ------------------------------------------------------------------ *)

let mk_faulty_disk ?(config = Storage.Disk.default_config) fcfg =
  let engine = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let faults = Faults.Plan.create fcfg in
  let disk = Storage.Disk.create ~engine ~stats ~faults config in
  (engine, stats, disk)

(* A media error on a destaged sector is counted instead of silently
   dropped: the destage path consults the same fault plan as reads. *)
let destage_media_fault_counted () =
  let engine, stats, disk =
    mk_faulty_disk (Faults.Config.make ~seed:11 ~media_rate:0.5 ())
  in
  Storage.Disk.write_buffered disk ~sector:0 ~nsectors:512;
  Test_util.drain engine;
  check Alcotest.int "buffer drained" 0
    (Storage.Disk.buffered_write_sectors disk);
  Alcotest.(check bool) "media errors surfaced" true
    (stats.Metrics.Stats.destage_media_errors > 0);
  (* Rate 0.5 over 512 sectors: the count is a per-sector decision, not
     an all-or-nothing one. *)
  Alcotest.(check bool) "per-sector, not per-chunk" true
    (stats.Metrics.Stats.destage_media_errors < 512)

(* Transient destage errors re-queue the sector and eventually succeed:
   the retry counter moves, and the buffer still drains to empty. *)
let destage_transient_retries_then_succeeds () =
  let engine, stats, disk =
    mk_faulty_disk (Faults.Config.make ~seed:7 ~transient_rate:0.3 ())
  in
  Storage.Disk.write_buffered disk ~sector:0 ~nsectors:512;
  Test_util.drain engine;
  check Alcotest.int "buffer drained despite transients" 0
    (Storage.Disk.buffered_write_sectors disk);
  Alcotest.(check bool) "retries counted" true
    (stats.Metrics.Stats.destage_transient_retries > 0)

(* transient_rate 1.0 must not livelock: the per-sector retry budget
   converts exhausted sectors into counted losses and the drain ends. *)
let destage_retry_budget_bounds_livelock () =
  let engine, stats, disk =
    mk_faulty_disk (Faults.Config.make ~seed:3 ~transient_rate:1.0 ())
  in
  Storage.Disk.write_buffered disk ~sector:0 ~nsectors:64;
  Test_util.drain engine;
  check Alcotest.int "buffer drained" 0
    (Storage.Disk.buffered_write_sectors disk);
  check Alcotest.int "every sector exhausted its budget" 64
    stats.Metrics.Stats.destage_media_errors;
  Alcotest.(check bool) "retries happened first" true
    (stats.Metrics.Stats.destage_transient_retries >= 64)

(* ------------------------------------------------------------------ *)
(* Tiered composite                                                    *)
(* ------------------------------------------------------------------ *)

let swap_area_tier_metadata () =
  let sa = Storage.Swap_area.create ~base_sector:0 ~nslots:16 in
  let s = Option.get (Storage.Swap_area.alloc sa (Storage.Content.Anon 1)) in
  check Alcotest.int "fresh slot on tier 0" 0 (Storage.Swap_area.tier sa s);
  Storage.Swap_area.set_tier sa s 1;
  check Alcotest.int "tier sticks" 1 (Storage.Swap_area.tier sa s);
  let freed = ref None in
  Storage.Swap_area.set_on_free sa
    (Some (fun ~slot ~tier -> freed := Some (slot, tier)));
  Storage.Swap_area.free sa s;
  Alcotest.(check (option (pair int int))) "hook sees slot and tier"
    (Some (s, 1)) !freed;
  let s2 = Option.get (Storage.Swap_area.alloc sa (Storage.Content.Anon 2)) in
  check Alcotest.int "tier reset on reuse" 0 (Storage.Swap_area.tier sa s2)

let mk_tiers ?faults cfg =
  let engine = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let disk = Storage.Disk.create ~engine ~stats Storage.Disk.default_config in
  let swap = Storage.Swap_area.create ~base_sector:0 ~nslots:256 in
  let t = Storage.Tiers.create ?faults ~engine ~stats ~disk ~swap cfg in
  (engine, stats, swap, t)

(* ------------------------------------------------------------------ *)
(* Fast-tier backends: the czram and remote models, through Tiers      *)
(* ------------------------------------------------------------------ *)

let fresh_slot swap i =
  Option.get (Storage.Swap_area.alloc swap (Storage.Content.Anon i))

(* Read two fast-tier slots at the same instant, 1 ms from now, once the
   swap-outs' own compress or link time has cleared; returns the two
   reads' service times in µs. *)
let concurrent_fast_reads engine swap t a b =
  let service = Array.make 2 0 in
  let read i slot =
    Storage.Tiers.swap_in t ~slot
      ~sector:(Storage.Swap_area.sector_of_slot swap slot)
      ~nsectors:8 ~queue:0 ~attempt:0 (fun r ->
        service.(i) <- Sim.Time.to_us r.Storage.Disk.service)
  in
  Sim.Engine.run_after engine (Sim.Time.ms 1) (fun () ->
      read 0 a;
      read 1 b);
  Test_util.drain engine;
  (service.(0), service.(1))

let czram_admission_latency_serialization () =
  let engine, stats, swap, t =
    mk_tiers
      {
        Storage.Tiers.disk_only with
        Storage.Tiers.fast = Storage.Tiers.Czram;
        czram_admit_ratio = 0.6;
      }
  in
  (* Admission is a pure per-page property: some pages compress well
     enough, others are rejected as incompressible (128 fast slots and a
     pool of 128 pages at ratio 0.6 leave compressibility the only
     gate). *)
  let slots = List.init 100 (fresh_slot swap) in
  List.iter (fun slot -> Storage.Tiers.swap_out t ~slot) slots;
  let n = stats.Metrics.Stats.tier_admissions in
  Alcotest.(check bool) "some admitted, some rejected" true (n > 0 && n < 100);
  check Alcotest.int "the rest went to the disk" (100 - n)
    stats.Metrics.Stats.tier_rejects;
  (* A lone page-in costs exactly the decompression time, and a
     concurrent one queues on the single compressor CPU. *)
  let fast = List.filter (fun s -> Storage.Swap_area.tier swap s = 0) slots in
  let s1, s2 =
    concurrent_fast_reads engine swap t (List.nth fast 0) (List.nth fast 1)
  in
  check Alcotest.int "first read = decompress cost" 5 s1;
  check Alcotest.int "second serialized behind it" 10 s2

(* A 1% share is 2 of the 256 slots, and the pool is sized to them at a
   3/5 compressed ratio: a page can overflow it while a fast slot is
   still free, so the rejection is the pool's. *)
let czram_pool_cap_rejects () =
  let cfg =
    {
      Storage.Tiers.disk_only with
      Storage.Tiers.fast = Storage.Tiers.Czram;
      czram_admit_ratio = 1.25;
      fast_share_percent = 1;
    }
  in
  (* Pages compressing to at most 0.6 fill both slots of this 1.2-page
     pool: each page is charged its compressed size, not a page. *)
  let _, _, swap6, t6 = mk_tiers { cfg with czram_admit_ratio = 0.6 } in
  List.iter
    (fun slot -> Storage.Tiers.swap_out t6 ~slot)
    (List.init 16 (fresh_slot swap6));
  check Alcotest.int "two compressed pages fit" 2 (Storage.Tiers.fast_slots t6);
  let engine, stats, swap, t = mk_tiers cfg in
  let first = fresh_slot swap 0 in
  Storage.Tiers.swap_out t ~slot:first;
  (* Offer pages beside [first] one at a time, freeing each that fits
     (its bytes go back to the pool), until one overflows. *)
  let rec overflowing i =
    if i > 100 then Alcotest.fail "no page overflowed the pool";
    let s = fresh_slot swap i in
    Storage.Tiers.swap_out t ~slot:s;
    if Storage.Swap_area.tier swap s = 1 then s
    else begin
      Storage.Swap_area.free swap s;
      overflowing (i + 1)
    end
  in
  let over = overflowing 1 in
  Alcotest.(check (pair int int)) "overflow rejected beside a free slot"
    (1, 2)
    (Storage.Tiers.fast_slots t, Storage.Tiers.fast_capacity t);
  (* Freeing [first] returns its bytes, so the rejected page now fits:
     its next swap-in promotes it. *)
  Storage.Swap_area.free swap first;
  Storage.Tiers.swap_in t ~slot:over
    ~sector:(Storage.Swap_area.sector_of_slot swap over)
    ~nsectors:8 ~queue:0 ~attempt:0 ignore;
  Test_util.drain engine;
  check Alcotest.int "freed bytes let it in" 1
    stats.Metrics.Stats.tier_promotions

(* RTT 100 µs over the 10 Gbit/s link, where a page takes 3 µs. *)
let remote_rtt_and_link_queueing () =
  let engine, _, swap, t =
    mk_tiers
      {
        Storage.Tiers.disk_only with
        Storage.Tiers.fast = Storage.Tiers.Remote;
        remote_rtt_us = 100;
      }
  in
  let a = fresh_slot swap 0 and b = fresh_slot swap 1 in
  Storage.Tiers.swap_out t ~slot:a;
  Storage.Tiers.swap_out t ~slot:b;
  let s1, s2 = concurrent_fast_reads engine swap t a b in
  check Alcotest.int "transfer + rtt" (3 + 100) s1;
  check Alcotest.int "second queues on the link, rtt in parallel" (6 + 100) s2

(* Same for the tier composite: [fast_share_percent = 101] used to be
   clamped to 100. *)
let tiers_bad_config_fails_loudly () =
  let d = Storage.Tiers.disk_only in
  ignore
    (mk_tiers { d with fast = Storage.Tiers.Czram; fast_share_percent = 100 });
  List.iter
    (fun (cfg, msg) ->
      Alcotest.check_raises msg
        (Invalid_argument ("Tiers.create: Tiers.config." ^ msg)) (fun () ->
          ignore (mk_tiers cfg)))
    [
      ( { d with fast_share_percent = 101 },
        "fast_share_percent must be in [0, 100]" );
      ( { d with fast_share_percent = -1 },
        "fast_share_percent must be in [0, 100]" );
      ({ d with czram_admit_ratio = -0.5 }, "czram_admit_ratio must be >= 0");
      ( { d with czram_admit_ratio = Float.nan },
        "czram_admit_ratio must be >= 0" );
      ({ d with remote_rtt_us = -1 }, "remote_rtt_us must be >= 0");
      ({ d with writeback_idle_us = -1 }, "writeback_idle_us must be >= 0");
      ({ d with tier_error_budget = -1 }, "tier_error_budget must be >= 0");
    ]

let tiers_routing_promotion_demotion () =
  let cfg =
    {
      Storage.Tiers.disk_only with
      Storage.Tiers.fast = Storage.Tiers.Remote;
      (* remote admits everything (no compressibility, no pool), so the
         slot-share cap is the only admission gate — which is exactly
         what this test pins down. *)
      fast_share_percent = 25;
      writeback_idle_us = 1_000;
    }
  in
  let engine, stats, swap, t = mk_tiers cfg in
  Alcotest.(check bool) "not passthrough" false
    (Storage.Tiers.is_passthrough t);
  check Alcotest.int "fast cap is the share" 64 (Storage.Tiers.fast_capacity t);
  (* 80 swap-outs against a 64-slot fast tier: the cap binds (nothing is
     demotion-cold yet, all pages were written just now). *)
  let slots = List.init 80 (fresh_slot swap) in
  List.iter (fun slot -> Storage.Tiers.swap_out t ~slot) slots;
  Test_util.drain engine;
  check Alcotest.int "first 64 admitted fast" 64
    stats.Metrics.Stats.tier_admissions;
  check Alcotest.int "overflow routed slow" 16 stats.Metrics.Stats.tier_rejects;
  check Alcotest.int "fast tier at cap" 64 (Storage.Tiers.fast_slots t);
  check Alcotest.int "slot 0 on fast tier" 0
    (Storage.Swap_area.tier swap (List.nth slots 0));
  check Alcotest.int "slot 70 on slow tier" 1
    (Storage.Swap_area.tier swap (List.nth slots 70));
  (* Freeing a fast slot runs the on_free hook and makes room... *)
  Storage.Swap_area.free swap (List.nth slots 0);
  check Alcotest.int "hook released the fast slot" 63
    (Storage.Tiers.fast_slots t);
  (* ...so a slow-tier target swap-in promotes. *)
  let slow_slot = List.nth slots 70 in
  let done_ = ref false in
  Storage.Tiers.swap_in t ~slot:slow_slot
    ~sector:(Storage.Swap_area.sector_of_slot swap slow_slot)
    ~nsectors:8 ~queue:0 ~attempt:0 (fun _ -> done_ := true);
  Test_util.drain engine;
  Alcotest.(check bool) "swap-in completed" true !done_;
  check Alcotest.int "promoted to fast" 1 stats.Metrics.Stats.tier_promotions;
  check Alcotest.int "slot now on tier 0" 0
    (Storage.Swap_area.tier swap slow_slot);
  check Alcotest.int "fast back at cap" 64 (Storage.Tiers.fast_slots t);
  check Alcotest.int "slow swap-in accounted" 1
    stats.Metrics.Stats.tier_slow_swapins;
  (* Let every fast page go cold, then swap out under a full fast tier:
     capacity pressure sweeps the clock hand and demotes. *)
  Sim.Engine.run_after engine (Sim.Time.us 5_000) (fun () ->
      let s = fresh_slot swap 99 in
      Storage.Tiers.swap_out t ~slot:s);
  Test_util.drain engine;
  Alcotest.(check bool) "cold slots demoted under pressure" true
    (stats.Metrics.Stats.tier_demotions > 0);
  check Alcotest.int "writeback sectors match demotions"
    (8 * stats.Metrics.Stats.tier_demotions)
    stats.Metrics.Stats.tier_writeback_sectors;
  Alcotest.(check bool) "demotion made room for the admission" true
    (stats.Metrics.Stats.tier_admissions > 64)

(* Failover lifecycle on a czram fast tier: pool corruption burns the
   error budget, the tier trips, new admissions route slow, the drain
   evacuates residents, and the first probe brings a reinitialized pool
   back healthy. *)
let tiers_failover_trip_drain_recover () =
  let cfg =
    {
      Storage.Tiers.disk_only with
      Storage.Tiers.fast = Storage.Tiers.Czram;
      (* admit everything the pool can hold: compressibility must not
         decide which slots participate in the failover drill *)
      czram_admit_ratio = 1.25;
      fast_share_percent = 50;
      tier_error_budget = 2;
    }
  in
  (* media_rate 1.0 corrupts every pool page: each fast-tier read is a
     budget hit, so the trip point is exactly [tier_error_budget]. *)
  let faults =
    Faults.Plan.create (Faults.Config.make ~seed:11 ~media_rate:1.0 ())
  in
  let engine, stats, swap, t = mk_tiers ~faults cfg in
  let slots = List.init 16 (fresh_slot swap) in
  List.iter (fun slot -> Storage.Tiers.swap_out t ~slot) slots;
  Test_util.drain engine;
  let resident = Storage.Tiers.fast_slots t in
  Alcotest.(check bool) "some pages admitted fast" true (resident > 0);
  Alcotest.(check bool) "healthy to start" false
    (Storage.Tiers.fast_degraded t);
  (* Two corrupt reads of a fast slot trip the budget.  Stop the engine
     at the trip, not at quiescence: the probe timer armed by the trip
     would otherwise recover the tier before we can observe it. *)
  let fast_slot =
    List.find (fun s -> Storage.Swap_area.tier swap s = 0) slots
  in
  for _ = 1 to cfg.Storage.Tiers.tier_error_budget do
    Storage.Tiers.swap_in t ~slot:fast_slot
      ~sector:(Storage.Swap_area.sector_of_slot swap fast_slot)
      ~nsectors:8 ~queue:0 ~attempt:0 (fun _ -> ())
  done;
  Test_util.drain_until engine (fun () -> Storage.Tiers.fast_degraded t);
  check Alcotest.int "one degraded event" 1
    stats.Metrics.Stats.tier_degraded_events;
  Alcotest.(check bool) "pool corruption counted as injected media" true
    (stats.Metrics.Stats.faults_injected_media
    >= cfg.Storage.Tiers.tier_error_budget);
  (* An admission while degraded routes straight to the slow tier. *)
  let routes0 = stats.Metrics.Stats.tier_failover_routes in
  let s = fresh_slot swap 99 in
  Storage.Tiers.swap_out t ~slot:s;
  check Alcotest.int "degraded admission rerouted" (routes0 + 1)
    stats.Metrics.Stats.tier_failover_routes;
  check Alcotest.int "rerouted slot lands on tier 1" 1
    (Storage.Swap_area.tier swap s);
  (* Quiescence: the drain evacuates every resident fast slot, then the
     probe finds the reinitialized pool healthy and stops both timers. *)
  Test_util.drain engine;
  check Alcotest.int "fast tier fully drained" 0 (Storage.Tiers.fast_slots t);
  Alcotest.(check bool) "drain went through writeback" true
    (stats.Metrics.Stats.tier_demotions >= resident);
  Alcotest.(check bool) "recovered after probe" false
    (Storage.Tiers.fast_degraded t);
  check Alcotest.int "one recovery event" 1
    stats.Metrics.Stats.tier_recovered_events;
  (* A healthy tier admits again. *)
  let s2 = fresh_slot swap 123 in
  let adm0 = stats.Metrics.Stats.tier_admissions in
  Storage.Tiers.swap_out t ~slot:s2;
  Test_util.drain engine;
  check Alcotest.int "admission reopened" (adm0 + 1)
    stats.Metrics.Stats.tier_admissions

(* A flapping remote fast tier: link timeouts are transient (retry can
   clear them) but still burn the failover budget, and the probe
   re-hashes its attempt number until the flap clears. *)
let tiers_remote_flap_degrades_and_recovers () =
  let cfg =
    {
      Storage.Tiers.disk_only with
      Storage.Tiers.fast = Storage.Tiers.Remote;
      fast_share_percent = 25;
      tier_error_budget = 1;
    }
  in
  let faults =
    Faults.Plan.create (Faults.Config.make ~seed:5 ~transient_rate:0.6 ())
  in
  let engine, stats, swap, t = mk_tiers ~faults cfg in
  let slots = List.init 8 (fresh_slot swap) in
  List.iter (fun slot -> Storage.Tiers.swap_out t ~slot) slots;
  Test_util.drain engine;
  Alcotest.(check bool) "remote admits everything" true
    (Storage.Tiers.fast_slots t = 8);
  (* At 60% flap rate, hammering one slot with fresh attempts soon finds
     a timeout; budget 1 trips the tier on the first one. *)
  let attempt = ref 0 and completed = ref 0 in
  while (not (Storage.Tiers.fast_degraded t)) && !attempt < 64 do
    Storage.Tiers.swap_in t ~slot:(List.hd slots)
      ~sector:(Storage.Swap_area.sector_of_slot swap (List.hd slots))
      ~nsectors:8 ~queue:0 ~attempt:!attempt (fun _ -> incr completed);
    incr attempt;
    Test_util.drain_until engine (fun () -> !completed = !attempt)
  done;
  Alcotest.(check bool) "a timeout landed within 64 attempts" true
    (Storage.Tiers.fast_degraded t);
  check Alcotest.int "flap tripped the tier" 1
    stats.Metrics.Stats.tier_degraded_events;
  Alcotest.(check bool) "timeouts counted as injected transients" true
    (stats.Metrics.Stats.faults_injected_transient >= 1);
  (* The probe re-hashes (seed, sector 0, attempt): at 60% it clears
     within a handful of intervals, recovering the tier; the drain has
     meanwhile pushed every resident slot back to the disk. *)
  Test_util.drain engine;
  Alcotest.(check bool) "link came back" false
    (Storage.Tiers.fast_degraded t);
  check Alcotest.int "one recovery event" 1
    stats.Metrics.Stats.tier_recovered_events;
  check Alcotest.int "drained while degraded" 0 (Storage.Tiers.fast_slots t)

(* Property: the disk-only composite is call-for-call identical to the
   bare disk — same completion times, same media traffic — over random
   swap-out/swap-in interleavings. *)
let tiers_passthrough_differential =
  QCheck.Test.make
    ~name:"tiers: disk-only composite identical to bare disk" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30)
              (pair (int_range 0 199) bool))
    (fun ops ->
      let run_bare () =
        let engine = Sim.Engine.create () in
        let stats = Metrics.Stats.create () in
        let disk =
          Storage.Disk.create ~engine ~stats Storage.Disk.default_config
        in
        let log = ref [] in
        List.iter
          (fun (slot, out) ->
            let sector = slot * 8 in
            if out then
              Storage.Disk.write_buffered disk ~sector ~nsectors:8
            else
              Storage.Disk.submit disk ~sector ~nsectors:8
                ~kind:Storage.Disk.Read ~queue:(slot mod 4) (fun _ ->
                  log := (slot, Sim.Engine.now engine) :: !log))
          ops;
        Test_util.drain engine;
        (List.rev !log, stats)
      in
      let run_tiered () =
        let engine = Sim.Engine.create () in
        let stats = Metrics.Stats.create () in
        let disk =
          Storage.Disk.create ~engine ~stats Storage.Disk.default_config
        in
        let swap = Storage.Swap_area.create ~base_sector:0 ~nslots:256 in
        for i = 0 to 199 do
          ignore (Storage.Swap_area.alloc swap (Storage.Content.Anon i))
        done;
        let t =
          Storage.Tiers.create ~engine ~stats ~disk ~swap
            Storage.Tiers.disk_only
        in
        let log = ref [] in
        List.iter
          (fun (slot, out) ->
            if out then Storage.Tiers.swap_out t ~slot
            else
              Storage.Tiers.swap_in t ~slot ~sector:(slot * 8) ~nsectors:8
                ~queue:(slot mod 4) ~attempt:0 (fun _ ->
                  log := (slot, Sim.Engine.now engine) :: !log))
          ops;
        Test_util.drain engine;
        (List.rev !log, stats)
      in
      let log_b, st_b = run_bare () in
      let log_t, st_t = run_tiered () in
      log_b = log_t
      && st_b.Metrics.Stats.disk_ops = st_t.Metrics.Stats.disk_ops
      && st_b.Metrics.Stats.disk_sectors_read
         = st_t.Metrics.Stats.disk_sectors_read
      && st_b.Metrics.Stats.disk_sectors_written
         = st_t.Metrics.Stats.disk_sectors_written
      && st_t.Metrics.Stats.tier_admissions = 0
      && st_t.Metrics.Stats.tier_rejects = 0)

let tests =
  [
    ( "storage:geom+content",
      [
        Alcotest.test_case "geometry" `Quick geom_units;
        Alcotest.test_case "content equality" `Quick content_equality;
        Alcotest.test_case "fresh anon unique" `Quick content_fresh_unique;
        Alcotest.test_case "combine deterministic" `Quick content_combine_deterministic;
      ] );
    ( "storage:vdisk",
      [
        Alcotest.test_case "pristine and write" `Quick vdisk_pristine_and_write;
        Alcotest.test_case "bounds" `Quick vdisk_bounds;
        qcheck vdisk_version_counts_writes;
      ] );
    ( "storage:disk",
      [
        Alcotest.test_case "seq vs random" `Quick disk_sequential_cheaper_than_random;
        Alcotest.test_case "backward expensive" `Quick disk_backward_expensive;
        Alcotest.test_case "forward skip" `Quick disk_forward_skip_cheap;
        Alcotest.test_case "read ordering" `Quick disk_read_completion_ordering;
        Alcotest.test_case "write ack" `Quick disk_write_acks_fast;
        Alcotest.test_case "read from buffer" `Quick disk_read_served_from_write_buffer;
        Alcotest.test_case "idle flush + merge" `Quick disk_flushes_when_idle;
        Alcotest.test_case "coalesces queued reads" `Quick
          disk_coalesces_queued_reads;
        Alcotest.test_case "batch span cap" `Quick disk_batch_cap;
        Alcotest.test_case "partial overlap goes to media" `Quick
          disk_read_after_write_partial_overlap;
        Alcotest.test_case "queue depth consistency" `Quick
          disk_queue_depth_consistency;
        Alcotest.test_case "rejects empty" `Quick disk_rejects_empty;
        Alcotest.test_case "rejects out of bounds" `Quick
          disk_rejects_out_of_bounds;
        Alcotest.test_case "typed error injection" `Quick
          disk_injects_typed_errors;
        Alcotest.test_case "bad config fails loudly" `Quick
          disk_bad_config_fails_loudly;
        Alcotest.test_case "degraded latency" `Quick disk_degraded_latency;
        qcheck disk_service_monotone;
        qcheck disk_every_read_completes_once;
      ] );
    ( "storage:multiqueue",
      [
        Alcotest.test_case "parallel service faster" `Quick
          mq_parallel_service_faster;
        Alcotest.test_case "queue reduction and stats" `Quick
          mq_queue_reduction_and_stats;
        Alcotest.test_case "depth admits concurrency" `Quick
          mq_depth_admits_concurrent_batches;
        qcheck mq_every_read_completes_once;
      ] );
    ( "storage:write_runs",
      [
        Alcotest.test_case "tie goes to the lower run" `Quick
          write_runs_tie_goes_to_lower_run;
        Alcotest.test_case "head inside a run" `Quick
          write_runs_head_inside_run;
        qcheck write_runs_match_list_code;
      ] );
    ( "storage:swap_area",
      [
        Alcotest.test_case "cluster sequential" `Quick swap_cluster_sequential;
        Alcotest.test_case "cluster rounding" `Quick swap_cluster_rounding;
        Alcotest.test_case "bad size fails loudly" `Quick
          swap_bad_size_fails_loudly;
        Alcotest.test_case "roundtrip" `Quick swap_roundtrip;
        Alcotest.test_case "fragmentation fallback" `Quick swap_fragmentation_fallback;
        Alcotest.test_case "free cluster reuse" `Quick swap_free_cluster_reuse;
        Alcotest.test_case "tier metadata + on_free hook" `Quick
          swap_area_tier_metadata;
        qcheck swap_model;
      ] );
    ( "storage:destage",
      [
        Alcotest.test_case "media fault counted" `Quick
          destage_media_fault_counted;
        Alcotest.test_case "transient retries then succeeds" `Quick
          destage_transient_retries_then_succeeds;
        Alcotest.test_case "retry budget bounds livelock" `Quick
          destage_retry_budget_bounds_livelock;
      ] );
    ( "storage:backend",
      [
        Alcotest.test_case "czram admission/latency/serialization" `Quick
          czram_admission_latency_serialization;
        Alcotest.test_case "czram pool cap rejects" `Quick
          czram_pool_cap_rejects;
        Alcotest.test_case "remote rtt + link queueing" `Quick
          remote_rtt_and_link_queueing;
      ] );
    ( "storage:tiers",
      [
        Alcotest.test_case "routing, promotion, demotion" `Quick
          tiers_routing_promotion_demotion;
        Alcotest.test_case "failover trip, drain, recover" `Quick
          tiers_failover_trip_drain_recover;
        Alcotest.test_case "remote flap degrades and recovers" `Quick
          tiers_remote_flap_degrades_and_recovers;
        Alcotest.test_case "bad config fails loudly" `Quick
          tiers_bad_config_fails_loudly;
        qcheck tiers_passthrough_differential;
      ] );
  ]
