module Hostmm = Host.Hostmm
module Cgroup = Host.Cgroup
module Content = Storage.Content

type slot_state = S_unmapped | S_mapped of int | S_swapped of int

type region = {
  slots : slot_state array;
  mutable live : bool;
}

type file = { fid : int; start_block : int; nblocks : int }

type ra_state = { mutable expected : int; mutable window : int }

type kind =
  | K_free
  | K_kernel
  | K_cache of int  (* backing block *)
  | K_anon of region * int
  | K_balloon

type t = {
  engine : Sim.Engine.t;
  host : Hostmm.t;
  gid : int;
  stats : Metrics.Stats.t;
  cfg : Gconfig.t;
  min_free_pages : int;  (* direct reclaim below this many free pages *)
  high_free_pages : int;  (* reclaim refills to this level *)
  kinds : kind array;
  referenced : Bytes.t;
  arena : Mem.Flru.arena;  (* node id = gpa *)
  lru : Cgroup.t;  (* guest-side active/inactive lists *)
  mutable free : int list;
  mutable nfree : int;
  cache : (int, int) Hashtbl.t;  (* block -> gpa *)
  dirty : (int, unit) Hashtbl.t;  (* gpa set *)
  pending_blocks : (int, (unit -> unit) list ref) Hashtbl.t;
  ra : (int, ra_state) Hashtbl.t;  (* per-file readahead state *)
  swap_alloc : Slot_alloc.t;
  swap_rev : (int, region * int) Hashtbl.t;  (* slot -> (region, idx) *)
  mutable fs_cursor : int;  (* next unallocated data block *)
  mutable next_fid : int;
  kernel_gpas : int array;
  mutable kernel_rr : int;
  mutable balloon_pages : int list;
  mutable nballoon : int;
  mutable balloon_target_ : int;
  mutable balloon_busy : bool;
  mutable reclaiming : bool;
  mutable reclaim_waiters : (unit -> unit) list;
  mutable reclaim_stress : int;
  mutable futility_stress : int;
  mutable swap_window_start : Sim.Time.t;
  mutable swapped_in_window : int;
  mutable thrash_windows : int;
  mutable on_oom : unit -> unit;
  mutable oomed_ : bool;
  mutable services_started : bool;
  rng : Sim.Rng.t;
}

(* Kernel tunables, after Linux's defaults. *)
let reclaim_batch = 32
let readahead_min = 4 (* initial file readahead window, pages *)
let readahead_max = 32 (* max window; Linux default 128 KiB = 32 pages *)
let swap_cluster = 8 (* guest swap-in readahead, pages *)
let oom_min_free = 16 (* below this and nothing reclaimable => OOM kill *)

(* Consecutive reclaim passes that end still starved before the
   low-memory killer fires (over-ballooning, paper Section 2.4). *)
let oom_stress_limit = 60

let balloon_poll = Sim.Time.ms 100 (* balloon driver poll period *)
let balloon_chunk = Storage.Geom.pages_of_mb 16 (* pages moved per poll *)

(* CPU-side costs, microseconds. *)
let syscall_us = 2
let memcpy_us = 1 (* copying one page cache page to the user buffer *)
let guest_fault_us = 2 (* guest-side fault handling CPU cost *)

let validate (c : Gconfig.t) =
  let require ok field range =
    if not ok then
      invalid_arg
        (Printf.sprintf "Guestos.create: Gconfig.%s must be %s" field range)
  in
  require (c.mem_pages >= 1) "mem_pages" ">= 1";
  require (c.swap_blocks >= 1) "swap_blocks" ">= 1";
  require
    (0 <= c.misaligned_io_percent && c.misaligned_io_percent <= 100)
    "misaligned_io_percent" "in [0, 100]"

let create ~host ~gid ~config =
  validate config;
  let n = config.Gconfig.mem_pages in
  let arena = Mem.Flru.arena ~nodes:n () in
  {
    engine = Hostmm.engine host;
    host;
    gid;
    stats = Hostmm.stats host;
    cfg = config;
    min_free_pages = max 64 (n / 100);
    high_free_pages = max 128 (n * 3 / 100);
    kinds = Array.make n K_free;
    referenced = Bytes.make n '\000';
    arena;
    lru = Cgroup.create ~arena ~limit_frames:None;
    free = List.init n (fun i -> i);
    nfree = n;
    cache = Hashtbl.create 4096;
    dirty = Hashtbl.create 256;
    pending_blocks = Hashtbl.create 64;
    ra = Hashtbl.create 8;
    swap_alloc = Slot_alloc.create ~nslots:config.Gconfig.swap_blocks;
    swap_rev = Hashtbl.create 4096;
    fs_cursor = config.Gconfig.swap_blocks;
    next_fid = 0;
    (* pinned kernel text/data, unevictable *)
    kernel_gpas = Array.make (min (Storage.Geom.pages_of_mb 24) (n / 8)) (-1);
    kernel_rr = 0;
    balloon_pages = [];
    nballoon = 0;
    balloon_target_ = 0;
    balloon_busy = false;
    reclaiming = false;
    reclaim_waiters = [];
    reclaim_stress = 0;
    futility_stress = 0;
    swap_window_start = Sim.Time.zero;
    swapped_in_window = 0;
    thrash_windows = 0;
    on_oom = (fun () -> ());
    oomed_ = false;
    services_started = false;
    rng = Sim.Rng.of_int (0x5eed + (31 * gid));
  }

let gid t = t.gid
let config t = t.cfg
let after t cost_us k = (Sim.Engine.run_after t.engine (Sim.Time.us cost_us) k)

let set_ref t gpa = Bytes.set t.referenced gpa '\001'
let clear_ref t gpa = Bytes.set t.referenced gpa '\000'
let is_ref t gpa = Bytes.get t.referenced gpa <> '\000'

(* ------------------------------------------------------------------ *)
(* Free list / kinds                                                   *)
(* ------------------------------------------------------------------ *)

(* Caller must already have detached the gpa from the LRU. *)
let free_gpa t gpa =
  t.kinds.(gpa) <- K_free;
  clear_ref t gpa;
  t.free <- gpa :: t.free;
  t.nfree <- t.nfree + 1

let pop_free t =
  match t.free with
  | [] -> None
  | gpa :: rest ->
      t.free <- rest;
      t.nfree <- t.nfree - 1;
      Some gpa

(* ------------------------------------------------------------------ *)
(* Reclaim (guest kswapd / direct reclaim)                             *)
(* ------------------------------------------------------------------ *)

let swap_block_of_slot slot = slot  (* swap partition occupies blocks 0.. *)

(* Does this disk request honor 4 KiB alignment?  Linux guests with a 4K
   logical sector always do; Windows-style guests issue a configurable
   fraction of sporadic sub-page accesses (paper Section 5.4). *)
let draw_aligned t =
  t.cfg.misaligned_io_percent = 0
  || Sim.Rng.int t.rng 100 >= t.cfg.misaligned_io_percent

let drop_cache_page t gpa block =
  Hashtbl.remove t.cache block;
  Hashtbl.remove t.dirty gpa;
  free_gpa t gpa

let maybe_oom t =
  if t.nfree < oom_min_free && not t.oomed_ then begin
    t.oomed_ <- true;
    t.stats.oom_kills <- t.stats.oom_kills + 1;
    t.on_oom ()
  end

(* Swap-storm detector: a ballooned guest that swaps anonymous memory
   faster than a large fraction of its usable memory per second is
   thrashing against a demand spike it cannot satisfy — the situation in
   which the paper's guests invoked the OOM/low-memory killers
   (Section 2.4).  Unballooned guests never trigger this: the host hides
   the pressure from them. *)
let note_swap_pressure t =
  let now = Sim.Engine.now t.engine in
  let usable =
    max 1 (t.cfg.mem_pages - t.nballoon - Array.length t.kernel_gpas)
  in
  if Sim.Time.sub now t.swap_window_start > Sim.Time.sec 1 then begin
    (* Window rollover: a window with substantial swap-out traffic is a
       thrash window; several in a row mean the working set durably
       exceeds usable memory, which only happens to ballooned guests
       (unballooned ones never feel host pressure) and is when their
       OOM/low-memory killers strike (paper Section 2.4). *)
    if t.swapped_in_window > usable * 2 / 100 then
      t.thrash_windows <- t.thrash_windows + 1
    else t.thrash_windows <- 0;
    t.swap_window_start <- now;
    t.swapped_in_window <- 0
  end;
  t.swapped_in_window <- t.swapped_in_window + 1;
  if t.nballoon > 0 && t.thrash_windows >= 5 && not t.oomed_ then begin
    t.oomed_ <- true;
    t.stats.oom_kills <- t.stats.oom_kills + 1;
    t.on_oom ()
  end

(* Evict one page chosen by the scan; [k] runs when the page is free (a
   dirty or anonymous page must be written to the virtual disk first). *)
let evict_page t gpa k =
  match t.kinds.(gpa) with
  | K_cache block when Hashtbl.mem t.pending_blocks block ->
      (* Page locked for in-flight I/O: unevictable until it completes. *)
      Cgroup.move t.lru Cgroup.File_active gpa;
      k false
  | K_cache block when not (Hashtbl.mem t.dirty gpa) ->
      Cgroup.remove t.lru gpa;
      drop_cache_page t gpa block;
      k true
  | K_cache block ->
      Cgroup.remove t.lru gpa;
      Hostmm.vio_write t.host ~aligned:(draw_aligned t) ~guest:t.gid
        ~block0:block ~gpas:[| gpa |] (fun () ->
          drop_cache_page t gpa block;
          k true)
  | K_anon (r, idx) -> (
      match Slot_alloc.alloc t.swap_alloc with
      | None ->
          (* Guest swap full: page is effectively unevictable; park it on
             the active list so the scan stops revisiting it. *)
          Cgroup.move t.lru Cgroup.Anon_active gpa;
          k false
      | Some slot ->
          Cgroup.remove t.lru gpa;
          t.stats.guest_swapouts <- t.stats.guest_swapouts + 1;
          note_swap_pressure t;
          Hashtbl.replace t.swap_rev slot (r, idx);
          Hostmm.vio_write t.host ~aligned:(draw_aligned t) ~guest:t.gid
            ~block0:(swap_block_of_slot slot) ~gpas:[| gpa |] (fun () ->
              if r.live && r.slots.(idx) = S_mapped gpa then begin
                r.slots.(idx) <- S_swapped slot;
                free_gpa t gpa
              end
              else begin
                (* Region died or page was repurposed mid-writeback. *)
                Hashtbl.remove t.swap_rev slot;
                if Slot_alloc.is_allocated t.swap_alloc slot then
                  Slot_alloc.free t.swap_alloc slot;
                match t.kinds.(gpa) with
                | K_anon (r', idx') when r' == r && idx' = idx ->
                    free_gpa t gpa
                | _ -> ()
              end;
              k true))
  | K_free | K_kernel | K_balloon -> assert false

let refill_inactive t ~file =
  let active = if file then Cgroup.File_active else Cgroup.Anon_active in
  let inactive = if file then Cgroup.File_inactive else Cgroup.Anon_inactive in
  let moved = ref 0 in
  while
    Cgroup.inactive_low t.lru ~file
    && Cgroup.length t.lru active > 0
    && !moved < reclaim_batch
  do
    match Cgroup.tail t.lru active with
    | None -> moved := reclaim_batch
    | Some gpa ->
        incr moved;
        clear_ref t gpa;
        Cgroup.move t.lru inactive gpa
  done

let shrink t ~target ?(on_done = fun ~freed:_ ~scanned:_ -> ()) k =
  let freed = ref 0 and scanned = ref 0 in
  let max_scan = (4 * Cgroup.resident t.lru) + 64 in
  let finish () =
    on_done ~freed:!freed ~scanned:!scanned;
    k ()
  in
  let rec loop () =
    if !freed >= target || t.nfree >= t.high_free_pages then finish ()
    else begin
      refill_inactive t ~file:true;
      refill_inactive t ~file:false;
      let victim =
        let rec try_lists = function
          | [] -> None
          | id :: rest -> (
              match Cgroup.tail t.lru id with
              | Some gpa -> Some gpa
              | None -> try_lists rest)
        in
        try_lists [ Cgroup.File_inactive; Cgroup.Anon_inactive ]
      in
      match victim with
      | None ->
          maybe_oom t;
          finish ()
      | Some gpa ->
          incr scanned;
          if is_ref t gpa && !scanned <= max_scan then begin
            clear_ref t gpa;
            let active =
              match t.kinds.(gpa) with
              | K_cache _ -> Cgroup.File_active
              | K_anon _ -> Cgroup.Anon_active
              | K_free | K_kernel | K_balloon -> assert false
            in
            Cgroup.move t.lru active gpa;
            loop ()
          end
          else
            evict_page t gpa (fun did_free ->
                if did_free then incr freed;
                if !scanned > max_scan * 2 then begin
                  maybe_oom t;
                  finish ()
                end
                else loop ())
    end
  in
  loop ()

let reclaim t k =
  if t.reclaiming then t.reclaim_waiters <- k :: t.reclaim_waiters
  else begin
    t.reclaiming <- true;
    let target = max reclaim_batch (t.high_free_pages - t.nfree) in
    let on_done ~freed ~scanned =
      (* Reclaim futility: scanning mountains of referenced pages for a
         handful of frees means the working set exceeds usable memory —
         a ballooned guest in this state OOM-kills (Section 2.4). *)
      if t.nballoon > 0 && scanned > 8 * max 1 freed && scanned > 64 then begin
        t.futility_stress <- t.futility_stress + 1;
        if t.futility_stress > oom_stress_limit / 2 && not t.oomed_ then begin
          t.oomed_ <- true;
          t.stats.oom_kills <- t.stats.oom_kills + 1;
          t.on_oom ()
        end
      end
      else t.futility_stress <- 0
    in
    shrink t ~target ~on_done (fun () ->
        t.reclaiming <- false;
        (* Sustained starvation triggers the low-memory killer: reclaim
           keeps running but cannot lift free pages off the floor — the
           over-ballooning failure mode of Section 2.4. *)
        if t.nfree < t.min_free_pages / 2 then begin
          t.reclaim_stress <- t.reclaim_stress + 1;
          if t.reclaim_stress > oom_stress_limit then begin
            t.reclaim_stress <- 0;
            if not t.oomed_ then begin
              t.oomed_ <- true;
              t.stats.oom_kills <- t.stats.oom_kills + 1;
              t.on_oom ()
            end
          end
        end
        else t.reclaim_stress <- 0;
        let ws = t.reclaim_waiters in
        t.reclaim_waiters <- [];
        k ();
        List.iter (fun w -> w ()) ws)
  end

(* Allocate one guest page, reclaiming if the free list runs low. *)
let rec gpa_alloc t k =
  if t.nfree > t.min_free_pages then
    match pop_free t with Some gpa -> k gpa | None -> assert false
  else
    reclaim t (fun () ->
        match pop_free t with
        | Some gpa -> k gpa
        | None ->
            maybe_oom t;
            if t.nfree = 0 then
              (* OOM freed nothing: stall briefly and retry; the balloon
                 or another thread may release memory. *)
              after t 1000 (fun () -> gpa_alloc t k)
            else gpa_alloc t k)

(* ------------------------------------------------------------------ *)
(* Boot / warmup                                                       *)
(* ------------------------------------------------------------------ *)

let boot t k =
  let n = Array.length t.kernel_gpas in
  let rec go i =
    if i >= n then k ()
    else
      match pop_free t with
      | None -> failwith "Guestos.boot: no memory for kernel"
      | Some gpa ->
          t.kinds.(gpa) <- K_kernel;
          t.kernel_gpas.(i) <- gpa;
          Hostmm.rep_write t.host ~guest:t.gid ~gpa
            ~content:(Content.fresh_anon ()) (fun () -> go (i + 1))
  in
  go 0

let warm_all_memory t k =
  let gpas = ref [] in
  let rec grab () =
    match pop_free t with
    | Some gpa ->
        gpas := gpa :: !gpas;
        grab ()
    | None -> ()
  in
  grab ();
  let all = List.rev !gpas in
  (* Free the pages back in small runs of 8 in a shuffled run order: a
     long-running guest's buddy allocator hands out pages whose host
     swap slots correlate only at small-run granularity, not globally
     (this drives the cost of stale reads in the paper's experiments). *)
  let arr = Array.of_list all in
  let nruns = (Array.length arr + 7) / 8 in
  let order = Array.init nruns (fun i -> i) in
  Sim.Rng.shuffle t.rng order;
  let rec go = function
    | [] ->
        Array.iter
          (fun run ->
            for j = 0 to 7 do
              let i = (run * 8) + j in
              if i < Array.length arr then free_gpa t arr.(i)
            done)
          order;
        k ()
    | gpa :: rest ->
        Hostmm.rep_write t.host ~guest:t.gid ~gpa
          ~content:(Content.fresh_anon ()) (fun () -> go rest)
  in
  go all

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let create_file t ~blocks =
  let vdisk = Hostmm.vdisk t.host t.gid in
  if t.fs_cursor + blocks > Storage.Vdisk.nblocks vdisk then
    invalid_arg "Guestos.create_file: virtual disk full";
  let f = { fid = t.next_fid; start_block = t.fs_cursor; nblocks = blocks } in
  t.next_fid <- t.next_fid + 1;
  t.fs_cursor <- t.fs_cursor + blocks;
  Hashtbl.replace t.ra f.fid { expected = -1; window = readahead_min };
  f

let ra_of t f = Hashtbl.find t.ra f.fid

(* Wait until a block under I/O becomes readable. *)
let wait_block t block k =
  match Hashtbl.find_opt t.pending_blocks block with
  | None -> k ()
  | Some waiters -> waiters := k :: !waiters

let read_file t f ~idx k =
  if idx < 0 || idx >= f.nblocks then invalid_arg "Guestos.read_file: idx";
  let block = f.start_block + idx in
  let finish_hit gpa =
    set_ref t gpa;
    Hostmm.touch_read t.host ~guest:t.gid ~gpa (fun _content ->
        after t (syscall_us + memcpy_us) k)
  in
  match Hashtbl.find_opt t.cache block with
  | Some gpa -> wait_block t block (fun () -> finish_hit gpa)
  | None ->
      (* Miss: read a readahead window of consecutive uncached blocks. *)
      let ra = ra_of t f in
      if block = ra.expected then
        ra.window <- min (ra.window * 2) readahead_max
      else ra.window <- readahead_min;
      let max_count =
        let rec scan j =
          if
            j < ra.window
            && idx + j < f.nblocks
            && not (Hashtbl.mem t.cache (block + j))
          then scan (j + 1)
          else j
        in
        scan 1
      in
      ra.expected <- block + max_count;
      let gpas = Array.make max_count (-1) in
      let rec alloc_all i kk =
        if i >= max_count then kk ()
        else
          gpa_alloc t (fun gpa ->
              gpas.(i) <- gpa;
              alloc_all (i + 1) kk)
      in
      alloc_all 0 (fun () ->
          (* Register cache entries and pending state before the I/O. *)
          Array.iteri
            (fun i gpa ->
              let b = block + i in
              t.kinds.(gpa) <- K_cache b;
              Hashtbl.replace t.cache b gpa;
              Hashtbl.replace t.pending_blocks b (ref []);
              Cgroup.insert t.lru Cgroup.File_inactive gpa)
            gpas;
          Hostmm.vio_read t.host ~aligned:(draw_aligned t) ~guest:t.gid
            ~block0:block ~gpas (fun () ->
              Array.iteri
                (fun i _gpa ->
                  let b = block + i in
                  match Hashtbl.find_opt t.pending_blocks b with
                  | None -> ()
                  | Some waiters ->
                      Hashtbl.remove t.pending_blocks b;
                      let ws = !waiters in
                      waiters := [];
                      List.iter (fun w -> w ()) ws)
                gpas;
              finish_hit gpas.(0)))

let write_file t f ~idx k =
  if idx < 0 || idx >= f.nblocks then invalid_arg "Guestos.write_file: idx";
  let block = f.start_block + idx in
  let overwrite gpa =
    set_ref t gpa;
    Hashtbl.replace t.dirty gpa ();
    Hostmm.rep_write t.host ~guest:t.gid ~gpa ~content:(Content.fresh_anon ())
      (fun () -> after t syscall_us k)
  in
  match Hashtbl.find_opt t.cache block with
  | Some gpa -> wait_block t block (fun () -> overwrite gpa)
  | None ->
      gpa_alloc t (fun gpa ->
          t.kinds.(gpa) <- K_cache block;
          Hashtbl.replace t.cache block gpa;
          Cgroup.insert t.lru Cgroup.File_inactive gpa;
          overwrite gpa)

let fsync_file t f k =
  let dirty_blocks = ref [] in
  for idx = f.nblocks - 1 downto 0 do
    let block = f.start_block + idx in
    match Hashtbl.find_opt t.cache block with
    | Some gpa when Hashtbl.mem t.dirty gpa ->
        dirty_blocks := (block, gpa) :: !dirty_blocks
    | Some _ | None -> ()
  done;
  let rec go = function
    | [] -> after t syscall_us k
    | (block, gpa) :: rest ->
        Hostmm.vio_write t.host ~aligned:(draw_aligned t) ~guest:t.gid
          ~block0:block ~gpas:[| gpa |] (fun () ->
            Hashtbl.remove t.dirty gpa;
            go rest)
  in
  go !dirty_blocks

(* ------------------------------------------------------------------ *)
(* Anonymous memory                                                    *)
(* ------------------------------------------------------------------ *)

let alloc_region _t ~pages = { slots = Array.make pages S_unmapped; live = true }

let region_pages r = Array.length r.slots

(* Demand-allocate and zero an anonymous page (first touch). *)
let map_anon t r ~idx k =
  gpa_alloc t (fun gpa ->
      r.slots.(idx) <- S_mapped gpa;
      t.kinds.(gpa) <- K_anon (r, idx);
      set_ref t gpa;
      Cgroup.insert t.lru Cgroup.Anon_active gpa;
      Hostmm.rep_write t.host ~guest:t.gid ~gpa ~content:Content.Zero (fun () ->
          after t guest_fault_us (fun () -> k gpa)))

(* Guest-level swap-in with a small cluster readahead over consecutive
   swap slots. *)
let swap_in t r ~idx ~slot k =
  t.stats.guest_major_faults <- t.stats.guest_major_faults + 1;
  let rec run_len j =
    if j >= swap_cluster then j
    else
      let s = slot + j in
      if
        s < Slot_alloc.nslots t.swap_alloc
        && Slot_alloc.is_allocated t.swap_alloc s
        &&
        match Hashtbl.find_opt t.swap_rev s with
        | Some (r', idx') -> r'.live && r'.slots.(idx') = S_swapped s
        | None -> false
      then run_len (j + 1)
      else j
  in
  let n = max 1 (run_len 1) in
  let gpas = Array.make n (-1) in
  let rec alloc_all i kk =
    if i >= n then kk ()
    else
      gpa_alloc t (fun gpa ->
          gpas.(i) <- gpa;
          alloc_all (i + 1) kk)
  in
  alloc_all 0 (fun () ->
      Hostmm.vio_read t.host ~aligned:(draw_aligned t) ~guest:t.gid
        ~block0:(swap_block_of_slot slot) ~gpas (fun () ->
          for j = 0 to n - 1 do
            let s = slot + j in
            match Hashtbl.find_opt t.swap_rev s with
            | Some (r', idx') when r'.live && r'.slots.(idx') = S_swapped s ->
                t.stats.guest_swapins <- t.stats.guest_swapins + 1;
                Hashtbl.remove t.swap_rev s;
                Slot_alloc.free t.swap_alloc s;
                r'.slots.(idx') <- S_mapped gpas.(j);
                t.kinds.(gpas.(j)) <- K_anon (r', idx');
                Cgroup.insert t.lru
                  (if j = 0 then Cgroup.Anon_active else Cgroup.Anon_inactive)
                  gpas.(j);
                if j = 0 then set_ref t gpas.(j)
            | Some _ | None ->
                (* Slot was released mid-read; return the spare page. *)
                free_gpa t gpas.(j)
          done;
          after t guest_fault_us (fun () ->
              if r.live && r.slots.(idx) = S_mapped gpas.(0) then k gpas.(0)
              else
                (* Lost a race; retry the touch path. *)
                k gpas.(0))))

(* Accesses to a freed region drop their continuation silently: this
   only happens after the OOM killer tore the process down, when the
   machine executor has already stopped caring about the thread. *)
let rec with_mapped t r ~idx k =
  if not r.live then ()
  else
    match r.slots.(idx) with
  | S_mapped gpa -> k gpa
  | S_unmapped -> map_anon t r ~idx k
  | S_swapped slot ->
      swap_in t r ~idx ~slot (fun _gpa ->
          (* Re-dispatch: the fault may have raced with reclaim. *)
          with_mapped t r ~idx k)

let touch t r ~idx ~write k =
  with_mapped t r ~idx (fun gpa ->
      set_ref t gpa;
      if write then
        Hostmm.touch_write t.host ~guest:t.gid ~gpa ~offset:0 ~len:512
          ~gen:(Content.fresh_gen ()) ~intent_full_page:false k
      else Hostmm.touch_read t.host ~guest:t.gid ~gpa (fun _ -> k ()))

let rec overwrite_page t r ~idx k =
  if not r.live then ()
  else
    match r.slots.(idx) with
  | S_mapped gpa ->
      set_ref t gpa;
      Hostmm.rep_write t.host ~guest:t.gid ~gpa
        ~content:(Content.fresh_anon ()) k
  | S_unmapped ->
      (* First touch: allocation + full overwrite collapse into one
         REP store of the new contents. *)
      gpa_alloc t (fun gpa ->
          r.slots.(idx) <- S_mapped gpa;
          t.kinds.(gpa) <- K_anon (r, idx);
          set_ref t gpa;
          Cgroup.insert t.lru Cgroup.Anon_active gpa;
          Hostmm.rep_write t.host ~guest:t.gid ~gpa
            ~content:(Content.fresh_anon ()) k)
  | S_swapped slot ->
      (* The guest kernel does not know the store will cover the whole
         page; it faults the old contents in first (the host-level
         Preventer is what avoids the *host* read in this situation). *)
      swap_in t r ~idx ~slot (fun _ -> overwrite_page t r ~idx k)

let rec memcpy_page t r ~idx k =
  if not r.live then ()
  else
  let gen = Content.fresh_gen () in
  let chunk = 512 in
  let nchunks = Storage.Geom.page_bytes / chunk in
  let store gpa j kk =
    Hostmm.touch_write t.host ~guest:t.gid ~gpa ~offset:(j * chunk) ~len:chunk
      ~gen ~intent_full_page:true kk
  in
  match r.slots.(idx) with
  | S_mapped gpa ->
      set_ref t gpa;
      let rec go j = if j >= nchunks then k () else store gpa j (fun () -> go (j + 1)) in
      go 0
  | S_unmapped ->
      gpa_alloc t (fun gpa ->
          r.slots.(idx) <- S_mapped gpa;
          t.kinds.(gpa) <- K_anon (r, idx);
          set_ref t gpa;
          Cgroup.insert t.lru Cgroup.Anon_active gpa;
          let rec go j =
            if j >= nchunks then k () else store gpa j (fun () -> go (j + 1))
          in
          go 0)
  | S_swapped slot -> swap_in t r ~idx ~slot (fun _ -> memcpy_page t r ~idx k)

let free_region t r =
  if r.live then begin
    r.live <- false;
    Array.iteri
      (fun idx st ->
        match st with
        | S_unmapped -> ()
        | S_mapped gpa ->
            if Mem.Flru.in_some_list t.arena gpa then
              Cgroup.remove t.lru gpa;
            free_gpa t gpa
        | S_swapped slot ->
            Hashtbl.remove t.swap_rev slot;
            if Slot_alloc.is_allocated t.swap_alloc slot then
              Slot_alloc.free t.swap_alloc slot;
            r.slots.(idx) <- S_unmapped)
      r.slots
  end

(* ------------------------------------------------------------------ *)
(* Balloon driver and background services                              *)
(* ------------------------------------------------------------------ *)

let set_balloon_target t ~pages = t.balloon_target_ <- max 0 pages
let balloon_target t = t.balloon_target_
let balloon_size t = t.nballoon

let inflate_step t k =
  let want = min balloon_chunk (t.balloon_target_ - t.nballoon) in
  let rec go i =
    if i >= want || t.oomed_ then k ()
    else
      gpa_alloc t (fun gpa ->
          t.kinds.(gpa) <- K_balloon;
          Hostmm.balloon_steal t.host ~guest:t.gid ~gpa;
          t.balloon_pages <- gpa :: t.balloon_pages;
          t.nballoon <- t.nballoon + 1;
          go (i + 1))
  in
  go 0

let deflate_step t =
  let want = min balloon_chunk (t.nballoon - t.balloon_target_) in
  for _ = 1 to want do
    match t.balloon_pages with
    | [] -> ()
    | gpa :: rest ->
        t.balloon_pages <- rest;
        t.nballoon <- t.nballoon - 1;
        Hostmm.balloon_return t.host ~guest:t.gid ~gpa;
        free_gpa t gpa
  done

let rec balloon_loop t () =
  if t.balloon_busy then ()
  else if t.nballoon < t.balloon_target_ then begin
    t.balloon_busy <- true;
    inflate_step t (fun () ->
        t.balloon_busy <- false;
        schedule_balloon t)
  end
  else begin
    if t.nballoon > t.balloon_target_ then deflate_step t;
    schedule_balloon t
  end

and schedule_balloon t =
  (Sim.Engine.run_after t.engine balloon_poll (balloon_loop t))

(* Light periodic kernel activity: the guest kernel touches a few of its
   own pages (timers, daemons).  Under host pressure these generate
   background major faults, as on a real idle guest. *)
let rec kernel_activity t () =
  let n = Array.length t.kernel_gpas in
  if n > 0 then begin
    let touched = ref 0 in
    let rec touch_next () =
      if !touched >= 4 then
        (Sim.Engine.run_after t.engine (Sim.Time.ms 100)
             (kernel_activity t))
      else begin
        incr touched;
        let gpa = t.kernel_gpas.(t.kernel_rr mod n) in
        t.kernel_rr <- t.kernel_rr + 1;
        if gpa >= 0 then
          Hostmm.touch_read t.host ~guest:t.gid ~gpa (fun _ -> touch_next ())
        else touch_next ()
      end
    in
    touch_next ()
  end

let start_services t =
  if not t.services_started then begin
    t.services_started <- true;
    schedule_balloon t;
    (Sim.Engine.run_after t.engine (Sim.Time.ms 100) (kernel_activity t))
  end

(* ------------------------------------------------------------------ *)
(* OOM / introspection                                                 *)
(* ------------------------------------------------------------------ *)

let set_oom_handler t f = t.on_oom <- f
let oomed t = t.oomed_
let free_pages t = t.nfree
let cache_pages t = Hashtbl.length t.cache
let dirty_cache_pages t = Hashtbl.length t.dirty

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let free_count = List.length t.free in
  if free_count <> t.nfree then
    fail "free list length %d <> nfree %d" free_count t.nfree;
  List.iter
    (fun gpa ->
      if t.kinds.(gpa) <> K_free then fail "gpa %d on free list but not K_free" gpa)
    t.free;
  Hashtbl.iter
    (fun block gpa ->
      match t.kinds.(gpa) with
      | K_cache b when b = block -> ()
      | _ -> fail "cache entry block %d -> gpa %d kind mismatch" block gpa)
    t.cache;
  Hashtbl.iter
    (fun slot (r, idx) ->
      if r.live && not (Slot_alloc.is_allocated t.swap_alloc slot) then
        fail "swap_rev slot %d not allocated" slot;
      if r.live then
        match r.slots.(idx) with
        | S_swapped s when s = slot -> ()
        | _ -> fail "swap_rev slot %d region state mismatch" slot)
    t.swap_rev
