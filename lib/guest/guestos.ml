module Hostmm = Host.Hostmm
module Cgroup = Host.Cgroup
module Content = Storage.Content

(* An anonymous page's owner: its region's id and its index in the
   region, packed into one non-negative int.  It is the payload of an
   anon page's kind and the owner of the guest swap slot holding the
   page's swapped-out copy. *)
module Owner = struct
  let idx_bits = 30
  let key ~rid ~idx = (rid lsl idx_bits) lor idx
  let rid o = o lsr idx_bits
  let idx o = o land ((1 lsl idx_bits) - 1)
end

(* Packed page kinds: the tag in the low 3 bits, the payload (a cache
   page's block, an anon page's [Owner] key) above.  Nothing outside
   [Kind] masks or shifts a kind, and "still this anon page" is one int
   compare, since region ids are never reused. *)
module Kind = struct
  type tag = Free | Kernel | Balloon | Cache | Anon

  let free = 0
  let kernel = 1
  let balloon = 2
  let cache block = (block lsl 3) lor 3
  let anon owner = (owner lsl 3) lor 4

  let[@inline] tag k =
    match k land 7 with
    | 0 -> Free
    | 1 -> Kernel
    | 2 -> Balloon
    | 3 -> Cache
    | _ -> Anon

  (* The block of a cache page, the owner key of an anon page. *)
  let arg k = k lsr 3
end

(* Packed region entries: unmapped, or the page's gpa or guest swap
   slot above a 2-bit tag. *)
module Entry = struct
  type state = Unmapped | Mapped | Swapped

  let unmapped = 0
  let mapped gpa = (gpa lsl 2) lor 1
  let swapped slot = (slot lsl 2) lor 2

  let[@inline] state e =
    match e land 3 with 0 -> Unmapped | 1 -> Mapped | _ -> Swapped

  (* The gpa of a mapped page, the slot of a swapped one. *)
  let arg e = e lsr 2
end

type region = {
  rid : int;  (* never reused *)
  slots : int array;  (* packed entries; see [Entry] *)
  mutable live : bool;
}

(* What a freed region's place in the region table holds. *)
let dead_region = { rid = -1; slots = [||]; live = false }

type file = {
  start_block : int;
  nblocks : int;
  mutable ra_expected : int;  (* the block a sequential miss reads next *)
  mutable ra_window : int;  (* readahead window, pages *)
}

(* Per-gpa flag bits. *)
let referenced_bit = 1
let dirty_bit = 2  (* a cache page written since its last write-back *)

type t = {
  engine : Sim.Engine.t;
  host : Hostmm.t;
  gid : int;
  stats : Metrics.Stats.t;
  cfg : Gconfig.t;
  min_free_pages : int;  (* direct reclaim below this many free pages *)
  high_free_pages : int;  (* reclaim refills to this level *)
  kinds : int array;  (* packed; see [Kind] *)
  flags : Bytes.t;  (* per gpa: [referenced_bit], [dirty_bit] *)
  mutable ndirty : int;  (* dirty bits set *)
  arena : Mem.Flru.arena;  (* node id = gpa *)
  lru : Cgroup.t;  (* guest-side active/inactive lists *)
  free : int array;  (* stack of free gpas, [nfree] deep; top last *)
  mutable nfree : int;
  cache : Mem.Itbl.t;  (* block -> gpa *)
  pending_blocks : (int, (unit -> unit) list ref) Hashtbl.t;
  swap_alloc : Slot_alloc.t;  (* slot owners are [Owner] keys *)
  (* Live regions: rid -> index in [regions], whose free places the
     slab recycles; a freed region gives up its entry. *)
  rids : Mem.Itbl.t;
  mutable regions : region array;
  region_slab : Mem.Itbl.Slab.t;
  mutable next_rid : int;
  mutable fs_cursor : int;  (* next unallocated data block *)
  kernel_gpas : int array;
  mutable kernel_rr : int;
  mutable balloon_pages : int array;  (* stack of ballooned gpas *)
  mutable nballoon : int;  (* [balloon_pages]'s depth *)
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
    kinds = Array.make n Kind.free;
    flags = Bytes.make n '\000';
    ndirty = 0;
    arena;
    lru = Cgroup.create ~arena ~limit_frames:None;
    free = Array.init n (fun i -> n - 1 - i);  (* gpa 0 on top *)
    nfree = n;
    cache = Mem.Itbl.create ();
    pending_blocks = Hashtbl.create 64;
    swap_alloc = Slot_alloc.create ~nslots:config.Gconfig.swap_blocks;
    rids = Mem.Itbl.create ();
    regions = [||];
    region_slab = Mem.Itbl.Slab.create ();
    next_rid = 0;
    fs_cursor = config.Gconfig.swap_blocks;
    (* pinned kernel text/data, unevictable *)
    kernel_gpas = Array.make (min (Storage.Geom.pages_of_mb 24) (n / 8)) (-1);
    kernel_rr = 0;
    balloon_pages = [||];
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

let flag t gpa bit = Bytes.get_uint8 t.flags gpa land bit <> 0

let set_flag t gpa bit on =
  let b = Bytes.get_uint8 t.flags gpa in
  Bytes.set_uint8 t.flags gpa (if on then b lor bit else b land lnot bit)

let set_ref t gpa = set_flag t gpa referenced_bit true
let clear_ref t gpa = set_flag t gpa referenced_bit false
let is_ref t gpa = flag t gpa referenced_bit
let is_dirty t gpa = flag t gpa dirty_bit

(* Mark [gpa] dirty or clean, keeping the count. *)
let set_dirty t gpa on =
  if is_dirty t gpa <> on then begin
    set_flag t gpa dirty_bit on;
    t.ndirty <- (if on then t.ndirty + 1 else t.ndirty - 1)
  end

(* The live region owning the anon page [o] (an [Owner] key, or -1 for
   none), or [dead_region]. *)
let region_of t o =
  let i =
    if o < 0 then -1 else Mem.Itbl.find t.rids (Owner.rid o) ~default:(-1)
  in
  if i < 0 then dead_region else t.regions.(i)

(* ------------------------------------------------------------------ *)
(* Free list / kinds                                                   *)
(* ------------------------------------------------------------------ *)

(* Caller must already have detached the gpa from the LRU. *)
let free_gpa t gpa =
  t.kinds.(gpa) <- Kind.free;
  clear_ref t gpa;
  t.free.(t.nfree) <- gpa;
  t.nfree <- t.nfree + 1

(* The top free gpa, popped, or -1 if none is free. *)
let pop_free t =
  if t.nfree = 0 then -1
  else begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end

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
  Mem.Itbl.remove t.cache block;
  set_dirty t gpa false;
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
  let kind = t.kinds.(gpa) in
  match Kind.tag kind with
  | Cache ->
      let block = Kind.arg kind in
      if Hashtbl.mem t.pending_blocks block then begin
        (* Page locked for in-flight I/O: unevictable until it completes. *)
        Cgroup.move t.lru Cgroup.File_active gpa;
        k false
      end
      else begin
        Cgroup.remove t.lru gpa;
        if not (is_dirty t gpa) then begin
          drop_cache_page t gpa block;
          k true
        end
        else
          Hostmm.vio_write t.host ~aligned:(draw_aligned t) ~guest:t.gid
            ~block0:block ~gpas:[| gpa |] (fun () ->
              drop_cache_page t gpa block;
              k true)
      end
  | Anon ->
      let owner = Kind.arg kind in
      let slot = Slot_alloc.alloc t.swap_alloc ~owner in
      if slot < 0 then begin
        (* Guest swap full: page is effectively unevictable; park it on
           the active list so the scan stops revisiting it. *)
        Cgroup.move t.lru Cgroup.Anon_active gpa;
        k false
      end
      else begin
        let r = region_of t owner and idx = Owner.idx owner in
        Cgroup.remove t.lru gpa;
        t.stats.guest_swapouts <- t.stats.guest_swapouts + 1;
        note_swap_pressure t;
        Hostmm.vio_write t.host ~aligned:(draw_aligned t) ~guest:t.gid
          ~block0:(swap_block_of_slot slot) ~gpas:[| gpa |] (fun () ->
            if r.live && r.slots.(idx) = Entry.mapped gpa then begin
              r.slots.(idx) <- Entry.swapped slot;
              free_gpa t gpa
            end
            else begin
              (* Region died or page was repurposed mid-writeback. *)
              Slot_alloc.free t.swap_alloc slot;
              if t.kinds.(gpa) = kind then free_gpa t gpa
            end;
            k true)
      end
  | Free | Kernel | Balloon -> assert false

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
              match Kind.tag t.kinds.(gpa) with
              | Cache -> Cgroup.File_active
              | Anon -> Cgroup.Anon_active
              | Free | Kernel | Balloon -> assert false
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
  if t.nfree > t.min_free_pages then k (pop_free t)
  else
    reclaim t (fun () ->
        let gpa = pop_free t in
        if gpa >= 0 then k gpa
        else begin
          maybe_oom t;
          if t.nfree = 0 then
            (* OOM freed nothing: stall briefly and retry; the balloon
               or another thread may release memory. *)
            after t 1000 (fun () -> gpa_alloc t k)
          else gpa_alloc t k
        end)

(* ------------------------------------------------------------------ *)
(* Boot / warmup                                                       *)
(* ------------------------------------------------------------------ *)

let boot t k =
  let n = Array.length t.kernel_gpas in
  let rec go i =
    if i >= n then k ()
    else
      let gpa = pop_free t in
      if gpa < 0 then failwith "Guestos.boot: no memory for kernel";
      t.kinds.(gpa) <- Kind.kernel;
      t.kernel_gpas.(i) <- gpa;
      Hostmm.rep_write t.host ~guest:t.gid ~gpa
        ~content:(Content.fresh_anon ()) (fun () -> go (i + 1))
  in
  go 0

let warm_all_memory t k =
  (* Every free gpa, in the order the stack pops them. *)
  let arr = Array.init t.nfree (fun _ -> pop_free t) in
  (* Free the pages back in small runs of 8 in a shuffled run order: a
     long-running guest's buddy allocator hands out pages whose host
     swap slots correlate only at small-run granularity, not globally
     (this drives the cost of stale reads in the paper's experiments). *)
  let nruns = (Array.length arr + 7) / 8 in
  let order = Array.init nruns (fun i -> i) in
  Sim.Rng.shuffle t.rng order;
  let rec go i =
    if i = Array.length arr then begin
      Array.iter
        (fun run ->
          for j = 0 to 7 do
            let i = (run * 8) + j in
            if i < Array.length arr then free_gpa t arr.(i)
          done)
        order;
      k ()
    end
    else
      Hostmm.rep_write t.host ~guest:t.gid ~gpa:arr.(i)
        ~content:(Content.fresh_anon ()) (fun () -> go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let create_file t ~blocks =
  let vdisk = Hostmm.vdisk t.host t.gid in
  if t.fs_cursor + blocks > Storage.Vdisk.nblocks vdisk then
    invalid_arg "Guestos.create_file: virtual disk full";
  let f =
    {
      start_block = t.fs_cursor;
      nblocks = blocks;
      ra_expected = -1;
      ra_window = readahead_min;
    }
  in
  t.fs_cursor <- t.fs_cursor + blocks;
  f

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
  let gpa = Mem.Itbl.find t.cache block ~default:(-1) in
  if gpa >= 0 then wait_block t block (fun () -> finish_hit gpa)
  else begin
    (* Miss: read a readahead window of consecutive uncached blocks. *)
    if block = f.ra_expected then
      f.ra_window <- min (f.ra_window * 2) readahead_max
    else f.ra_window <- readahead_min;
    let max_count =
      let rec scan j =
        if
          j < f.ra_window
          && idx + j < f.nblocks
          && not (Mem.Itbl.mem t.cache (block + j))
        then scan (j + 1)
        else j
      in
      scan 1
    in
    f.ra_expected <- block + max_count;
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
            t.kinds.(gpa) <- Kind.cache b;
            Mem.Itbl.set t.cache b gpa;
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
  end

let write_file t f ~idx k =
  if idx < 0 || idx >= f.nblocks then invalid_arg "Guestos.write_file: idx";
  let block = f.start_block + idx in
  let overwrite gpa =
    set_ref t gpa;
    set_dirty t gpa true;
    Hostmm.rep_write t.host ~guest:t.gid ~gpa ~content:(Content.fresh_anon ())
      (fun () -> after t syscall_us k)
  in
  let gpa = Mem.Itbl.find t.cache block ~default:(-1) in
  if gpa >= 0 then wait_block t block (fun () -> overwrite gpa)
  else
    gpa_alloc t (fun gpa ->
        t.kinds.(gpa) <- Kind.cache block;
        Mem.Itbl.set t.cache block gpa;
        Cgroup.insert t.lru Cgroup.File_inactive gpa;
        overwrite gpa)

let fsync_file t f k =
  let dirty_blocks = ref [] in
  for idx = f.nblocks - 1 downto 0 do
    let block = f.start_block + idx in
    let gpa = Mem.Itbl.find t.cache block ~default:(-1) in
    if gpa >= 0 && is_dirty t gpa then
      dirty_blocks := (block, gpa) :: !dirty_blocks
  done;
  let rec go = function
    | [] -> after t syscall_us k
    | (block, gpa) :: rest ->
        Hostmm.vio_write t.host ~aligned:(draw_aligned t) ~guest:t.gid
          ~block0:block ~gpas:[| gpa |] (fun () ->
            set_dirty t gpa false;
            go rest)
  in
  go !dirty_blocks

(* ------------------------------------------------------------------ *)
(* Anonymous memory                                                    *)
(* ------------------------------------------------------------------ *)

let alloc_region t ~pages =
  if pages >= 1 lsl Owner.idx_bits then
    invalid_arg "Guestos.alloc_region: pages";
  let r =
    { rid = t.next_rid; slots = Array.make pages Entry.unmapped; live = true }
  in
  t.next_rid <- t.next_rid + 1;
  let i = Mem.Itbl.Slab.alloc t.region_slab in
  if i = Array.length t.regions then begin
    let bigger = Array.make (max 8 (2 * i)) dead_region in
    Array.blit t.regions 0 bigger 0 i;
    t.regions <- bigger
  end;
  t.regions.(i) <- r;
  Mem.Itbl.set t.rids r.rid i;
  r

let region_pages r = Array.length r.slots

(* Map [gpa] as page [idx] of [r]: a fresh, referenced, active page. *)
let install_anon t r ~idx gpa =
  r.slots.(idx) <- Entry.mapped gpa;
  t.kinds.(gpa) <- Kind.anon (Owner.key ~rid:r.rid ~idx);
  set_ref t gpa;
  Cgroup.insert t.lru Cgroup.Anon_active gpa

(* Demand-allocate and zero an anonymous page (first touch). *)
let map_anon t r ~idx k =
  gpa_alloc t (fun gpa ->
      install_anon t r ~idx gpa;
      Hostmm.rep_write t.host ~guest:t.gid ~gpa ~content:Content.Zero (fun () ->
          after t guest_fault_us (fun () -> k gpa)))

(* Does guest swap slot [s] still hold the swapped-out copy of a live
   region's page?  Then that region, else [dead_region]. *)
let swapped_region t s =
  let o = Slot_alloc.owner t.swap_alloc s in
  let r = region_of t o in
  if r.live && r.slots.(Owner.idx o) = Entry.swapped s then r else dead_region

(* Guest-level swap-in with a small cluster readahead over consecutive
   swap slots. *)
let swap_in t ~slot k =
  t.stats.guest_major_faults <- t.stats.guest_major_faults + 1;
  let rec run_len j =
    if j >= swap_cluster then j
    else
      let s = slot + j in
      if s < Slot_alloc.nslots t.swap_alloc && (swapped_region t s).live then
        run_len (j + 1)
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
            let s = slot + j and gpa = gpas.(j) in
            let r = swapped_region t s in
            if r.live then begin
              let owner = Slot_alloc.owner t.swap_alloc s in
              t.stats.guest_swapins <- t.stats.guest_swapins + 1;
              Slot_alloc.free t.swap_alloc s;
              r.slots.(Owner.idx owner) <- Entry.mapped gpa;
              t.kinds.(gpa) <- Kind.anon owner;
              Cgroup.insert t.lru
                (if j = 0 then Cgroup.Anon_active else Cgroup.Anon_inactive)
                gpa;
              if j = 0 then set_ref t gpa
            end
            else
              (* Slot was released mid-read; return the spare page. *)
              free_gpa t gpa
          done;
          after t guest_fault_us (fun () -> k ())))

(* Accesses to a freed region drop their continuation silently: this
   only happens after the OOM killer tore the process down, when the
   machine executor has already stopped caring about the thread. *)
let rec with_mapped t r ~idx k =
  if r.live then
    let e = r.slots.(idx) in
    match Entry.state e with
    | Mapped -> k (Entry.arg e)
    | Unmapped -> map_anon t r ~idx k
    | Swapped ->
        (* Re-dispatch: the fault may have raced with reclaim. *)
        swap_in t ~slot:(Entry.arg e) (fun () -> with_mapped t r ~idx k)

let touch t r ~idx ~write k =
  with_mapped t r ~idx (fun gpa ->
      set_ref t gpa;
      if write then
        Hostmm.touch_write t.host ~guest:t.gid ~gpa ~offset:0 ~len:512
          ~gen:(Content.fresh_gen ()) ~intent_full_page:false k
      else Hostmm.touch_read t.host ~guest:t.gid ~gpa (fun _ -> k ()))

let rec overwrite_page t r ~idx k =
  if r.live then
    let e = r.slots.(idx) in
    match Entry.state e with
    | Mapped ->
        let gpa = Entry.arg e in
        set_ref t gpa;
        Hostmm.rep_write t.host ~guest:t.gid ~gpa
          ~content:(Content.fresh_anon ()) k
    | Unmapped ->
        (* First touch: allocation + full overwrite collapse into one
           REP store of the new contents. *)
        gpa_alloc t (fun gpa ->
            install_anon t r ~idx gpa;
            Hostmm.rep_write t.host ~guest:t.gid ~gpa
              ~content:(Content.fresh_anon ()) k)
    | Swapped ->
        (* The guest kernel does not know the store will cover the whole
           page; it faults the old contents in first (the host-level
           Preventer is what avoids the *host* read in this situation). *)
        swap_in t ~slot:(Entry.arg e) (fun () -> overwrite_page t r ~idx k)

let rec memcpy_page t r ~idx k =
  if r.live then begin
    let gen = Content.fresh_gen () in
    let chunk = 512 in
    let nchunks = Storage.Geom.page_bytes / chunk in
    let rec store gpa j =
      if j >= nchunks then k ()
      else
        Hostmm.touch_write t.host ~guest:t.gid ~gpa ~offset:(j * chunk)
          ~len:chunk ~gen ~intent_full_page:true (fun () -> store gpa (j + 1))
    in
    let e = r.slots.(idx) in
    match Entry.state e with
    | Mapped ->
        let gpa = Entry.arg e in
        set_ref t gpa;
        store gpa 0
    | Unmapped ->
        gpa_alloc t (fun gpa ->
            install_anon t r ~idx gpa;
            store gpa 0)
    | Swapped ->
        swap_in t ~slot:(Entry.arg e) (fun () -> memcpy_page t r ~idx k)
  end

let free_region t r =
  if r.live then begin
    r.live <- false;
    let i = Mem.Itbl.find t.rids r.rid ~default:(-1) in
    Mem.Itbl.remove t.rids r.rid;
    t.regions.(i) <- dead_region;
    Mem.Itbl.Slab.release t.region_slab i;
    Array.iteri
      (fun idx e ->
        match Entry.state e with
        | Unmapped -> ()
        | Mapped ->
            let gpa = Entry.arg e in
            if Mem.Flru.in_some_list t.arena gpa then
              Cgroup.remove t.lru gpa;
            free_gpa t gpa
        | Swapped ->
            Slot_alloc.free t.swap_alloc (Entry.arg e);
            r.slots.(idx) <- Entry.unmapped)
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
          t.kinds.(gpa) <- Kind.balloon;
          Hostmm.balloon_steal t.host ~guest:t.gid ~gpa;
          if t.nballoon = Array.length t.balloon_pages then begin
            let bigger = Array.make (max 1024 (2 * t.nballoon)) (-1) in
            Array.blit t.balloon_pages 0 bigger 0 t.nballoon;
            t.balloon_pages <- bigger
          end;
          t.balloon_pages.(t.nballoon) <- gpa;
          t.nballoon <- t.nballoon + 1;
          go (i + 1))
  in
  go 0

let deflate_step t =
  let want = min balloon_chunk (t.nballoon - t.balloon_target_) in
  for _ = 1 to want do
    t.nballoon <- t.nballoon - 1;
    let gpa = t.balloon_pages.(t.nballoon) in
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
let cache_pages t = Mem.Itbl.length t.cache
let dirty_cache_pages t = t.ndirty
let swap_slots_in_use t = Slot_alloc.in_use t.swap_alloc

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  for i = 0 to t.nfree - 1 do
    let gpa = t.free.(i) in
    if t.kinds.(gpa) <> Kind.free then
      fail "gpa %d on free list but not free" gpa
  done;
  Mem.Itbl.iter
    (fun block gpa ->
      if t.kinds.(gpa) <> Kind.cache block then
        fail "cache entry block %d -> gpa %d kind mismatch" block gpa)
    t.cache;
  let ndirty = ref 0 in
  Array.iteri
    (fun gpa kind ->
      if is_dirty t gpa then begin
        incr ndirty;
        if Kind.tag kind <> Cache then fail "gpa %d dirty but not cached" gpa
      end;
      match Kind.tag kind with
      | Cache -> ()
      | Anon ->
          let o = Kind.arg kind in
          let r = region_of t o in
          if not (r.live && r.slots.(Owner.idx o) = Entry.mapped gpa) then
            fail "anon gpa %d (region %d page %d) does not map back" gpa
              (Owner.rid o) (Owner.idx o)
      | Free | Kernel | Balloon ->
          if Mem.Flru.in_some_list t.arena gpa then
            fail "gpa %d on an LRU list but not a cache or anon page" gpa)
    t.kinds;
  if !ndirty <> t.ndirty then
    fail "%d dirty bits but %d dirty pages counted" !ndirty t.ndirty;
  Slot_alloc.iter_owned t.swap_alloc (fun ~slot ~owner ->
      let r = region_of t owner in
      (* A slot whose region has died is still being written. *)
      if r.live && r.slots.(Owner.idx owner) <> Entry.swapped slot then
        fail "swap slot %d (region %d page %d) region state mismatch" slot
          (Owner.rid owner) (Owner.idx owner))
