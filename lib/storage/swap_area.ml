let cluster_slots = 256

(* Per-slot state is kept in chunks of [chunk_slots] slots, allocated
   when a slot in the chunk is first taken; an untouched chunk is the
   shared empty array, and every slot in it reads as free, on tier 0.
   Chunks have a fixed size and are never freed, so an area that grows
   mid-run (inside a fleet's pool domain) allocates small blocks of one
   size instead of doubling arrays. *)
let chunk_bits = 10
let chunk_slots = 1 lsl chunk_bits

type t = {
  base_sector : int;
  nslots : int;
  (* The owner of each slot, or -1: the one mark of a free slot. *)
  owners : int array array;
  contents : Content.t array array;  (* [Content.Zero] in a free slot *)
  tiers : Bytes.t array;  (* backend tier of each slot; 0 = fast *)
  free_in_cluster : int array;  (* free-slot count per cluster *)
  mutable free_clusters : int;  (* clusters with every slot free *)
  (* Current allocation cluster and the next offset to try within it;
     -1 means no current cluster. *)
  mutable cur_cluster : int;
  mutable cur_offset : int;
  mutable scan_cursor : int;  (* fallback first-free scan position *)
  mutable in_use : int;
  mutable fragmented_allocs : int;
  mutable on_free : (slot:int -> tier:int -> unit) option;
      (* called by [free] before the slot is reset, so a tiered backend
         can release per-slot resources without shadow bookkeeping *)
}

(* The area holds exactly the requested number of slots: the cluster
   count rounds *up*, and the last cluster may be partial.  (Truncating
   division silently resized the area — ~nslots:300 gave 256 slots.) *)
let create ~base_sector ~nslots =
  if nslots < 1 then invalid_arg "Swap_area.create: nslots must be >= 1";
  let nclusters = (nslots + cluster_slots - 1) / cluster_slots in
  let nchunks = (nslots + chunk_slots - 1) lsr chunk_bits in
  let cluster_free c =
    min cluster_slots (nslots - (c * cluster_slots))
  in
  {
    base_sector;
    nslots;
    owners = Array.make nchunks [||];
    contents = Array.make nchunks [||];
    tiers = Array.make nchunks Bytes.empty;
    free_in_cluster = Array.init nclusters cluster_free;
    free_clusters = nclusters;
    cur_cluster = -1;
    cur_offset = 0;
    scan_cursor = 0;
    in_use = 0;
    fragmented_allocs = 0;
    on_free = None;
  }

let nclusters t = Array.length t.free_in_cluster

(* Slot capacity of cluster [c]; only the last cluster can be partial. *)
let cluster_capacity t c = min cluster_slots (t.nslots - (c * cluster_slots))

let check t slot =
  if slot < 0 || slot >= t.nslots then
    invalid_arg (Printf.sprintf "Swap_area: slot %d out of range" slot)

let[@inline] owner_of t slot =
  let chunk = t.owners.(slot lsr chunk_bits) in
  if Array.length chunk = 0 then -1 else chunk.(slot land (chunk_slots - 1))

let take t slot content owner =
  let k = slot lsr chunk_bits and i = slot land (chunk_slots - 1) in
  if Array.length t.owners.(k) = 0 then begin
    (* Only the last chunk can be partial. *)
    let n = min chunk_slots (t.nslots - (k lsl chunk_bits)) in
    t.owners.(k) <- Array.make n (-1);
    t.contents.(k) <- Array.make n Content.Zero;
    t.tiers.(k) <- Bytes.make n '\000'
  end;
  t.owners.(k).(i) <- owner;
  t.contents.(k).(i) <- content;
  Bytes.set t.tiers.(k) i '\000';
  let c = slot / cluster_slots in
  if t.free_in_cluster.(c) = cluster_capacity t c then
    t.free_clusters <- t.free_clusters - 1;
  t.free_in_cluster.(c) <- t.free_in_cluster.(c) - 1;
  t.in_use <- t.in_use + 1;
  Some slot

(* Find the next wholly-free cluster, round-robin from cur_cluster.
   The count answers "none" without the walk, which is the common case
   once the area has aged. *)
let find_free_cluster t =
  let n = nclusters t in
  let start = if t.cur_cluster < 0 then 0 else (t.cur_cluster + 1) mod n in
  let rec go i remaining =
    if remaining = 0 then None
    else if t.free_in_cluster.(i) = cluster_capacity t i then Some i
    else go ((i + 1) mod n) (remaining - 1)
  in
  if t.free_clusters = 0 then None else go start n

let rec alloc_slot t content owner =
  if t.in_use = t.nslots then None
  else if
    t.cur_cluster >= 0 && t.cur_offset < cluster_capacity t t.cur_cluster
  then begin
    let slot = (t.cur_cluster * cluster_slots) + t.cur_offset in
    t.cur_offset <- t.cur_offset + 1;
    if owner_of t slot < 0 then take t slot content owner
    else alloc_slot t content owner
  end
  else
    match find_free_cluster t with
    | Some c ->
        t.cur_cluster <- c;
        t.cur_offset <- 0;
        alloc_slot t content owner
    | None ->
        (* Fragmented regime: scan for any free slot. *)
        t.cur_cluster <- -1;
        t.fragmented_allocs <- t.fragmented_allocs + 1;
        let rec find i remaining =
          if remaining = 0 then None
          else if owner_of t i < 0 then Some i
          else find ((i + 1) mod t.nslots) (remaining - 1)
        in
        (match find t.scan_cursor t.nslots with
        | None -> None
        | Some slot ->
            t.scan_cursor <- (slot + 1) mod t.nslots;
            take t slot content owner)

let alloc t content ~owner =
  if owner < 0 then
    invalid_arg (Printf.sprintf "Swap_area.alloc: owner %d is negative" owner);
  alloc_slot t content owner

let owner t slot =
  check t slot;
  owner_of t slot

let free t slot =
  check t slot;
  if owner_of t slot < 0 then
    invalid_arg (Printf.sprintf "Swap_area.free: slot %d is free" slot);
  let k = slot lsr chunk_bits and i = slot land (chunk_slots - 1) in
  (match t.on_free with
  | Some f -> f ~slot ~tier:(Char.code (Bytes.get t.tiers.(k) i))
  | None -> ());
  t.owners.(k).(i) <- -1;
  t.contents.(k).(i) <- Content.Zero;
  let c = slot / cluster_slots in
  t.free_in_cluster.(c) <- t.free_in_cluster.(c) + 1;
  if t.free_in_cluster.(c) = cluster_capacity t c then
    t.free_clusters <- t.free_clusters + 1;
  t.in_use <- t.in_use - 1

let set_tier t slot tier =
  check t slot;
  if owner_of t slot < 0 then
    invalid_arg (Printf.sprintf "Swap_area.set_tier: slot %d is free" slot);
  Bytes.set t.tiers.(slot lsr chunk_bits) (slot land (chunk_slots - 1))
    (Char.chr tier)

let tier t slot =
  check t slot;
  let chunk = t.tiers.(slot lsr chunk_bits) in
  if Bytes.length chunk = 0 then 0
  else Char.code (Bytes.get chunk (slot land (chunk_slots - 1)))

let set_on_free t f = t.on_free <- f

let content t slot =
  check t slot;
  if owner_of t slot < 0 then
    invalid_arg (Printf.sprintf "Swap_area.content: slot %d is free" slot);
  t.contents.(slot lsr chunk_bits).(slot land (chunk_slots - 1))

let is_allocated t slot =
  check t slot;
  owner_of t slot >= 0

let iter_allocated t f =
  Array.iteri
    (fun k chunk ->
      Array.iteri
        (fun i owner ->
          if owner >= 0 then f ~slot:((k lsl chunk_bits) + i) ~owner)
        chunk)
    t.owners

let sector_of_slot t slot =
  check t slot;
  t.base_sector + (slot * Geom.sectors_per_page)

let nslots t = t.nslots
let in_use t = t.in_use

let free_clusters t = t.free_clusters

let fragmented_allocs t = t.fragmented_allocs
