let cluster_slots = 256

type t = {
  base_sector : int;
  nslots : int;
  contents : Content.t option array;
  tiers : int array;  (* backend tier of each allocated slot; 0 = fast *)
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
  let cluster_free c =
    min cluster_slots (nslots - (c * cluster_slots))
  in
  {
    base_sector;
    nslots;
    contents = Array.make nslots None;
    tiers = Array.make nslots 0;
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

let take t slot content =
  t.contents.(slot) <- Some content;
  t.tiers.(slot) <- 0;
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

let rec alloc t content =
  if t.in_use = t.nslots then None
  else if
    t.cur_cluster >= 0 && t.cur_offset < cluster_capacity t t.cur_cluster
  then begin
    let slot = (t.cur_cluster * cluster_slots) + t.cur_offset in
    t.cur_offset <- t.cur_offset + 1;
    if t.contents.(slot) = None then take t slot content
    else alloc t content
  end
  else
    match find_free_cluster t with
    | Some c ->
        t.cur_cluster <- c;
        t.cur_offset <- 0;
        alloc t content
    | None ->
        (* Fragmented regime: scan for any free slot. *)
        t.cur_cluster <- -1;
        t.fragmented_allocs <- t.fragmented_allocs + 1;
        let rec find i remaining =
          if remaining = 0 then None
          else if t.contents.(i) = None then Some i
          else find ((i + 1) mod t.nslots) (remaining - 1)
        in
        (match find t.scan_cursor t.nslots with
        | None -> None
        | Some slot ->
            t.scan_cursor <- (slot + 1) mod t.nslots;
            take t slot content)

let free t slot =
  check t slot;
  match t.contents.(slot) with
  | None -> invalid_arg (Printf.sprintf "Swap_area.free: slot %d is free" slot)
  | Some _ ->
      (match t.on_free with
      | Some f -> f ~slot ~tier:t.tiers.(slot)
      | None -> ());
      t.contents.(slot) <- None;
      let c = slot / cluster_slots in
      t.free_in_cluster.(c) <- t.free_in_cluster.(c) + 1;
      if t.free_in_cluster.(c) = cluster_capacity t c then
        t.free_clusters <- t.free_clusters + 1;
      t.in_use <- t.in_use - 1

let set_tier t slot tier =
  check t slot;
  t.tiers.(slot) <- tier

let tier t slot =
  check t slot;
  t.tiers.(slot)

let set_on_free t f = t.on_free <- f

let content t slot =
  check t slot;
  match t.contents.(slot) with
  | Some c -> c
  | None ->
      invalid_arg (Printf.sprintf "Swap_area.content: slot %d is free" slot)

let is_allocated t slot =
  check t slot;
  t.contents.(slot) <> None

let sector_of_slot t slot =
  check t slot;
  t.base_sector + (slot * Geom.sectors_per_page)

let nslots t = t.nslots
let in_use t = t.in_use

let free_clusters t = t.free_clusters

let fragmented_allocs t = t.fragmented_allocs
