(* Flat representation: the per-gpa backing records live in parallel
   int arrays indexed by a dense payload slot ({!Mem.Itbl.Slab}), the
   gpa -> slot and packed (disk, block) -> chain-head indexes are
   open-addressing {!Mem.Itbl}s, and the pages sharing one block form a
   singly-linked chain threaded through [b_next].  Track/untrack/lookup
   on the fault and I/O paths are allocation-free; chains are consed at
   the head so [gpas_of_block] still lists most-recently-tracked
   first, exactly like the old [gpa :: gpas] association lists. *)

type backing = { disk : int; block : int; version : int }

(* Packed (disk, block) key, same idiom as the host's owner_key. *)
let block_bits = 40
let block_key ~disk ~block = (disk lsl block_bits) lor block

type t = {
  stats : Metrics.Stats.t;
  by_gpa : Mem.Itbl.t; (* gpa -> payload slot *)
  by_block : Mem.Itbl.t; (* block_key -> head payload slot *)
  slab : Mem.Itbl.Slab.t;
  mutable b_gpa : int array;
  mutable b_disk : int array;
  mutable b_block : int array;
  mutable b_version : int array;
  mutable b_next : int array; (* chain link; -1 terminates *)
  mutable count : int; (* incrementally-tracked live mappings *)
}

(* Every table starts small and doubles as it fills: a guest whose
   Mapper is off, or that reads little of its image, pays next to
   nothing. *)
let create ~stats () =
  {
    stats;
    by_gpa = Mem.Itbl.create ();
    by_block = Mem.Itbl.create ();
    slab = Mem.Itbl.Slab.create ();
    b_gpa = Array.make 16 0;
    b_disk = Array.make 16 0;
    b_block = Array.make 16 0;
    b_version = Array.make 16 0;
    b_next = Array.make 16 (-1);
    count = 0;
  }

let ensure_capacity t slot =
  if slot >= Array.length t.b_gpa then begin
    let n = 2 * Array.length t.b_gpa in
    let extend a =
      let bigger = Array.make n 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    t.b_gpa <- extend t.b_gpa;
    t.b_disk <- extend t.b_disk;
    t.b_block <- extend t.b_block;
    t.b_version <- extend t.b_version;
    t.b_next <- extend t.b_next
  end

let gauge t =
  (* The incremental count must agree with the index; checked in dev
     builds, compiled out in release. *)
  assert (t.count = Mem.Itbl.length t.by_gpa);
  t.stats.mapper_tracked <- t.count

let untrack t ~gpa =
  let slot = Mem.Itbl.find t.by_gpa gpa ~default:(-1) in
  if slot >= 0 then begin
    Mem.Itbl.remove t.by_gpa gpa;
    let key = block_key ~disk:t.b_disk.(slot) ~block:t.b_block.(slot) in
    (* Unlink [slot] from its block chain, preserving the order of the
       remaining entries (the old code List.filter'ed). *)
    let head = Mem.Itbl.find t.by_block key ~default:(-1) in
    if head = slot then begin
      let next = t.b_next.(slot) in
      if next < 0 then Mem.Itbl.remove t.by_block key
      else Mem.Itbl.set t.by_block key next
    end
    else begin
      let p = ref head in
      while !p >= 0 && t.b_next.(!p) <> slot do
        p := t.b_next.(!p)
      done;
      if !p >= 0 then t.b_next.(!p) <- t.b_next.(slot)
    end;
    Mem.Itbl.Slab.release t.slab slot;
    t.count <- t.count - 1;
    gauge t
  end

let track t ~gpa ~disk ~block ~version =
  untrack t ~gpa;
  let slot = Mem.Itbl.Slab.alloc t.slab in
  ensure_capacity t slot;
  t.b_gpa.(slot) <- gpa;
  t.b_disk.(slot) <- disk;
  t.b_block.(slot) <- block;
  t.b_version.(slot) <- version;
  let key = block_key ~disk ~block in
  t.b_next.(slot) <- Mem.Itbl.find t.by_block key ~default:(-1);
  Mem.Itbl.set t.by_block key slot;
  Mem.Itbl.set t.by_gpa gpa slot;
  t.count <- t.count + 1;
  gauge t

let lookup t ~gpa =
  let slot = Mem.Itbl.find t.by_gpa gpa ~default:(-1) in
  if slot < 0 then None
  else
    Some
      {
        disk = t.b_disk.(slot);
        block = t.b_block.(slot);
        version = t.b_version.(slot);
      }

(* Unboxed lookups for the host's fault/evict paths. *)
let tracked_block t ~gpa =
  let slot = Mem.Itbl.find t.by_gpa gpa ~default:(-1) in
  if slot < 0 then -1 else t.b_block.(slot)

let tracked_version t ~gpa =
  let slot = Mem.Itbl.find t.by_gpa gpa ~default:(-1) in
  if slot < 0 then -1 else t.b_version.(slot)

let gpas_of_block t ~disk ~block =
  let rec go slot acc =
    if slot < 0 then List.rev acc else go t.b_next.(slot) (t.b_gpa.(slot) :: acc)
  in
  go (Mem.Itbl.find t.by_block (block_key ~disk ~block) ~default:(-1)) []

let invalidate_block t ~disk ~block =
  match gpas_of_block t ~disk ~block with
  | [] -> []
  | gpas ->
      List.iter (fun gpa -> untrack t ~gpa) gpas;
      t.stats.mapper_invalidations <- t.stats.mapper_invalidations + 1;
      gpas

let tracked t = t.count

let readahead_window t ~disk ~block ~max =
  let rec go b acc =
    if b - block >= max then List.rev acc
    else
      match gpas_of_block t ~disk ~block:b with
      | [] -> List.rev acc
      | gpas -> go (b + 1) ((b, gpas) :: acc)
  in
  go block []

let iter t f =
  Mem.Itbl.iter
    (fun gpa slot ->
      f gpa
        {
          disk = t.b_disk.(slot);
          block = t.b_block.(slot);
          version = t.b_version.(slot);
        })
    t.by_gpa
