(* Per-block state is kept in chunks of [chunk_blocks] blocks, allocated
   on the chunk's first write; an unwritten chunk is the shared empty
   array, and every block in it still holds its pristine image data. *)

let chunk_bits = 10
let chunk_blocks = 1 lsl chunk_bits

type t = {
  id : int;
  base_sector : int;
  nblocks : int;
  versions : int array array;
  (* [None] means the block still holds its pristine image data, which we
     represent as [Block {disk; block; version = 0}] without storing it. *)
  overwritten : Content.t option array array;
}

let create ~id ~base_sector ~nblocks =
  if nblocks <= 0 then invalid_arg "Vdisk.create: nblocks must be positive";
  let nchunks = (nblocks + chunk_blocks - 1) lsr chunk_bits in
  {
    id;
    base_sector;
    nblocks;
    versions = Array.make nchunks [||];
    overwritten = Array.make nchunks [||];
  }

let id t = t.id
let nblocks t = t.nblocks

let check t b =
  if b < 0 || b >= t.nblocks then
    invalid_arg (Printf.sprintf "Vdisk %d: block %d out of range" t.id b)

let sector_of_block t b =
  check t b;
  t.base_sector + (b * Geom.sectors_per_page)

let content t b =
  check t b;
  let chunk = t.overwritten.(b lsr chunk_bits) in
  match
    if Array.length chunk = 0 then None
    else chunk.(b land (chunk_blocks - 1))
  with
  | Some c -> c
  | None -> Content.Block { disk = t.id; block = b; version = 0 }

let version t b =
  check t b;
  let chunk = t.versions.(b lsr chunk_bits) in
  if Array.length chunk = 0 then 0 else chunk.(b land (chunk_blocks - 1))

let write t b c =
  check t b;
  let k = b lsr chunk_bits and i = b land (chunk_blocks - 1) in
  if Array.length t.versions.(k) = 0 then begin
    t.versions.(k) <- Array.make chunk_blocks 0;
    t.overwritten.(k) <- Array.make chunk_blocks None
  end;
  t.overwritten.(k).(i) <- Some c;
  let v = t.versions.(k).(i) + 1 in
  t.versions.(k).(i) <- v;
  v

let end_sector t = t.base_sector + (t.nblocks * Geom.sectors_per_page)
