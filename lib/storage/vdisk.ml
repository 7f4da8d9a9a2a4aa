(* Per-block state is kept in chunks of [chunk_blocks] blocks, allocated
   on the chunk's first write; an unwritten chunk is the shared empty
   array, and every block in it still holds its pristine image data.
   Version 0 means pristine, and every write bumps the version, so a
   block's [overwritten] entry is read only once it has been written. *)

let chunk_bits = 10
let chunk_blocks = 1 lsl chunk_bits

type t = {
  id : int;
  base_sector : int;
  nblocks : int;
  versions : int array array;
  (* The last content written to each block; [Content.Zero] in a
     pristine one, whose content is [Block {disk; block; version = 0}]. *)
  overwritten : Content.t array array;
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
  let k = b lsr chunk_bits and i = b land (chunk_blocks - 1) in
  let versions = t.versions.(k) in
  if Array.length versions = 0 || versions.(i) = 0 then
    Content.Block { disk = t.id; block = b; version = 0 }
  else t.overwritten.(k).(i)

let version t b =
  check t b;
  let chunk = t.versions.(b lsr chunk_bits) in
  if Array.length chunk = 0 then 0 else chunk.(b land (chunk_blocks - 1))

let write t b c =
  check t b;
  let k = b lsr chunk_bits and i = b land (chunk_blocks - 1) in
  if Array.length t.versions.(k) = 0 then begin
    t.versions.(k) <- Array.make chunk_blocks 0;
    t.overwritten.(k) <- Array.make chunk_blocks Content.Zero
  end;
  t.overwritten.(k).(i) <- c;
  let v = t.versions.(k).(i) + 1 in
  t.versions.(k).(i) <- v;
  v

let end_sector t = t.base_sector + (t.nblocks * Geom.sectors_per_page)
