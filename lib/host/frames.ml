(* Flat struct-of-arrays frame table.  All per-frame state lives in
   packed int arrays / flag bytes indexed by the frame number, and the
   LRU links are slots of a shared {!Mem.Flru} arena keyed by the same
   frame number — so the whole metadata plane for a frame is a handful
   of unboxed loads, and churning a frame through fault-in/evict cycles
   allocates nothing.

   Packing:
   - [flags] byte: bit0 named, bit1 referenced, bits2-3 owner tag
     (0 free / 1 guest page / 2 hv page), bits4-5 content tag
     (0 zero / 1 anon / 2 block).
   - [owner_data]: [guest lsl owner_bits lor payload] where payload is
     the gpa (guest page) or the hv-page index.
   - [c_main]: anon generation, or the block number of block content.
   - [c_disk] / [c_version]: the remaining block-content fields.
   - [backing]: swap-cache slot, or -1 for none.

   The arrays cover frames [0, capacity) and grow by [reserve]; free
   frames are the [released] stack plus the never-used [fresh, nframes)
   range, so no array need be longer than what the guests can hold. *)

type owner_kind = Free | Guest_page | Hv_page

let owner_bits = 40
let owner_mask = (1 lsl owner_bits) - 1

(* flag-byte layout *)
let f_named = 0x01
let f_referenced = 0x02
let tag_free = 0x00
let tag_guest = 0x04
let tag_hv = 0x08
let otag_mask = 0x0c
let ctag_zero = 0x00
let ctag_anon = 0x10
let ctag_block = 0x20
let ctag_mask = 0x30

type t = {
  nframes : int;
  (* Per-frame state covers frames [0, capacity); every frame above is
     free and was never handed out, so it needs none. *)
  mutable flags : Bytes.t;
  mutable owner_data : int array;
  mutable c_main : int array;
  mutable c_disk : int array;
  mutable c_version : int array;
  mutable backing : int array;
  arena : Mem.Flru.arena;
  mutable released : int array;  (* LIFO stack of released frames *)
  mutable nreleased : int;
  mutable fresh : int;  (* frames [fresh, nframes) were never handed out *)
}

let create ~nframes =
  if nframes <= 0 then invalid_arg "Frames.create: nframes must be positive";
  {
    nframes;
    flags = Bytes.empty;
    owner_data = [||];
    c_main = [||];
    c_disk = [||];
    c_version = [||];
    backing = [||];
    arena = Mem.Flru.arena ~nodes:0 ();
    released = [||];
    nreleased = 0;
    fresh = 0;
  }

let nframes t = t.nframes
let nfree t = t.nreleased + (t.nframes - t.fresh)
let high_water t = t.fresh
let arena t = t.arena
let capacity t = Bytes.length t.flags

let grow t cap =
  let old = capacity t in
  let extend a fill =
    let bigger = Array.make cap fill in
    Array.blit a 0 bigger 0 old;
    bigger
  in
  let flags = Bytes.make cap '\000' in
  Bytes.blit t.flags 0 flags 0 old;
  t.flags <- flags;
  t.owner_data <- extend t.owner_data 0;
  t.c_main <- extend t.c_main 0;
  t.c_disk <- extend t.c_disk 0;
  t.c_version <- extend t.c_version 0;
  t.backing <- extend t.backing (-1);
  t.released <- extend t.released 0;
  Mem.Flru.grow_nodes t.arena ~nodes:cap

(* Geometric, so registering guests one by one copies the table a
   logarithmic number of times; never past [nframes], so a table that
   covers the host is never copied again. *)
let reserve t n =
  let cap = capacity t in
  if min n t.nframes > cap then grow t (min t.nframes (max n (2 * cap)))

let flag_byte t f = Char.code (Bytes.unsafe_get t.flags f)

let set_flag_bits t f ~mask bits =
  Bytes.unsafe_set t.flags f
    (Char.unsafe_chr (flag_byte t f land lnot mask lor bits))

(* Released frames first, most recent on top, then the never-used ones
   in ascending order: the order a stack pre-filled with every frame,
   0 on top, would yield. *)
let alloc t =
  if t.nreleased > 0 then begin
    t.nreleased <- t.nreleased - 1;
    Some t.released.(t.nreleased)
  end
  else if t.fresh < t.nframes then begin
    let f = t.fresh in
    if f = capacity t then reserve t (f + 1);
    t.fresh <- f + 1;
    Some f
  end
  else None

let is_free t f = flag_byte t f land otag_mask = tag_free

let push_released t f =
  t.released.(t.nreleased) <- f;
  t.nreleased <- t.nreleased + 1

let release t f =
  if is_free t f then
    invalid_arg (Printf.sprintf "Frames.release: frame %d is free" f);
  Bytes.unsafe_set t.flags f '\000';
  t.backing.(f) <- -1;
  push_released t f

let put_back t f =
  if not (is_free t f) then
    invalid_arg (Printf.sprintf "Frames.put_back: frame %d is installed" f);
  push_released t f

let owner_kind t f =
  match flag_byte t f land otag_mask with
  | 0x04 -> Guest_page
  | 0x08 -> Hv_page
  | _ -> Free

let owner_guest t f = t.owner_data.(f) lsr owner_bits
let owner_payload t f = t.owner_data.(f) land owner_mask

let set_guest_owner t f ~guest ~gpa =
  set_flag_bits t f ~mask:otag_mask tag_guest;
  t.owner_data.(f) <- (guest lsl owner_bits) lor gpa

let set_hv_owner t f ~guest ~idx =
  set_flag_bits t f ~mask:otag_mask tag_hv;
  t.owner_data.(f) <- (guest lsl owner_bits) lor idx

let content t f =
  match flag_byte t f land ctag_mask with
  | 0x10 -> Storage.Content.Anon t.c_main.(f)
  | 0x20 ->
      Storage.Content.Block
        { disk = t.c_disk.(f); block = t.c_main.(f); version = t.c_version.(f) }
  | _ -> Storage.Content.Zero

let set_content t f c =
  match c with
  | Storage.Content.Zero -> set_flag_bits t f ~mask:ctag_mask ctag_zero
  | Storage.Content.Anon g ->
      set_flag_bits t f ~mask:ctag_mask ctag_anon;
      t.c_main.(f) <- g
  | Storage.Content.Block { disk; block; version } ->
      set_flag_bits t f ~mask:ctag_mask ctag_block;
      t.c_main.(f) <- block;
      t.c_disk.(f) <- disk;
      t.c_version.(f) <- version

let named t f = flag_byte t f land f_named <> 0

let set_named t f b =
  set_flag_bits t f ~mask:f_named (if b then f_named else 0)

let referenced t f = flag_byte t f land f_referenced <> 0

let set_referenced t f b =
  set_flag_bits t f ~mask:f_referenced (if b then f_referenced else 0)

let backing_slot t f = t.backing.(f)
let set_backing_slot t f s = t.backing.(f) <- s
