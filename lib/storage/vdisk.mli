(** Guest virtual-disk image.

    A raw image laid out contiguously on the physical disk, addressed in
    4 KiB blocks (the Mapper requires page-aligned disk requests, paper
    Section 4.1 "Page Alignment").  Every block stores a {!Content.t} tag
    and a version counter bumped on writes, so (a) staleness of tracked
    pages is detectable and (b) data written by the guest — including to
    its own swap partition, which is just a block range the guest
    reserves — reads back as exactly what was written, letting tests
    chain correctness through arbitrary I/O.

    Only written blocks need state, and an image keeps it in chunks of
    1,024 blocks, allocated on a chunk's first {!write}: a large image
    whose guest touches little of it (a swap partition it never swaps
    to) costs a few hundred words. *)

type t

(** [create ~id ~base_sector ~nblocks] makes an image whose blocks
    initially hold their pristine image data ([Content.Block] at version
    0), with no per-block state allocated yet. *)
val create : id:int -> base_sector:int -> nblocks:int -> t

val id : t -> int
val nblocks : t -> int

(** [sector_of_block t b] is the physical sector where block [b] starts. *)
val sector_of_block : t -> int -> int

(** [content t b] is the data currently stored in block [b]. *)
val content : t -> int -> Content.t

(** [version t b] is the number of writes block [b] has received. *)
val version : t -> int -> int

(** [write t b c] overwrites block [b] with [c]; returns the new version. *)
val write : t -> int -> Content.t -> int

(** [end_sector t] is the first physical sector past the image. *)
val end_sector : t -> int
