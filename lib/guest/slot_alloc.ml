(* Each slot's owner is kept in chunks of [chunk_slots] slots, allocated
   when a slot in the chunk is first taken; an untouched chunk is the
   shared empty array and every slot in it reads free (owner -1), as in
   [Storage.Swap_area]. *)
let chunk_bits = 10
let chunk_slots = 1 lsl chunk_bits

type t = {
  nslots : int;
  owners : int array array;  (* owner of each slot, or -1: free *)
  mutable cursor : int;
  mutable in_use : int;
}

let create ~nslots =
  if nslots <= 0 then invalid_arg "Slot_alloc.create: nslots must be positive";
  {
    nslots;
    owners = Array.make ((nslots + chunk_slots - 1) lsr chunk_bits) [||];
    cursor = 0;
    in_use = 0;
  }

let check t s =
  if s < 0 || s >= t.nslots then
    invalid_arg (Printf.sprintf "Slot_alloc: slot %d out of range" s)

let[@inline] owner_of t s =
  let chunk = t.owners.(s lsr chunk_bits) in
  if Array.length chunk = 0 then -1 else chunk.(s land (chunk_slots - 1))

let alloc t ~owner =
  if owner < 0 then
    invalid_arg (Printf.sprintf "Slot_alloc.alloc: owner %d is negative" owner);
  let rec find i remaining =
    if remaining = 0 then -1
    else if owner_of t i < 0 then i
    else find (if i + 1 = t.nslots then 0 else i + 1) (remaining - 1)
  in
  let s = if t.in_use = t.nslots then -1 else find t.cursor t.nslots in
  if s >= 0 then begin
    let k = s lsr chunk_bits in
    if Array.length t.owners.(k) = 0 then
      (* Only the last chunk can be partial. *)
      t.owners.(k) <-
        Array.make (min chunk_slots (t.nslots - (k lsl chunk_bits))) (-1);
    t.owners.(k).(s land (chunk_slots - 1)) <- owner;
    t.cursor <- (s + 1) mod t.nslots;
    t.in_use <- t.in_use + 1
  end;
  s

let free t s =
  check t s;
  if owner_of t s < 0 then
    invalid_arg (Printf.sprintf "Slot_alloc.free: slot %d already free" s);
  t.owners.(s lsr chunk_bits).(s land (chunk_slots - 1)) <- -1;
  t.in_use <- t.in_use - 1

let owner t s =
  check t s;
  owner_of t s

let iter_owned t f =
  Array.iteri
    (fun k chunk ->
      Array.iteri
        (fun i owner ->
          if owner >= 0 then f ~slot:((k lsl chunk_bits) + i) ~owner)
        chunk)
    t.owners

let nslots t = t.nslots
let in_use t = t.in_use
