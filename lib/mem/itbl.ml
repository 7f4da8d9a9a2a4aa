(* Open-addressing int->int table: linear probing over two parallel
   [int array]s, power-of-two capacity, backward-shift deletion.  See
   the .mli for the design rationale. *)

type t = {
  mutable keys : int array; (* [empty] marks a free slot *)
  mutable vals : int array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable size : int;
}

let empty = min_int

(* SplitMix-style finalizer over the native int.  The classic 64-bit
   constants do not fit OCaml's 63-bit int, so we use odd multipliers
   that do; overflow wraps, which is exactly what the mix wants.  The
   final [lsr] folds high entropy down into the bits the mask keeps. *)
let hash k =
  let h = k lxor (k lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1B03738712FAD5C9 in
  h lxor (h lsr 32)

let rec ceil_pow2 c n = if c >= n then c else ceil_pow2 (c * 2) n

let create ?(capacity = 16) () =
  (* Size so [capacity] bindings fit under the 3/4 load limit. *)
  let cap = ceil_pow2 8 (max 8 ((capacity * 4 / 3) + 1)) in
  {
    keys = Array.make cap empty;
    vals = Array.make cap 0;
    mask = cap - 1;
    size = 0;
  }

let length t = t.size
let capacity t = Array.length t.keys
let home_slot t k = hash k land t.mask

(* Index of [k]'s slot, or -1.  The probe loop touches only the two
   flat arrays; no allocation, no exceptions. *)
let slot_of t k =
  let keys = t.keys and mask = t.mask in
  let i = ref (hash k land mask) in
  let r = ref (-2) in
  while !r = -2 do
    let kk = Array.unsafe_get keys !i in
    if kk = k then r := !i
    else if kk = empty then r := -1
    else i := (!i + 1) land mask
  done;
  !r

let mem t k = k <> empty && slot_of t k >= 0

let find t k ~default =
  let i = slot_of t k in
  if i < 0 then default else Array.unsafe_get t.vals i

let find_opt t k =
  let i = slot_of t k in
  if i < 0 then None else Some t.vals.(i)

(* Insert assuming the table has room and [k] may or may not be
   present; never grows (callers ensure headroom). *)
let put t k v =
  let keys = t.keys and mask = t.mask in
  let i = ref (hash k land mask) in
  let stop = ref false in
  while not !stop do
    let kk = Array.unsafe_get keys !i in
    if kk = k then begin
      Array.unsafe_set t.vals !i v;
      stop := true
    end
    else if kk = empty then begin
      Array.unsafe_set keys !i k;
      Array.unsafe_set t.vals !i v;
      t.size <- t.size + 1;
      stop := true
    end
    else i := (!i + 1) land mask
  done

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_keys in
  t.keys <- Array.make cap empty;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  t.size <- 0;
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k <> empty then put t k old_vals.(i)
  done

let set t k v =
  if k = empty then invalid_arg "Itbl.set: reserved key";
  (* Keep load <= 3/4 so probe clusters stay short. *)
  if 4 * (t.size + 1) > 3 * (t.mask + 1) then grow t;
  put t k v

(* Backward-shift deletion: after emptying slot [i], walk the cluster
   that follows.  An entry at [j] whose home slot [h] is *not*
   cyclically inside (i, j] was pushed past [i] by collisions, so it
   must move back into the hole (otherwise a later probe for it would
   stop early at the empty slot).  Entries whose home lies strictly
   after the hole stay put.  The walk ends at the first empty slot. *)
let remove t k =
  let i = slot_of t k in
  if i >= 0 then begin
    let keys = t.keys and vals = t.vals and mask = t.mask in
    let hole = ref i in
    let j = ref ((i + 1) land mask) in
    let stop = ref false in
    while not !stop do
      let kj = keys.(!j) in
      if kj = empty then stop := true
      else begin
        let h = hash kj land mask in
        (* cyclic "h in (hole, j]" <=> (j - h) mod cap < (j - hole) mod cap *)
        if (!j - h) land mask >= (!j - !hole) land mask then begin
          keys.(!hole) <- kj;
          vals.(!hole) <- vals.(!j);
          hole := !j
        end;
        j := (!j + 1) land mask
      end
    done;
    keys.(!hole) <- empty;
    t.size <- t.size - 1
  end

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> empty then f k vals.(i)
  done

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  t.size <- 0

module Slab = struct
  type t = {
    mutable free : int array; (* LIFO stack of recycled indices *)
    mutable nfree : int;
    mutable hi : int; (* next never-used index *)
  }

  let create () = { free = Array.make 16 0; nfree = 0; hi = 0 }

  let alloc t =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      let i = t.hi in
      t.hi <- t.hi + 1;
      i
    end

  let release t i =
    if t.nfree = Array.length t.free then begin
      let bigger = Array.make (2 * t.nfree) 0 in
      Array.blit t.free 0 bigger 0 t.nfree;
      t.free <- bigger
    end;
    t.free.(t.nfree) <- i;
    t.nfree <- t.nfree + 1

  let high t = t.hi
  let live t = t.hi - t.nfree
end
