(* Runs [starts.(i), ends.(i)) for i < n: sorted, disjoint and
   non-adjacent, in two growable parallel arrays. *)
type t = {
  mutable starts : int array;
  mutable ends : int array;
  mutable n : int;
  mutable sectors : int;
}

let create () =
  { starts = Array.make 16 0; ends = Array.make 16 0; n = 0; sectors = 0 }

let count t = t.n
let sectors t = t.sectors

(* First index in [lo, hi) whose run ends at or after [x], else [hi]. *)
let rec first_end_from t x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if t.ends.(mid) < x then first_end_from t x (mid + 1) hi
    else first_end_from t x lo mid

(* First index in [lo, hi) whose run starts after [x], else [hi]. *)
let rec first_start_after t x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if t.starts.(mid) <= x then first_start_after t x (mid + 1) hi
    else first_start_after t x lo mid

(* Make room for [k] runs in place of runs [lo, hi); the caller then
   writes their bounds at [lo, lo + k).  The tail moves only when the
   run count changes and there is a tail to move. *)
let splice t ~lo ~hi k =
  let n' = t.n - (hi - lo) + k in
  if n' > Array.length t.starts then begin
    let cap = Int.max n' (2 * Array.length t.starts) in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.starts <- grow t.starts;
    t.ends <- grow t.ends
  end;
  let tail = t.n - hi in
  if tail > 0 && hi <> lo + k then begin
    Array.blit t.starts hi t.starts (lo + k) tail;
    Array.blit t.ends hi t.ends (lo + k) tail
  end;
  t.n <- n'

(* Runs [lo, hi) are those the new run overlaps or touches: every run
   before [lo] ends before [sector], every run from [hi] on starts past
   the new end.  They merge into one, and the total grows by the merged
   run's length minus what the absorbed runs already held. *)
let add t ~sector ~nsectors =
  let s = sector and e = sector + nsectors in
  let lo = first_end_from t s 0 t.n in
  let hi = first_start_after t e lo t.n in
  let s = if lo < hi then Int.min s t.starts.(lo) else s in
  let e = if lo < hi then Int.max e t.ends.(hi - 1) else e in
  let absorbed = ref 0 in
  for i = lo to hi - 1 do
    absorbed := !absorbed + t.ends.(i) - t.starts.(i)
  done;
  splice t ~lo ~hi 1;
  t.starts.(lo) <- s;
  t.ends.(lo) <- e;
  t.sectors <- t.sectors + (e - s) - !absorbed

(* Only the last run starting at or before [sector] can hold it. *)
let covers t ~sector ~nsectors =
  let i = first_start_after t sector 0 t.n - 1 in
  i >= 0 && sector + nsectors <= t.ends.(i)

(* Distances shrink towards [head] from either side, so the nearest run
   is the last one starting at or before [head] or the one after it. *)
let pop_nearest t ~head ~max =
  if t.n = 0 then None
  else begin
    let p = first_start_after t head 0 t.n - 1 in
    let i =
      if p < 0 then 0
      else if p + 1 = t.n || head <= t.ends.(p) then p
      else if t.starts.(p + 1) - head < head - t.ends.(p) then p + 1
      else p
    in
    let rs = t.starts.(i) and re = t.ends.(i) in
    let start = if head > rs && head < re then head else rs in
    let chunk = Int.min (re - start) max in
    let stop = start + chunk in
    (match (start > rs, stop < re) with
    | true, true ->
        splice t ~lo:i ~hi:(i + 1) 2;
        t.ends.(i) <- start;
        t.starts.(i + 1) <- stop;
        t.ends.(i + 1) <- re
    | true, false -> t.ends.(i) <- start
    | false, true -> t.starts.(i) <- stop
    | false, false -> splice t ~lo:i ~hi:(i + 1) 0);
    t.sectors <- t.sectors - chunk;
    Some (start, chunk)
  end
