(* Flat LRU arena: links live in parallel int arrays indexed by node
   id.  A detached node self-loops (prev = next = self, owner 0); each
   list's sentinel occupies a slot above the node region, so
   insert/remove/move never branch on emptiness. *)

type arena = {
  mutable prev : int array;
  mutable next : int array;
  mutable owner : int array; (* 0 = detached, else owning list id *)
  mutable nslots : int;
  mutable next_sentinel : int; (* first free sentinel slot *)
  mutable next_list_id : int;
}

type t = { a : arena; s : int; (* sentinel slot *) id : int; mutable length : int }

let init_detached a lo hi =
  for i = lo to hi - 1 do
    a.prev.(i) <- i;
    a.next.(i) <- i;
    a.owner.(i) <- 0
  done

(* Sentinel headroom reserved up front; the region grows on demand. *)
let extra_lists = 8

let arena ~nodes () =
  let nslots = nodes + extra_lists in
  let a =
    {
      prev = Array.make nslots 0;
      next = Array.make nslots 0;
      owner = Array.make nslots 0;
      nslots;
      next_sentinel = nodes;
      next_list_id = 1;
    }
  in
  init_detached a 0 nslots;
  a

let grow a =
  let nslots = 2 * a.nslots in
  let extend arr =
    let bigger = Array.make nslots 0 in
    Array.blit arr 0 bigger 0 a.nslots;
    bigger
  in
  a.prev <- extend a.prev;
  a.next <- extend a.next;
  a.owner <- extend a.owner;
  let old = a.nslots in
  a.nslots <- nslots;
  init_detached a old nslots

let list a =
  if a.next_sentinel >= a.nslots then grow a;
  let s = a.next_sentinel in
  a.next_sentinel <- s + 1;
  let id = a.next_list_id in
  a.next_list_id <- id + 1;
  (* The sentinel carries the list id so [in_some_list] stays a plain
     owner check for node slots. *)
  a.owner.(s) <- id;
  { a; s; id; length = 0 }

let length t = t.length
let is_empty t = t.length = 0
let mem t n = t.a.owner.(n) = t.id
let in_some_list a n = a.owner.(n) <> 0

let check_detached t n =
  if t.a.owner.(n) <> 0 then invalid_arg "Flru: node already in a list"

let check_member t n =
  if t.a.owner.(n) <> t.id then
    if t.a.owner.(n) = 0 then invalid_arg "Flru: node not in any list"
    else invalid_arg "Flru: node belongs to another list"

let push_front t n =
  check_detached t n;
  let a = t.a and s = t.s in
  a.owner.(n) <- t.id;
  let first = a.next.(s) in
  a.prev.(n) <- s;
  a.next.(n) <- first;
  a.prev.(first) <- n;
  a.next.(s) <- n;
  t.length <- t.length + 1

let push_back t n =
  check_detached t n;
  let a = t.a and s = t.s in
  a.owner.(n) <- t.id;
  let last = a.prev.(s) in
  a.next.(n) <- s;
  a.prev.(n) <- last;
  a.next.(last) <- n;
  a.prev.(s) <- n;
  t.length <- t.length + 1

let unlink a n =
  let p = a.prev.(n) and nx = a.next.(n) in
  a.next.(p) <- nx;
  a.prev.(nx) <- p;
  a.prev.(n) <- n;
  a.next.(n) <- n

let remove t n =
  check_member t n;
  unlink t.a n;
  t.a.owner.(n) <- 0;
  t.length <- t.length - 1

let pop_back t =
  if t.length = 0 then None
  else begin
    let n = t.a.prev.(t.s) in
    unlink t.a n;
    t.a.owner.(n) <- 0;
    t.length <- t.length - 1;
    Some n
  end

let peek_back t = if t.length = 0 then None else Some t.a.prev.(t.s)

let iter f t =
  let a = t.a and s = t.s in
  let n = ref a.next.(s) in
  while !n <> s do
    let next = a.next.(!n) in
    f !n;
    n := next
  done

let to_list t =
  let acc = ref [] in
  iter (fun n -> acc := n :: !acc) t;
  List.rev !acc
