(* Flat LRU arena: links live in parallel int arrays indexed by node
   id.  A detached node self-loops (prev = next = self, owner 0); each
   list's sentinel occupies a slot above the node region, so
   insert/remove/move never branch on emptiness. *)

type arena = {
  mutable prev : int array;
  mutable next : int array;
  mutable owner : int array; (* 0 = detached, else owning list id *)
  mutable nodes : int; (* node ids are [0, nodes); sentinels sit above *)
  mutable lists : t list; (* every list, so a move can re-point [s] *)
  mutable nlists : int; (* list [id]'s sentinel is slot [nodes + id - 1] *)
}

and t = {
  a : arena;
  mutable s : int; (* sentinel slot; moves with the sentinel region *)
  id : int;
  mutable length : int;
}

let init_detached a lo hi =
  for i = lo to hi - 1 do
    a.prev.(i) <- i;
    a.next.(i) <- i;
    a.owner.(i) <- 0
  done

(* Sentinel headroom reserved up front; the region doubles on demand. *)
let extra_lists = 8

let arena ~nodes () =
  let nslots = nodes + extra_lists in
  let a =
    {
      prev = Array.make nslots 0;
      next = Array.make nslots 0;
      owner = Array.make nslots 0;
      nodes;
      lists = [];
      nlists = 0;
    }
  in
  init_detached a 0 nslots;
  a

(* Lay the arena out again with [nodes] node slots and room for
   [sentinels] lists.  Node slots keep their index; the sentinel region
   moves up by the node region's growth, so every link naming a
   sentinel, and every list's [s], shifts with it. *)
let relayout a ~nodes ~sentinels =
  let old_nodes = a.nodes and used = a.nodes + a.nlists in
  let shift = nodes - old_nodes in
  let moved i = if i >= old_nodes then i + shift else i in
  let prev = a.prev and next = a.next and owner = a.owner in
  let nslots = nodes + sentinels in
  a.prev <- Array.make nslots 0;
  a.next <- Array.make nslots 0;
  a.owner <- Array.make nslots 0;
  a.nodes <- nodes;
  for i = 0 to used - 1 do
    let j = moved i in
    a.prev.(j) <- moved prev.(i);
    a.next.(j) <- moved next.(i);
    a.owner.(j) <- owner.(i)
  done;
  init_detached a old_nodes nodes;
  init_detached a (nodes + a.nlists) nslots;
  if shift <> 0 then List.iter (fun l -> l.s <- l.s + shift) a.lists

let grow_nodes a ~nodes =
  if nodes > a.nodes then
    relayout a ~nodes ~sentinels:(Array.length a.prev - a.nodes)

let list a =
  let room = Array.length a.prev - a.nodes in
  if a.nlists = room then relayout a ~nodes:a.nodes ~sentinels:(2 * room);
  let s = a.nodes + a.nlists in
  a.nlists <- a.nlists + 1;
  let id = a.nlists in
  (* The sentinel carries the list id so [in_some_list] stays a plain
     owner check for node slots. *)
  a.owner.(s) <- id;
  let l = { a; s; id; length = 0 } in
  a.lists <- l :: a.lists;
  l

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
