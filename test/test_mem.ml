(* Tests for the per-page metadata structures: the open-addressing int
   table and the flat LRU arena, each with a model-based property test
   against a reference implementation. *)

let check = Alcotest.check
let qcheck = Test_util.qcheck

(* ------------------------------------------------------------------ *)
(* Itbl: open-addressing int table                                      *)
(* ------------------------------------------------------------------ *)

let itbl_basic () =
  let t = Mem.Itbl.create () in
  check Alcotest.int "empty length" 0 (Mem.Itbl.length t);
  Mem.Itbl.set t 5 50;
  Mem.Itbl.set t 7 70;
  Mem.Itbl.set t 5 55;
  check Alcotest.int "replace keeps length" 2 (Mem.Itbl.length t);
  check Alcotest.int "find" 55 (Mem.Itbl.find t 5 ~default:(-1));
  check Alcotest.int "find absent" (-1) (Mem.Itbl.find t 99 ~default:(-1));
  check Alcotest.(option int) "find_opt" (Some 70) (Mem.Itbl.find_opt t 7);
  Alcotest.(check bool) "mem" true (Mem.Itbl.mem t 7);
  Mem.Itbl.remove t 7;
  Alcotest.(check bool) "removed" false (Mem.Itbl.mem t 7);
  Mem.Itbl.remove t 7;
  check Alcotest.int "idempotent remove" 1 (Mem.Itbl.length t);
  (* Negative keys are legal; only min_int is reserved. *)
  Mem.Itbl.set t (-3) 33;
  check Alcotest.int "negative key" 33 (Mem.Itbl.find t (-3) ~default:0);
  Alcotest.check_raises "reserved key"
    (Invalid_argument "Itbl.set: reserved key") (fun () ->
      Mem.Itbl.set t min_int 0);
  Mem.Itbl.clear t;
  check Alcotest.int "cleared" 0 (Mem.Itbl.length t);
  Alcotest.(check bool) "cleared mem" false (Mem.Itbl.mem t 5)

(* Differential test against the stdlib Hashtbl: random op streams with
   a small key range, starting from a deliberately tiny capacity so the
   stream grows the table several times past its initial size.  The op
   mix is delete-heavy (remove twice as likely as insert in half the
   streams via the op range), churning probe clusters enough that a
   backward-shift bug would leave an unreachable or duplicated key. *)
let itbl_model =
  QCheck.Test.make ~name:"itbl: agrees with Hashtbl under growth and churn"
    ~count:400
    QCheck.(list (pair (int_range 0 3) (int_range 0 199)))
    (fun ops ->
      let t = Mem.Itbl.create ~capacity:2 () in
      let h : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      List.iteri
        (fun step (op, k) ->
          (match op with
          | 0 | 1 ->
              Mem.Itbl.set t k step;
              Hashtbl.replace h k step
          | 2 ->
              Mem.Itbl.remove t k;
              Hashtbl.remove h k
          | _ ->
              if Mem.Itbl.mem t k <> Hashtbl.mem h k then ok := false);
          if Mem.Itbl.length t <> Hashtbl.length h then ok := false;
          (* Spot-check a fixed probe of keys every step, so a key lost
             by a bad shift is caught near the op that lost it. *)
          for probe = 0 to 9 do
            let k = probe * 20 in
            let expect =
              match Hashtbl.find_opt h k with Some v -> v | None -> -1
            in
            if Mem.Itbl.find t k ~default:(-1) <> expect then ok := false
          done)
        ops;
      (* Full sweep at the end: every binding agrees in both directions. *)
      Hashtbl.iter
        (fun k v -> if Mem.Itbl.find t k ~default:(-1) <> v then ok := false)
        h;
      Mem.Itbl.iter
        (fun k v ->
          if Hashtbl.find_opt h k <> Some v then ok := false)
        t;
      !ok)

(* [keys_with_home t slot n] finds [n] distinct non-negative keys whose
   probe sequence starts at [slot] under [t]'s current capacity. *)
let keys_with_home t slot n =
  let rec go k acc found =
    if found = n then List.rev acc
    else if Mem.Itbl.home_slot t k = slot then go (k + 1) (k :: acc) (found + 1)
    else go (k + 1) acc found
  in
  go 0 [] 0

(* Backward-shift deletion across the wraparound boundary: keys homed at
   the last slot spill over index 0; removing the entry at the physical
   end of the array must shift the wrapped tail back correctly (the
   cyclic distance test `(j - h) land mask >= (j - hole) land mask`, not
   a plain comparison). *)
let itbl_wraparound_shift () =
  let t = Mem.Itbl.create ~capacity:8 () in
  let cap = Mem.Itbl.capacity t in
  let last = cap - 1 in
  (* Three keys homed at the last slot: they occupy last, 0, 1. *)
  let ks = keys_with_home t last 3 in
  List.iteri (fun i k -> Mem.Itbl.set t k (100 + i)) ks;
  (match ks with
  | [ k0; k1; k2 ] ->
      (* Remove the head of the cluster (physically at [last]): both
         wrapped entries must shift back across the boundary. *)
      Mem.Itbl.remove t k0;
      check Alcotest.int "wrapped k1 survives" 101
        (Mem.Itbl.find t k1 ~default:(-1));
      check Alcotest.int "wrapped k2 survives" 102
        (Mem.Itbl.find t k2 ~default:(-1));
      check Alcotest.int "length after wrap shift" 2 (Mem.Itbl.length t);
      (* Remove a middle element of the remaining wrapped cluster. *)
      Mem.Itbl.remove t k1;
      check Alcotest.int "k2 survives second shift" 102
        (Mem.Itbl.find t k2 ~default:(-1));
      Mem.Itbl.remove t k2;
      check Alcotest.int "empty again" 0 (Mem.Itbl.length t)
  | _ -> Alcotest.fail "expected 3 keys");
  (* Mixed homes around the boundary: one key homed at [last], one at 0.
     Removing the [last]-homed key must NOT pull the 0-homed key (which
     is already at its home slot) across the boundary. *)
  let t = Mem.Itbl.create ~capacity:8 () in
  let klast = List.hd (keys_with_home t last 1) in
  let kzero = List.hd (keys_with_home t 0 1) in
  Mem.Itbl.set t klast 1;
  Mem.Itbl.set t kzero 2;
  Mem.Itbl.remove t klast;
  check Alcotest.int "home-0 key not dragged" 2
    (Mem.Itbl.find t kzero ~default:(-1));
  check Alcotest.int "home slot preserved" 0 (Mem.Itbl.home_slot t kzero)

let itbl_growth () =
  let t = Mem.Itbl.create ~capacity:2 () in
  let cap0 = Mem.Itbl.capacity t in
  for k = 0 to 999 do
    Mem.Itbl.set t (k * 3) k
  done;
  Alcotest.(check bool) "grew" true (Mem.Itbl.capacity t > cap0);
  check Alcotest.int "length after growth" 1000 (Mem.Itbl.length t);
  let missing = ref 0 in
  for k = 0 to 999 do
    if Mem.Itbl.find t (k * 3) ~default:(-1) <> k then incr missing
  done;
  check Alcotest.int "no binding lost in rehash" 0 !missing

let slab_recycling () =
  let s = Mem.Itbl.Slab.create () in
  let a = Mem.Itbl.Slab.alloc s in
  let b = Mem.Itbl.Slab.alloc s in
  let c = Mem.Itbl.Slab.alloc s in
  check Alcotest.int "dense from zero" 0 a;
  check Alcotest.int "dense b" 1 b;
  check Alcotest.int "dense c" 2 c;
  check Alcotest.int "high" 3 (Mem.Itbl.Slab.high s);
  Mem.Itbl.Slab.release s b;
  check Alcotest.int "live after release" 2 (Mem.Itbl.Slab.live s);
  check Alcotest.int "LIFO recycle" b (Mem.Itbl.Slab.alloc s);
  check Alcotest.int "high unchanged by recycle" 3 (Mem.Itbl.Slab.high s)

(* ------------------------------------------------------------------ *)
(* Flru: flat arena-backed LRU lists                                    *)
(* ------------------------------------------------------------------ *)

let flru_basic () =
  let a = Mem.Flru.arena ~nodes:8 () in
  let l = Mem.Flru.list a in
  Alcotest.(check bool) "empty" true (Mem.Flru.is_empty l);
  Mem.Flru.push_front l 3;
  Mem.Flru.push_front l 1;
  Mem.Flru.push_back l 5;
  Alcotest.(check (list int)) "order" [ 1; 3; 5 ] (Mem.Flru.to_list l);
  check Alcotest.int "length" 3 (Mem.Flru.length l);
  Alcotest.(check bool) "mem" true (Mem.Flru.mem l 3);
  Alcotest.(check bool) "in_some_list" true (Mem.Flru.in_some_list a 3);
  Alcotest.(check bool) "detached node" false (Mem.Flru.in_some_list a 0);
  check Alcotest.(option int) "peek_back" (Some 5) (Mem.Flru.peek_back l);
  check Alcotest.(option int) "pop_back" (Some 5) (Mem.Flru.pop_back l);
  Mem.Flru.remove l 1;
  Alcotest.(check (list int)) "after removals" [ 3 ] (Mem.Flru.to_list l);
  Alcotest.(check bool) "1 detached" false (Mem.Flru.in_some_list a 1);
  let l2 = Mem.Flru.list a in
  Alcotest.check_raises "double insert"
    (Invalid_argument "Flru: node already in a list") (fun () ->
      Mem.Flru.push_front l2 3);
  Alcotest.check_raises "wrong list"
    (Invalid_argument "Flru: node belongs to another list") (fun () ->
      Mem.Flru.remove l2 3);
  Alcotest.check_raises "not in any list"
    (Invalid_argument "Flru: node not in any list") (fun () ->
      Mem.Flru.remove l2 1)

(* Model test over two lists sharing one arena: moving nodes between
   lists is the cgroup promotion pattern, and a link bug in one list
   must not corrupt the other. *)
let flru_two_list_model =
  QCheck.Test.make ~name:"flru: two lists on one arena agree with models"
    ~count:300
    QCheck.(list (triple (int_range 0 3) (int_range 0 1) (int_range 0 7)))
    (fun ops ->
      let a = Mem.Flru.arena ~nodes:8 () in
      let lists = [| Mem.Flru.list a; Mem.Flru.list a |] in
      let models = [| ref []; ref [] |] in
      let ok = ref true in
      let where i =
        if List.mem i !(models.(0)) then Some 0
        else if List.mem i !(models.(1)) then Some 1
        else None
      in
      List.iter
        (fun (op, li, i) ->
          (match (op, where i) with
          | 0, None ->
              Mem.Flru.push_front lists.(li) i;
              models.(li) := i :: !(models.(li))
          | 1, None ->
              Mem.Flru.push_back lists.(li) i;
              models.(li) := !(models.(li)) @ [ i ]
          | 2, Some owner ->
              Mem.Flru.remove lists.(owner) i;
              models.(owner) := List.filter (fun x -> x <> i) !(models.(owner))
          | 3, _ -> (
              match (Mem.Flru.pop_back lists.(li), List.rev !(models.(li))) with
              | None, [] -> ()
              | Some n, last :: _ when n = last ->
                  models.(li) :=
                    List.filter (fun x -> x <> last) !(models.(li))
              | _ -> ok := false)
          | _ -> ());
          if Mem.Flru.to_list lists.(0) <> !(models.(0)) then ok := false;
          if Mem.Flru.to_list lists.(1) <> !(models.(1)) then ok := false;
          for n = 0 to 7 do
            if Mem.Flru.in_some_list a n <> (where n <> None) then ok := false
          done)
        ops;
      !ok)

(* Lists keep their nodes, in order, while the arena grows under them:
   the sentinel region doubling as lists arrive, then the node region
   growing past it (which moves every sentinel).  Sentinel growth alone
   must not double the node region: 100 lists over 4,096 nodes take
   fewer words than the link arrays of 8,192 nodes. *)
let flru_many_lists () =
  let a = Mem.Flru.arena ~nodes:8 () in
  let first = Mem.Flru.list a in
  List.iter (Mem.Flru.push_front first) [ 0; 1; 2 ];
  let lists = Array.init 99 (fun _ -> Mem.Flru.list a) in
  let last = lists.(98) in
  List.iter (Mem.Flru.push_back last) [ 3; 4; 5 ];
  let expect what =
    Alcotest.(check (list int)) (what ^ ": first") [ 2; 1; 0 ]
      (Mem.Flru.to_list first);
    Alcotest.(check (list int)) (what ^ ": last") [ 3; 4; 5 ]
      (Mem.Flru.to_list last);
    Array.iteri
      (fun i l ->
        if i < 98 && not (Mem.Flru.is_empty l) then
          Alcotest.failf "%s: list %d not empty" what i)
      lists
  in
  expect "after 100 lists";
  Mem.Flru.grow_nodes a ~nodes:64;
  expect "after node growth";
  Alcotest.(check bool) "new node detached" false (Mem.Flru.in_some_list a 63);
  Mem.Flru.push_back first 63;
  Mem.Flru.push_front lists.(50) 40;
  check Alcotest.(option int) "pop_back" (Some 5) (Mem.Flru.pop_back last);
  Alcotest.(check (list int)) "first takes a new node" [ 2; 1; 0; 63 ]
    (Mem.Flru.to_list first);
  Alcotest.(check (list int)) "a middle list" [ 40 ]
    (Mem.Flru.to_list lists.(50));
  Alcotest.(check (list int)) "last" [ 3; 4 ] (Mem.Flru.to_list last);
  let b = Mem.Flru.arena ~nodes:4096 () in
  for _ = 1 to 100 do
    ignore (Mem.Flru.list b)
  done;
  let words = Obj.reachable_words (Obj.repr b) in
  if words >= 3 * 2 * 4096 then
    Alcotest.failf "100 lists over 4,096 nodes take %d words" words

let tests =
  [
    ( "mem:itbl",
      [
        Alcotest.test_case "basic ops" `Quick itbl_basic;
        Alcotest.test_case "wraparound backward shift" `Quick
          itbl_wraparound_shift;
        Alcotest.test_case "growth keeps bindings" `Quick itbl_growth;
        Alcotest.test_case "slab recycling" `Quick slab_recycling;
        qcheck itbl_model;
      ] );
    ( "mem:flru",
      [
        Alcotest.test_case "basic ops and errors" `Quick flru_basic;
        Alcotest.test_case "many lists and growth keep order" `Quick
          flru_many_lists;
        qcheck flru_two_list_model;
      ] );
  ]
