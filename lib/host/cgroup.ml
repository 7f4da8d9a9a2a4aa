type list_id = Anon_active | Anon_inactive | File_active | File_inactive

type t = {
  anon_active : Mem.Flru.t;
  anon_inactive : Mem.Flru.t;
  file_active : Mem.Flru.t;
  file_inactive : Mem.Flru.t;
  limit : int option;
  mutable resident : int;
}

let create ~arena ~limit_frames =
  {
    anon_active = Mem.Flru.list arena;
    anon_inactive = Mem.Flru.list arena;
    file_active = Mem.Flru.list arena;
    file_inactive = Mem.Flru.list arena;
    limit = limit_frames;
    resident = 0;
  }

let list t = function
  | Anon_active -> t.anon_active
  | Anon_inactive -> t.anon_inactive
  | File_active -> t.file_active
  | File_inactive -> t.file_inactive

let limit t = t.limit
let resident t = t.resident

let insert t id node =
  Mem.Flru.push_front (list t id) node;
  t.resident <- t.resident + 1

let remove_from_any t node =
  let try_list l =
    if Mem.Flru.mem l node then begin
      Mem.Flru.remove l node;
      true
    end
    else false
  in
  if
    try_list t.anon_active || try_list t.anon_inactive
    || try_list t.file_active || try_list t.file_inactive
  then ()
  else invalid_arg "Cgroup.remove: node not in this group"

let remove t node =
  remove_from_any t node;
  t.resident <- t.resident - 1

let move t id node =
  remove_from_any t node;
  Mem.Flru.push_front (list t id) node

let tail t id = Mem.Flru.peek_back (list t id)
let length t id = Mem.Flru.length (list t id)

let inactive_low t ~file =
  let active, inactive =
    if file then (t.file_active, t.file_inactive)
    else (t.anon_active, t.anon_inactive)
  in
  (* Keep roughly a 1:1 active:inactive balance, like Linux does for
     small memory sizes. *)
  Mem.Flru.length inactive < Mem.Flru.length active
