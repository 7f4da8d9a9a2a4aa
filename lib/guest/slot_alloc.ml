type t = {
  nslots : int;
  used : Bytes.t;
  mutable cursor : int;
  mutable in_use : int;
}

let create ~nslots =
  if nslots <= 0 then invalid_arg "Slot_alloc.create: nslots must be positive";
  { nslots; used = Bytes.make nslots '\000'; cursor = 0; in_use = 0 }

let check t s =
  if s < 0 || s >= t.nslots then
    invalid_arg (Printf.sprintf "Slot_alloc: slot %d out of range" s)

let alloc t =
  if t.in_use = t.nslots then None
  else begin
    let rec find i remaining =
      if remaining = 0 then None
      else if Bytes.get t.used i = '\000' then Some i
      else find ((i + 1) mod t.nslots) (remaining - 1)
    in
    match find t.cursor t.nslots with
    | None -> None
    | Some s ->
        Bytes.set t.used s '\001';
        t.cursor <- (s + 1) mod t.nslots;
        t.in_use <- t.in_use + 1;
        Some s
  end

let free t s =
  check t s;
  if Bytes.get t.used s = '\000' then
    invalid_arg (Printf.sprintf "Slot_alloc.free: slot %d already free" s);
  Bytes.set t.used s '\000';
  t.in_use <- t.in_use - 1

let is_allocated t s =
  check t s;
  Bytes.get t.used s <> '\000'

let nslots t = t.nslots
