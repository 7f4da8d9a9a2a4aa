module W = Vmm.Workload

(* CPU time spent after each page write, microseconds. *)
let compute_us = 2

let workload ?(read_first_mb = 0) ?(pattern = `Mixed)
    ?(on_alloc_phase = fun () -> ()) ?(on_done = fun () -> ()) ~mb () =
  let pages = Storage.Geom.pages_of_mb mb in
  let read_blocks = Storage.Geom.pages_of_mb read_first_mb in
  let setup os _rng =
    let file =
      if read_blocks > 0 then
        Some (Guest.Guestos.create_file os ~blocks:read_blocks)
      else None
    in
    let region = ref None in
    let phase = ref `Read in
    let pos = ref 0 in
    let write_pending = ref true in
    let thread () =
      match !phase with
      | `Read -> (
          match file with
          | Some f when !pos < read_blocks ->
              let op = W.File_read (f, !pos) in
              incr pos;
              Some op
          | Some _ | None ->
              phase := `Alloc;
              pos := 0;
              Some (W.Mark on_alloc_phase))
      | `Alloc ->
          let r =
            match !region with
            | Some r -> r
            | None ->
                let r = Guest.Guestos.alloc_region os ~pages in
                region := Some r;
                r
          in
          if !pos >= pages then begin
            phase := `Done;
            Some (W.Mark on_done)
          end
          else if !write_pending then begin
            write_pending := false;
            let i = !pos in
            match pattern with
            | `Rep -> Some (W.Overwrite (r, i))
            | `Memcpy -> Some (W.Memcpy (r, i))
            | `Mixed ->
                if i land 1 = 0 then Some (W.Overwrite (r, i))
                else Some (W.Memcpy (r, i))
          end
          else begin
            write_pending := true;
            incr pos;
            Some (W.Compute compute_us)
          end
      | `Done -> None
    in
    let cleanup () =
      match !region with
      | Some r -> Guest.Guestos.free_region os r
      | None -> ()
    in
    { W.threads = [ thread ]; cleanup }
  in
  { W.name = Printf.sprintf "memhog-%dMB" mb; setup }
