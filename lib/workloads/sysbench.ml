module W = Vmm.Workload

(* CPU time spent on each block read, microseconds. *)
let compute_us = 3

let workload ?(iterations = 1) ?(on_iteration = fun _ -> ()) ~file_mb () =
  let blocks = Storage.Geom.pages_of_mb file_mb in
  let setup os _rng =
    let file = Guest.Guestos.create_file os ~blocks in
    let started = ref false in
    let iter = ref 0 and pos = ref 0 and read_phase = ref true in
    let thread () =
      if not !started then begin
        started := true;
        (* Mark -1: workload start, so iteration 0 has a baseline. *)
        Some (W.Mark (fun () -> on_iteration (-1)))
      end
      else if !iter >= iterations then None
      else if !pos < blocks then
        if !read_phase then begin
          read_phase := false;
          Some (W.File_read (file, !pos))
        end
        else begin
          read_phase := true;
          incr pos;
          Some (W.Compute compute_us)
        end
      else begin
        let i = !iter in
        incr iter;
        pos := 0;
        Some (W.Mark (fun () -> on_iteration i))
      end
    in
    { W.threads = [ thread ]; cleanup = (fun () -> ()) }
  in
  { W.name = Printf.sprintf "sysbench-read-%dMB" file_mb; setup }
