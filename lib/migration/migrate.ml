module H = Host.Hostmm

type strategy = Full_copy | Mapper_aware

type link = { bandwidth_mb_s : float; rtt : Sim.Time.t }

let gbe = { bandwidth_mb_s = 117.0; rtt = Sim.Time.ms 1 }
let ten_gbe = { bandwidth_mb_s = 1170.0; rtt = Sim.Time.ms 1 }

type report = {
  duration : Sim.Time.t;
  bytes_sent : int;
  pages_copied : int;
  mappings_sent : int;
  pages_skipped : int;
  source_disk_reads : int;
  retries : int;
  throttled_batches : int;
}

type abort = {
  error : Storage.Disk.error;
  failed_sector : int;
  retries_before_abort : int;
}

type outcome = Completed of report | Aborted of abort

let mapping_record_bytes = 32

(* Plan the transfer: classify every guest page, collecting the reads
   the source must perform before it can send them.  Swapped pages
   carry their slot so the read is routed through the tier composite —
   a page resident in the compressed or remote tier must be fetched
   from that tier, not from the disk sector it would have occupied. *)
type plan = {
  mutable copy_pages : int;
  mutable mappings : int;
  mutable skipped : int;
  mutable reads : (int * int * int option) list;
      (* (sector, nsectors, swap slot if any) *)
}

let classify ~host ~gid ~vdisk strategy plan ~gpa =
  match H.page_view host ~guest:gid ~gpa with
  | H.V_unbacked -> plan.skipped <- plan.skipped + 1
  | H.V_present { content; named; backing_block } -> (
      match strategy with
      | Mapper_aware when named && backing_block <> None ->
          (* Send the mapping; the destination refetches from the image. *)
          plan.mappings <- plan.mappings + 1
      | Mapper_aware when Storage.Content.equal content Storage.Content.Zero ->
          (* Wholly-overwritten avoidance: the destination zero-fills. *)
          plan.skipped <- plan.skipped + 1
      | Mapper_aware | Full_copy -> plan.copy_pages <- plan.copy_pages + 1)
  | H.V_in_swap { slot } ->
      (* Swapped anonymous data must be read back and copied either way. *)
      plan.reads <-
        (H.swap_slot_sector host slot, Storage.Geom.sectors_per_page,
         Some slot)
        :: plan.reads;
      plan.copy_pages <- plan.copy_pages + 1
  | H.V_in_image { block } -> (
      match strategy with
      | Mapper_aware -> plan.mappings <- plan.mappings + 1
      | Full_copy ->
          plan.reads <-
            (Storage.Vdisk.sector_of_block vdisk block,
             Storage.Geom.sectors_per_page, None)
            :: plan.reads;
          plan.copy_pages <- plan.copy_pages + 1)

(* Read-back pacing: reads per batch, in-batch retries of a transient
   error, the first retry's backoff (doubling per attempt) and how many
   batches a parked read may stall before the migration gives up. *)
let batch = 64
let retry_limit = 4
let retry_base_us = 500
let max_stalled_batches = 8

let migrate ~host ~guest:gid link strategy k =
  let engine = H.engine host in
  let disk = H.disk host in
  let tiers = H.tiers host in
  let vdisk = H.vdisk host gid in
  let gpa_pages = H.gpa_pages host gid in
  let plan = { copy_pages = 0; mappings = 0; skipped = 0; reads = [] } in
  for gpa = 0 to gpa_pages - 1 do
    classify ~host ~gid ~vdisk strategy plan ~gpa
  done;
  let bytes =
    (plan.copy_pages * Storage.Geom.page_bytes)
    + (plan.mappings * mapping_record_bytes)
  in
  let wire_us =
    Sim.Time.of_float_us (float_of_int bytes /. link.bandwidth_mb_s)
  in
  let started = Sim.Engine.now engine in
  (* Sort reads by sector so the source streams them like a real
     migration daemon would, then issue them in bounded batches through
     the shared disk.  The batch is the throttling unit: a clean batch
     is followed immediately by the next one (a clean source runs at
     full copy rate), while a batch that saw transient errors doubles an
     inter-batch backoff — the dirty-rate adaptation that lets an
     evacuation survive a source tier degrading mid-iteration instead
     of slamming a struggling device with the full read stream.

     Typed-error discipline for the source's read-back traffic: a
     transient error is resubmitted with exponential backoff (the
     attempt number keys the fault hash, so a retry can succeed — for
     the disk and for a flapping remote tier alike); a read whose
     in-batch retry budget runs dry is *parked* and reissued with the
     next, slower batch rather than aborting — only a page parked
     [max_stalled_batches] times gives up.  A media error is permanent
     for its sector no matter the pacing, so it still abandons the
     migration at once.  Swapped pages read through the tier composite
     (the page lives wherever its slot's tier keeps it, possibly
     degraded mid-migration); image blocks read straight off the disk.
     The first fatal failure wins; reads already in flight are drained
     before the abort is reported, so the outcome and its ordering stay
     deterministic. *)
  let reads = Array.of_list (List.sort compare plan.reads) in
  let n_reads = Array.length reads in
  let attempts = Array.make (max 1 n_reads) 0 in
  let stalls = Array.make (max 1 n_reads) 0 in
  let retries_total = ref 0 in
  let throttled_batches = ref 0 in
  let aborted = ref None in
  let finish_disk disk_done =
    if n_reads = 0 then disk_done ()
    else begin
      let parked = Queue.create () in
      let next = ref 0 in
      let consecutive_dirty = ref 0 in
      let rec run_batch () =
        let idxs = ref [] in
        let count = ref 0 in
        while !count < batch && not (Queue.is_empty parked) do
          idxs := Queue.pop parked :: !idxs;
          incr count
        done;
        while !count < batch && !next < n_reads do
          idxs := !next :: !idxs;
          incr next;
          incr count
        done;
        if !count = 0 then disk_done ()
        else begin
          let inflight = ref !count in
          let dirty = ref false in
          let one_done () =
            decr inflight;
            if !inflight = 0 then begin
              if
                !aborted <> None
                || (Queue.is_empty parked && !next >= n_reads)
              then disk_done ()
              else begin
                let delay =
                  if !dirty then begin
                    incr consecutive_dirty;
                    incr throttled_batches;
                    retry_base_us lsl min !consecutive_dirty 6
                  end
                  else begin
                    consecutive_dirty := 0;
                    0
                  end
                in
                if delay = 0 then run_batch ()
                else Sim.Engine.run_after engine (Sim.Time.us delay) run_batch
              end
            end
          in
          let issue i =
            let sector, nsectors, slot = reads.(i) in
            (* [pass_base] anchors this batch's retry budget; the
               absolute attempt counter keeps climbing across parks so
               every reissue rehashes the fault plan. *)
            let pass_base = attempts.(i) in
            let rec go () =
              let attempt = attempts.(i) in
              let complete (reply : Storage.Disk.reply) =
                match reply.result with
                | Ok () -> one_done ()
                | Error Storage.Disk.Transient when !aborted = None ->
                    dirty := true;
                    attempts.(i) <- attempt + 1;
                    if attempt - pass_base < retry_limit then begin
                      incr retries_total;
                      Sim.Engine.run_after engine
                        (Sim.Time.us (retry_base_us lsl (attempt - pass_base)))
                        go
                    end
                    else begin
                      stalls.(i) <- stalls.(i) + 1;
                      if stalls.(i) > max_stalled_batches then begin
                        aborted :=
                          Some
                            {
                              error = Storage.Disk.Transient;
                              failed_sector = sector;
                              retries_before_abort = !retries_total;
                            };
                        one_done ()
                      end
                      else begin
                        Queue.add i parked;
                        one_done ()
                      end
                    end
                | Error error ->
                    if !aborted = None then
                      aborted :=
                        Some
                          {
                            error;
                            failed_sector = sector;
                            retries_before_abort = !retries_total;
                          };
                    one_done ()
              in
              match slot with
              | Some slot ->
                  Storage.Tiers.swap_in tiers ~slot ~sector ~nsectors ~queue:0
                    ~attempt complete
              | None ->
                  Storage.Disk.submit disk ~sector ~nsectors
                    ~kind:Storage.Disk.Read ~attempt complete
            in
            go ()
          in
          List.iter issue (List.rev !idxs)
        end
      in
      run_batch ()
    end
  in
  finish_disk (fun () ->
      match !aborted with
      | Some a -> k (Aborted a)
      | None ->
          (* The wire transfer overlaps the reads; whatever is longer,
             plus the link latency, bounds the migration. *)
          let disk_elapsed = Sim.Time.sub (Sim.Engine.now engine) started in
          let total =
            Sim.Time.add (Sim.Time.max disk_elapsed wire_us) link.rtt
          in
          let finish_at = Sim.Time.add started total in
          let fire = Sim.Time.max finish_at (Sim.Engine.now engine) in
          Sim.Engine.run_at engine fire (fun () ->
              k
                (Completed
                   {
                     duration = Sim.Time.sub (Sim.Engine.now engine) started;
                     bytes_sent = bytes;
                     pages_copied = plan.copy_pages;
                     mappings_sent = plan.mappings;
                     pages_skipped = plan.skipped;
                     source_disk_reads = n_reads;
                     retries = !retries_total;
                     throttled_batches = !throttled_batches;
                   })))

let pp_report fmt r =
  Format.fprintf fmt
    "%a, %.1f MB on the wire (%d pages, %d mappings, %d skipped, %d disk reads)"
    Sim.Time.pp r.duration
    (float_of_int r.bytes_sent /. 1048576.0)
    r.pages_copied r.mappings_sent r.pages_skipped r.source_disk_reads
