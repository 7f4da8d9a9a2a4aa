type t = {
  jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  (* Execution accounting (read cross-domain by [stats]):
     [worked]  jobs executed by dedicated worker domains,
     [helped]  jobs executed by a submitter inside [map] (the inline
               serial path counts here too — the submitter ran them),
     [peak]    deepest the shared queue has been (updated under
               [mutex] at enqueue time, so the max is exact). *)
  worked : int Atomic.t;
  helped : int Atomic.t;
  peak : int Atomic.t;
}

(* The OCaml runtime supports at most 128 simultaneous domains; stay
   comfortably below, counting the submitting domain. *)
let max_jobs = 126

let clamp_jobs j = max 1 (min max_jobs j)

(* Explicitly requested widths (the [?jobs] argument, bench [--jobs])
   warn the first time one is clamped.  The derived default
   [recommended_domain_count () - 1] clamps silently — it hits the floor
   on every 1-core box and is not a user request. *)
let clamp_warned = Atomic.make false

let clamp_jobs_requested j =
  let clamped = clamp_jobs j in
  if clamped <> j && not (Atomic.exchange clamp_warned true) then
    Printf.eprintf
      "[parallel] warning: requested %d jobs clamped to %d (valid range 1..%d)\n%!"
      j clamped max_jobs;
  clamped

let default_jobs () = clamp_jobs (Domain.recommended_domain_count () - 1)

(* Worker loop: block for work, run it, repeat until closed and drained.
   Tasks never raise — [map] and [iter_all] capture each job's exception —
   so a worker only exits via [shutdown]. *)
let rec worker t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.tasks && not t.closed do
    Condition.wait t.nonempty t.mutex
  done;
  if Queue.is_empty t.tasks then Mutex.unlock t.mutex (* closed *)
  else begin
    let task = Queue.pop t.tasks in
    Mutex.unlock t.mutex;
    Atomic.incr t.worked;
    task ();
    worker t
  end

let create ?jobs () =
  let jobs =
    match jobs with
    | Some j -> clamp_jobs_requested j
    | None -> default_jobs ()
  in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      tasks = Queue.create ();
      closed = false;
      workers = [];
      worked = Atomic.make 0;
      helped = Atomic.make 0;
      peak = Atomic.make 0;
    }
  in
  if jobs > 1 then
    t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let jobs t = t.jobs

type stats = {
  jobs : int;
  worker_jobs : int;
  helper_jobs : int;
  peak_queue_depth : int;
}

let stats (t : t) =
  {
    jobs = t.jobs;
    worker_jobs = Atomic.get t.worked;
    helper_jobs = Atomic.get t.helped;
    peak_queue_depth = Atomic.get t.peak;
  }

let reset_stats t =
  Atomic.set t.worked 0;
  Atomic.set t.helped 0;
  Atomic.set t.peak 0

(* The one fan-out core: run [job 0] .. [job (n - 1)] to completion
   ([job] never raises).  At width 1 the submitter runs them inline, in
   index order.  Otherwise it enqueues them and *helps*: it pops and
   executes queued jobs — its own or any other caller's — until its own
   are all done, blocking only when the queue is empty while jobs of its
   own run on other domains.  A submitter keeps popping while any job of
   its own is un-started, so every queued job has a non-blocked domain
   that will pop it and nested submissions cannot deadlock the fixed
   worker set.  It stops as soon as its own jobs are done, so its
   latency covers them plus at most one foreign job.  Each job's writes
   precede its [done_mutex] unlock, so the caller sees them all. *)
let run_jobs (t : t) n (job : int -> unit) =
  if t.jobs <= 1 || n <= 1 then begin
    for i = 0 to n - 1 do
      job i
    done;
    ignore (Atomic.fetch_and_add t.helped n)
  end
  else begin
    let done_mutex = Mutex.create () in
    let done_cond = Condition.create () in
    let remaining = ref n in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add
        (fun () ->
          job i;
          Mutex.lock done_mutex;
          decr remaining;
          if !remaining = 0 then Condition.signal done_cond;
          Mutex.unlock done_mutex)
        t.tasks
    done;
    let depth = Queue.length t.tasks in
    if depth > Atomic.get t.peak then Atomic.set t.peak depth;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    let rec help () =
      Mutex.lock done_mutex;
      let mine_done = !remaining = 0 in
      Mutex.unlock done_mutex;
      if not mine_done then begin
        Mutex.lock t.mutex;
        match Queue.take_opt t.tasks with
        | Some task ->
            Mutex.unlock t.mutex;
            Atomic.incr t.helped;
            task ();
            help ()
        | None ->
            Mutex.unlock t.mutex;
            Mutex.lock done_mutex;
            while !remaining > 0 do
              Condition.wait done_cond done_mutex
            done;
            Mutex.unlock done_mutex
      end
    in
    help ()
  end

let map t f xs =
  let arr = Array.of_list xs in
  let results = Array.make (Array.length arr) None in
  run_jobs t (Array.length arr) (fun i ->
      results.(i) <- Some (try Ok (f arr.(i)) with e -> Error e));
  Array.to_list (Array.map Option.get results)

(* Barrier fan-out over preallocated thunks — the epoch hot path of the
   fleet simulator.  The caller owns the thunk array (reused every
   epoch), so beyond the queue nodes and one failure slot per thunk
   nothing is allocated per call: no list conversion, no per-job result
   boxing.  Every thunk runs; the lowest-index failure is re-raised
   after the barrier, so which exception a caller sees does not depend
   on the pool width or on completion order. *)
let iter_all t (thunks : (unit -> unit) array) =
  let failures = Array.make (Array.length thunks) None in
  run_jobs t (Array.length thunks) (fun i ->
      try thunks.(i) () with e -> failures.(i) <- Some e);
  Array.iter (function Some e -> raise e | None -> ()) failures

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let run ?jobs f xs =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> map t f xs)

(* ------------------------------------------------------------------ *)
(* The process-global shared pool                                      *)
(* ------------------------------------------------------------------ *)

let global_mutex = Mutex.create ()
let global_pool : t option ref = ref None

let global () =
  Mutex.lock global_mutex;
  let t =
    match !global_pool with
    | Some t -> t
    | None ->
        let t = create () in
        global_pool := Some t;
        t
  in
  Mutex.unlock global_mutex;
  t

let set_global_jobs j =
  let j = clamp_jobs_requested j in
  Mutex.lock global_mutex;
  (match !global_pool with
  | Some t when t.jobs = j -> ()
  | prev ->
      (match prev with Some t -> shutdown t | None -> ());
      global_pool := Some (create ~jobs:j ()));
  Mutex.unlock global_mutex
