(* The traced run's instruments, all outside the simulator:

   - SIGPROF call-stack samples.  Every [interval_s] of process CPU time
     the handler records the OCaml call stack; a sample's self time is
     charged to its innermost frame from a file under lib/, i.e. past
     the handler, the benchmark and Stdlib, and that file names the
     layer (see [layer_of_file]).
   - runtime_events: per-domain GC phase time, plus user spans written
     here around the build / run / Fleet.run calls.  The ring file lives
     in the directory the parent passes in OCAML_RUNTIME_EVENTS_DIR.

   Samples are taken at OCaml poll points (allocations, function entries
   and loop back-edges), so a long allocation-free stretch is charged to
   the frame that next polls. *)

let interval_s = 0.001

(* Layers, by the lib/ directory and module of a frame's source file. *)
let layers =
  [|
    "sim"; "disk"; "swap_area"; "tiers"; "storage"; "host"; "scrub"; "qos";
    "mem"; "guest"; "vswapper"; "vmm"; "workloads"; "balloon"; "faults";
    "metrics"; "migration"; "cluster"; "pool";
  |]

let layer_index name =
  let rec go i =
    if i >= Array.length layers then invalid_arg name
    else if layers.(i) = name then i
    else go (i + 1)
  in
  go 0

let layer_of_file file =
  match String.split_on_char '/' file with
  | [ "lib"; dir; f ] -> (
      match (dir, Filename.remove_extension f) with
      | "storage", "disk" -> Some "disk"
      | "storage", "swap_area" -> Some "swap_area"
      | "storage", ("tiers" | "backend") -> Some "tiers"
      | "host", (("scrub" | "qos") as m) -> Some m
      | "core", _ -> Some "vswapper"
      | "parallel", _ -> Some "pool"
      | ( ( "sim" | "storage" | "host" | "mem" | "guest" | "vmm" | "workloads"
          | "balloon" | "faults" | "metrics" | "migration" | "cluster" ),
          _ ) ->
          Some dir
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type Runtime_events.User.tag += Build | Run

let build =
  Runtime_events.User.register "bench.build" Build Runtime_events.Type.span

let run = Runtime_events.User.register "bench.run" Run Runtime_events.Type.span

(* [span ev f] brackets [f ()] with begin/end user events.  Writing to a
   paused or never-started ring is a no-op, so untraced reps pay one
   check per call. *)
let span ev f =
  Runtime_events.User.write ev Runtime_events.Type.Begin;
  Fun.protect
    ~finally:(fun () -> Runtime_events.User.write ev Runtime_events.Type.End)
    f

(* ------------------------------------------------------------------ *)
(* runtime_events reader                                               *)
(* ------------------------------------------------------------------ *)

let max_rings = 128
let gc_depth = Array.make max_rings 0
let gc_began = Array.make max_rings 0L
let gc_ns = ref 0L
let span_began = [| 0L; 0L |]
let span_ns = [| 0L; 0L |]
let ts = Runtime_events.Timestamp.to_int64

(* Any runtime phase counts as GC except a domain parked on a condition
   (idle, not collecting); nested phases count once, per domain. *)
let runtime_begin ring t phase =
  if phase <> Runtime_events.EV_DOMAIN_CONDITION_WAIT && ring < max_rings
  then begin
    if gc_depth.(ring) = 0 then gc_began.(ring) <- ts t;
    gc_depth.(ring) <- gc_depth.(ring) + 1
  end

let runtime_end ring t phase =
  if
    phase <> Runtime_events.EV_DOMAIN_CONDITION_WAIT
    && ring < max_rings
    && gc_depth.(ring) > 0
  then begin
    gc_depth.(ring) <- gc_depth.(ring) - 1;
    if gc_depth.(ring) = 0 then
      gc_ns := Int64.add !gc_ns (Int64.sub (ts t) gc_began.(ring))
  end

let user_span _ring t ev v =
  let i = if Runtime_events.User.tag ev = Build then 0 else 1 in
  match (v : Runtime_events.Type.span) with
  | Begin -> span_began.(i) <- ts t
  | End ->
      span_ns.(i) <- Int64.add span_ns.(i) (Int64.sub (ts t) span_began.(i))

let callbacks =
  lazy
    (Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ()
    |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.span
         user_span)

let cursor = ref None

let poll () =
  match !cursor with
  | Some c ->
      ignore (Runtime_events.read_poll c (Lazy.force callbacks) None : int)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

(* One handler at a time, whichever domain takes the signal; a sample
   that arrives while another is being recorded is dropped. *)
let busy = Atomic.make false
let samples : Printexc.raw_backtrace list ref = ref []
let ticks = ref 0

let on_sigprof _ =
  if Atomic.compare_and_set busy false true then begin
    samples := Printexc.get_callstack 128 :: !samples;
    incr ticks;
    (* Drain the rings often enough that they never wrap. *)
    if !ticks land 15 = 0 then poll ();
    Atomic.set busy false
  end

let set_timer s =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = s; it_value = s }
      : Unix.interval_timer_status)

(* [init ()] arms runtime_events in the paused state; [on]/[off] bracket
   each traced rep. *)
let init () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sigprof);
  Runtime_events.start ();
  Runtime_events.pause ();
  cursor := Some (Runtime_events.create_cursor None)

let on () =
  Runtime_events.resume ();
  set_timer interval_s

let off () =
  set_timer 0.0;
  Runtime_events.pause ();
  poll ()

(* ------------------------------------------------------------------ *)
(* Attribution                                                         *)
(* ------------------------------------------------------------------ *)

(* Per raw frame: the layer of its innermost source location under lib/,
   -1 for a frame to look through (benchmark, Stdlib, other libraries),
   memoised since a run revisits a few thousand frames. *)
let frame_layer : (int, int) Hashtbl.t = Hashtbl.create 4096

let classify_entry e =
  let key = (e : Printexc.raw_backtrace_entry :> int) in
  match Hashtbl.find_opt frame_layer key with
  | Some l -> l
  | None ->
      let l =
        match Printexc.backtrace_slots_of_raw_entry e with
        | None -> -1
        | Some slots ->
            Array.fold_left
              (fun acc slot ->
                if acc >= 0 then acc
                else
                  match Printexc.Slot.location slot with
                  | None -> -1
                  | Some loc -> (
                      match layer_of_file loc.Printexc.filename with
                      | Some name -> layer_index name
                      | None -> -1))
              (-1) slots
      in
      Hashtbl.add frame_layer key l;
      l

let classify bt =
  let entries = Printexc.raw_backtrace_entries bt in
  let rec go i =
    if i >= Array.length entries then -1
    else
      let l = classify_entry entries.(i) in
      if l >= 0 then l else go (i + 1)
  in
  go 0

type summary = {
  samples : int;
  self_pct : (string * float) list;  (** every layer, in [layers] order *)
  unattributed_pct : float;
  gc_s : float;  (** GC domain-seconds over all traced reps *)
  span_s : float;  (** host s inside build + run spans *)
}

let summary () =
  let counts = Array.make (Array.length layers) 0 in
  let unattributed = ref 0 in
  List.iter
    (fun bt ->
      let l = classify bt in
      if l >= 0 then counts.(l) <- counts.(l) + 1 else incr unattributed)
    !samples;
  let n = List.length !samples in
  let pct c =
    if n = 0 then 0.0 else 100.0 *. float_of_int c /. float_of_int n
  in
  {
    samples = n;
    self_pct =
      Array.to_list (Array.mapi (fun i l -> (l, pct counts.(i))) layers);
    unattributed_pct = pct !unattributed;
    gc_s = Int64.to_float !gc_ns /. 1e9;
    span_s = Int64.to_float (Int64.add span_ns.(0) span_ns.(1)) /. 1e9;
  }
