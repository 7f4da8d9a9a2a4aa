(** Pluggable swap-backend interface.

    A backend is where swapped-out pages live: the mechanical {!Disk},
    a compressed-RAM pool (zswap-style), or a far-memory node behind a
    network link.  Each implementation supplies the same five
    operations — read, fire-and-forget write, admission test, per-page
    release, and a used-bytes gauge — so the {!Tiers} composite can
    route pages between them without knowing their latency models.

    All three models are deterministic: the disk is the existing
    event-driven elevator; the compressed and remote tiers keep their
    state as integer microsecond cursors in virtual time (a busy
    compressor CPU, a busy network link), making service times a pure
    function of the event order. *)

(** Completion payload, identical to {!Disk.reply}: the outcome and the
    service duration. *)
type reply = Disk.reply = {
  result : (unit, Faults.Error.t) Stdlib.result;
  service : Sim.Time.t;
}

type t

val name : t -> string

(** [read t ~sector ~nsectors ~queue ~attempt k] fetches sectors and
    calls [k] at the virtual completion time.  [queue] is meaningful
    for the disk backend (submission-queue steering); [attempt] keys
    transient-fault retries on the disk and remote backends.  The
    compressed and remote tiers fail only when built with a fault
    plan (pool corruption / link timeouts). *)
val read :
  t ->
  sector:int ->
  nsectors:int ->
  queue:int ->
  attempt:int ->
  (reply -> unit) ->
  unit

(** [write t ~queue ~sector ~nsectors] stores sectors, fire-and-forget
    (swap-out traffic awaits no ack).  The disk buffers and destages;
    the compressed tier charges compression CPU; the remote tier
    consumes link bandwidth. *)
val write : t -> queue:int -> sector:int -> nsectors:int -> unit

(** [admit t ~sector] asks whether the backend accepts the page at
    [sector].  The compressed tier rejects incompressible pages and
    pages that would overflow its pool; the others always accept. *)
val admit : t -> sector:int -> bool

(** [release t ~sector ~nsectors] returns per-page resources (pool
    bytes) when a slot is freed or its page moves to another tier. *)
val release : t -> sector:int -> nsectors:int -> unit

(** Current pool occupancy in bytes (0 for stateless backends). *)
val used_bytes : t -> int

(** [of_disk d] wraps the drive: reads are [Disk.submit ~kind:Read],
    writes are [Disk.write_buffered] (so they feed the destage path and
    its fault injection), admission always succeeds. *)
val of_disk : Disk.t -> t

(** [czram ~engine ~seed ~admit_ratio ~pool_bytes ~compress_us
    ~decompress_us] is a compressed-RAM tier.  Each page's
    compressed/uncompressed ratio is a pure hash of (seed, page index)
    in [0.15, 1.25); pages with ratio above [admit_ratio] — or that
    would push the pool past [pool_bytes] — are rejected.  Service is
    CPU time, [compress_us]/[decompress_us] per page, serialized on one
    compressor cursor: no seek, but concurrent requests queue.  When a
    [faults] plan is given, reads consult {!Faults.Plan.czram_error} —
    pool corruption, a persistent [Media] error keyed on the page. *)
val czram :
  ?faults:Faults.Plan.t ->
  engine:Sim.Engine.t ->
  seed:int ->
  admit_ratio:float ->
  pool_bytes:int ->
  compress_us:int ->
  decompress_us:int ->
  unit ->
  t

(** [remote ~engine ~rtt_us ~bytes_per_us ()] is a far-memory tier:
    every request pays a fixed [rtt_us] round-trip, and payloads
    serialize on a link of [bytes_per_us] bandwidth (a one-transfer
    token bucket), so concurrent swap-ins queue on link capacity.  When
    a [faults] plan is given, reads consult {!Faults.Plan.remote_error}
    — link timeouts, [Transient] errors that a retry can clear. *)
val remote :
  ?faults:Faults.Plan.t ->
  engine:Sim.Engine.t ->
  rtt_us:int ->
  bytes_per_us:float ->
  unit ->
  t
