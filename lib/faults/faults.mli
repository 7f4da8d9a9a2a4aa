(** Deterministic disk fault injection.

    A {!Plan.t} is a pure function from (sector, attempt) to a fault
    decision, derived from a single integer seed.  Because decisions
    are hashes of the request coordinates rather than draws from a
    shared mutable stream, the same plan produces the same faults no
    matter how requests interleave — which is what keeps experiment
    sweeps byte-identical at any [--jobs] count. *)

module Error : sig
  (** Typed disk read failure. *)
  type t =
    | Media  (** permanent: the sector is bad on every attempt *)
    | Transient  (** may succeed when retried (distinct attempt number) *)

  val to_string : t -> string
end

module Config : sig
  type t = {
    seed : int;  (** stream seed; same seed => same fault pattern *)
    media_rate : float;  (** per-sector probability of a permanent error *)
    transient_rate : float;
        (** per-sector, per-attempt probability of a transient error *)
    degraded_rate : float;
        (** per-batch probability of a degraded (slow) service *)
    degraded_mult : float;  (** latency multiplier for degraded service *)
    czram_rate : float;
        (** per-page probability of compressed-pool corruption; [make]
            defaults it to [media_rate], so a config that corrodes the
            disk corrodes the pool too unless told otherwise *)
  }

  val none : t
  (** All rates zero: injects nothing. *)

  val is_none : t -> bool

  val make :
    ?seed:int ->
    ?media_rate:float ->
    ?transient_rate:float ->
    ?degraded_rate:float ->
    ?degraded_mult:float ->
    ?czram_rate:float ->
    unit ->
    t
end

module Plan : sig
  type t

  val none : t
  (** Plan that never injects a fault (fast path, no hashing). *)

  val create : Config.t -> t
  (** Raises [Invalid_argument] naming the first field out of range: a
      rate must be finite and [>= 0] (a rate above 1 acts as 1), and
      [degraded_mult] finite and [>= 1]. *)

  val config : t -> Config.t

  val is_none : t -> bool

  val read_error :
    t -> sector:int -> nsectors:int -> attempt:int -> Error.t option
  (** Fault decision for a read covering [sector .. sector+nsectors-1]
      on its [attempt]-th submission (0-based).  Media errors depend
      only on the sector, so they persist across retries; transient
      errors also hash the attempt number, so a retry can succeed.
      Media takes precedence when both fire. *)

  val write_error : t -> sector:int -> attempt:int -> Error.t option
  (** Fault decision for destaging one buffered sector to the media on
      its [attempt]-th destage.  Drawn from write-path hash streams that
      are independent of the read-path streams, so enabling write faults
      does not reshuffle where read faults land for a given seed.  Media
      errors depend only on the sector (they persist); transient errors
      also hash the attempt, so a re-destage can succeed. *)

  val czram_error : t -> page:int -> Error.t option
  (** Fault decision for decompressing one page out of the compressed-RAM
      pool: pool corruption, modelled as a {!Error.Media} error keyed on
      the page number alone (it persists across attempts).  Fires with
      probability [czram_rate] from a stream independent of the disk's,
      so enabling czram faults does not move where disk faults land. *)

  val remote_error : t -> sector:int -> attempt:int -> Error.t option
  (** Fault decision for fetching one swap slot over the remote-memory
      link: a link timeout, modelled as {!Error.Transient} keyed on
      (sector, attempt) so a retry can succeed.  Fires with probability
      [transient_rate] from its own stream, independent of the disk's. *)

  val degraded_mult : t -> sector:int -> float option
  (** [Some m] when service starting at [sector] should be slowed by
      factor [m]; decided per starting sector, independent of time. *)

  val hash01 : int64 -> int -> int -> float
  (** [hash01 key a b] is the pure SplitMix64-style hash of [(key, a,
      b)] mapped to [0, 1) — the primitive behind every fault decision.
      Exposed so other deterministic per-sector models (e.g. the
      compressed-RAM tier's compressibility ratio) can draw from the
      same family without sharing a mutable stream. *)

  val mix_int : int -> int
  (** SplitMix-style finalizer over the native int, always
      non-negative.  The allocation-free sibling of the [int64] mix
      behind {!hash01} (the classic 64-bit constants do not fit OCaml's
      63-bit int, so the multipliers differ): used where a well-mixed
      deterministic tag must be derived from packed int fields without
      boxing — e.g. {!Storage.Content.combine} and the flat
      metadata-table hash. *)
end
