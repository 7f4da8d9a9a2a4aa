(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic choice in the simulator draws from an explicit [Rng.t]
    so that experiments are reproducible bit-for-bit from their seed and
    independent streams can be split off for independent subsystems. *)

type t

(** [create seed] makes a generator from a 64-bit seed. *)
val create : int64 -> t

(** [of_int seed] is [create] on a native int seed. *)
val of_int : int -> t

(** [mix z] is the SplitMix64 finalizer: a bijection on 64 bits that
    spreads every input bit over the output.  Pure, so it can hash
    coordinates into a value without a generator. *)
val mix : int64 -> int64

(** [split t] derives an independent generator, advancing [t]. *)
val split : t -> t

(** [next_int64 t] draws 64 uniformly random bits. *)
val next_int64 : t -> int64

(** [int t bound] draws uniformly from [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] draws uniformly from [lo, hi] inclusive. *)
val int_in : t -> int -> int -> int

(** [float t bound] draws uniformly from [0, bound). *)
val float : t -> float -> float

(** [bool t p] is true with probability [p]. *)
val bool : t -> float -> bool

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [exponential t ~mean] draws from an exponential distribution. *)
val exponential : t -> mean:float -> float
