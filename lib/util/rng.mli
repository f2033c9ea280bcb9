(** Deterministic pseudo-random number generator (SplitMix64).

    All randomness in the simulator flows through explicitly-seeded [Rng.t]
    values so that every experiment is reproducible bit-for-bit from its
    seed, as the paper does when it "ensures the same sequence of
    pseudo-random numbers for all configurations". *)

type t
(** Mutable generator state (64 bits, stored unboxed). *)

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each subsystem (core jitter, fault injector, workload)
    its own stream so adding draws to one does not perturb the others. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val assign : dst:t -> src:t -> unit
(** [assign ~dst ~src] overwrites [dst]'s state with [src]'s, giving
    [dst] the same future stream in place — what a replay checker uses
    to rewind a core's embedded jitter stream to a chunk boundary. *)

val next : t -> int
(** [next t] is a uniform 62-bit non-negative integer. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Raises [Invalid_argument]
    if [bound <= 0]. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p], drawn from the same stream, but
    returns an unboxed [bool] rather than a boxed [float]: the per-cycle
    jitter draw in the cores allocates nothing. *)

val bits64 : t -> int64
(** Raw 64-bit output of the underlying SplitMix64 step. *)
