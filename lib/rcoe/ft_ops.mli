(** FT_* operations: staging at a replicated rendezvous, direct
    execution in Base mode, and the ingress-frame check both share. *)

val ft_stage : State.t -> int -> int array -> unit -> unit
(** [ft_stage t num args] folds FT operation [num]'s data into every
    live replica's signature and returns its commit: the externally
    visible side effects, to run only after a successful vote. *)

val io_in_flight : int -> int array -> bool
(** The operation has already read the device when its vote runs (an
    FT_Mem_Access read or an FT_Mem_Rep), so a faulty primary cannot be
    downgraded safely. *)

val ft_base : State.t -> State.replica -> int -> int array -> unit
(** Execute FT operation [num] directly on Base-mode replica [r]. *)
