(** Recovery from a detected error: the signature vote, masking by
    downgrade, the barrier-timeout policy, verified checkpoints and
    rollback, and re-integration of a removed replica. Called at round
    boundaries only. *)

val vote_signatures :
  State.t -> io_in_flight:bool -> (unit -> unit) -> unit
(** Publish and vote the live replicas' signatures; run the
    continuation on agreement, or after a mismatch that masking
    survived. *)

val publish_signatures : State.t -> unit

val handle_mismatch : State.t -> io_in_flight:bool -> bool
(** Mask (TMR downgrade), roll back, or halt. [true] iff the round may
    complete with the survivors; [false] after a halt or a rollback. *)

val handle_timeout : State.t -> stragglers:State.replica list -> bool
(** Downgrade a lone straggler under timeout masking ([true]: the round
    continues), else halt with [H_timeout]. *)

val maybe_checkpoint : State.t -> unit
(** End of a voted round: capture a checkpoint every
    [checkpoint_every] rounds. *)

val maybe_reintegrate : State.t -> unit
(** End of an asynchronous round: re-admit the requested replica. *)

val request_reintegration : State.t -> rid:int -> (unit, string) result

val ckpt_copy_cost : int -> int
(** Stall of copying [words] words of a checkpoint, either way. *)

val charge_capture :
  State.t -> State.replica list -> words:int -> skipped:int -> int
(** Charge and account a capture of [words] copied and [skipped] clean
    words; returns the stall. *)

val record_rollback : State.t -> to_cycle:int -> (unit -> int) -> unit
(** Rollback bookkeeping shared by both detection modes around
    [restore], which rewinds to the recovery point captured at
    [to_cycle] and returns its stall. *)
