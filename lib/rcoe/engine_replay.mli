(** The replay-based detection engine: chunk cuts, checker domains and
    rollback to a chunk's start. *)

val setup : State.t -> unit
(** Arm replay detection on a freshly created system. *)

val run : ?stop:(State.t -> bool) -> State.t -> max_cycles:int -> unit
(** [Engine_seq.run] with a chunk cut at each tick boundary the primary
    reaches quiescent, and a drain of the pipeline when the run ends in
    a terminal state. *)

val drain : State.t -> unit
(** Close the accumulating chunk and harvest every verdict. *)
