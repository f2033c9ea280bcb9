(** The round lifecycle and the per-cycle stepper. *)

val create : config:Config.t -> program:Rcoe_isa.Program.t -> State.t
(** See [System.create]; replay detection is armed separately, by
    [Engine_replay.setup]. *)

val classic_cycle : State.t -> unit
(** One simulated cycle: machine tick, every replica stepped in rid
    order, then the round state machine. *)

val burst_cycles : State.t -> budget:int -> int
(** Run up to [budget] cycles in one burst, bit-identical to that many
    [classic_cycle]s; [0] when no burst is possible now. *)
