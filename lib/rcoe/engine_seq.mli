(** The lockstep run loop. *)

val run :
  ?stop:(State.t -> bool) ->
  ?step:(State.t -> unit) ->
  State.t ->
  max_cycles:int ->
  unit
(** Step until finished, halted, [max_cycles] elapsed or [stop] (polled
    every 128 cycles). [step] runs before each stretch of stepping; a
    step that halts or finishes the system ends the run. *)
