(* Public facade over the replication scheduler and its run loops. All
   state and semantics live in [Sched]; [run] dispatches on the
   configured detection mode. Replay detection owns its own loop
   ([Engine_replay]: the same stepping plus chunk cuts and checker
   domains). *)

include Sched

let run ?stop t ~max_cycles =
  if (config t).Config.detection = Config.Replay then
    Engine_replay.run ?stop t ~max_cycles
  else Engine_seq.run ?stop t ~max_cycles

let replay_drain t =
  if (config t).Config.detection = Config.Replay then Engine_replay.drain t
