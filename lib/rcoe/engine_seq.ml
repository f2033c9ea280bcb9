(* The lockstep execution engine. Every simulated cycle ticks the
   machine, steps each replica in rid order on the calling domain, and
   advances the round state machine. [step], when given, runs before
   each stretch of stepping (replay detection cuts its chunks there);
   a step that halts or finishes the system ends the run. *)

open State

let run ?stop ?step t ~max_cycles =
  let start = now t in
  let continue_ = ref true in
  while
    !continue_ && t.halt = None
    && (not (finished t))
    && now t - start < max_cycles
  do
    let live =
      match step with
      | None -> true
      | Some f ->
          f t;
          t.halt = None && not (finished t)
    in
    if live then begin
      (* Block-compiled backend: burn quiescent stretches in one burst
         (see [Sched.burst_cycles] for the bit-identity argument). The
         budget never crosses [max_cycles], and with a [stop] callback
         it also never crosses a 128-cycle poll boundary, so the polls
         below fire at exactly the cycles per-cycle stepping would poll
         at. *)
      let budget = max_cycles - (now t - start) in
      let budget =
        match stop with
        | Some _ -> min budget (128 - (now t land 127))
        | None -> budget
      in
      if Sched.burst_cycles t ~budget = 0 then Sched.classic_cycle t;
      match stop with
      | Some f when now t land 127 = 0 -> if f t then continue_ := false
      | _ -> ()
    end
  done
