(* The replay-based detection engine (RepTFD-style; see
   [Config.detection]).

   The primary runs *unreplicated*, at near-Base speed, under the
   sequential engine's stepping rules (bursts included: [run] is
   [Engine_seq.run] with the cut as its per-iteration step). Every
   [replay_chunk_ticks] preemption ticks it cuts a chunk: a frozen
   [cut_state] (the chunk's start, and the one copy of it) and the
   input log drained since the previous cut. Closed chunks enter a
   bounded in-flight queue; checker domains concurrently restore each
   chunk's start into a private shadow system, re-execute it —
   re-injecting the logged host inputs at the recorded cycles — and
   compare the end-of-chunk Fletcher signature over the replicated
   memory.

   Detection is therefore asynchronous: a fault inside chunk [j] is
   discovered when [j]'s verdict is processed, at most
   [replay_queue_depth] chunks after it executed — the paper's
   sync-overhead/detection-latency trade-off, bought with one extra
   core per checker instead of per-sync-point rendezvous. A full
   in-flight queue stalls the primary (host-side [Domain.join]; the
   simulated clock is untouched, so backpressure never perturbs the
   machine's determinism).

   On a mismatch the primary restores the chunk's start cut, as its
   checker did — memory, kernel and the outside-SoR state (device
   queues, bus credit, jitter RNG) — so re-execution re-lives the same
   timeline minus the (un-reinjected) fault. It gets one such rollback
   per verified chunk, within [max_rollbacks]; otherwise it
   fail-stops. The pipeline then resets: in-flight chunks are
   discarded and the input log restarts — inputs absorbed after the
   rollback point are lost, exactly like frames a rebooting NIC drops,
   and the serving harness's client retransmission recovers them. *)

open Rcoe_machine
open Rcoe_kernel
open Sched

let shadow_config cfg =
  {
    cfg with
    Config.detection = Config.Lockstep;
    trace = None;
  }

(* Shadow systems are created lazily (program lint and layout make
   creation too costly per chunk) and pooled: at most
   [replay_checkers] ever exist, each used by one checker domain at a
   time. *)
let get_shadow t rp =
  match rp.rp_shadows with
  | s :: rest ->
      rp.rp_shadows <- rest;
      Some s
  | [] ->
      if rp.rp_shadows_made < t.cfg.Config.replay_checkers then begin
        rp.rp_shadows_made <- rp.rp_shadows_made + 1;
        Some
          (create ~config:(shadow_config t.cfg)
             ~program:(Kernel.program t.replicas.(0).kern))
      end
      else None

(* Re-execute [ch] on [sys] and report whether the end-of-chunk
   signature matches. Runs on a checker domain: it touches only the
   immutable chunk and the private shadow system. Shadow stepping goes
   through [Engine_seq.run], which never overshoots its cycle budget,
   so the shadow lands exactly on each input's cycle and on the chunk
   end — unless the guest finishes or halts early, which (on a clean
   replay) the primary did at the same cycle. *)
let verify_chunk sys (ch : chunk) =
  replay_restore_cut sys ch.ch_start;
  let target = ch.ch_end.cs_cycle in
  let step_to cycle =
    if cycle > now sys && sys.halt = None && not (finished sys) then
      Engine_seq.run sys ~max_cycles:(cycle - now sys)
  in
  let rec drive events =
    match Inputlog.next_at events with
    | Some at when at <= target ->
        step_to at;
        let rest =
          match sys.net with
          | Some nd -> Inputlog.replay_onto nd events ~upto:(now sys)
          | None -> []
        in
        drive rest
    | _ -> step_to target
  in
  drive ch.ch_log;
  replay_region_sig sys = ch.ch_end.cs_sig

(* Hand every queued-but-unassigned chunk to a checker, oldest first,
   while shadows are available. *)
let rec assign_checkers t rp =
  match
    List.find_opt
      (fun i -> match i.if_domain with None -> true | Some _ -> false)
      rp.rp_inflight
  with
  | None -> ()
  | Some inf -> (
      match get_shadow t rp with
      | None -> ()
      | Some sh ->
          let ch = inf.if_chunk in
          inf.if_shadow <- Some sh;
          inf.if_domain <- Some (Domain.spawn (fun () -> verify_chunk sh ch));
          assign_checkers t rp)

let release_shadow rp inf =
  match inf.if_shadow with
  | Some s ->
      rp.rp_shadows <- s :: rp.rp_shadows;
      inf.if_shadow <- None
  | None -> ()

(* Capture the current quiescent point as the next chunk boundary:
   charge the capture stall, freeze the cut, close the accumulating
   chunk into the in-flight queue, and enforce the queue bound
   (blocking on the oldest verdict — backpressure). The stall is priced
   as a delta checkpoint of the pages dirtied since the previous cut,
   the copy a cut costs on hardware with page-granular dirty bits. *)
let rec do_cut t rp =
  (* The capture stall must be charged before the cut is frozen: the
     restored start state of the *next* chunk has to contain it, or a
     replay of that chunk would run ahead of the primary's timeline. *)
  let words, skipped = Checkpoint.delta_size (mem t) t.lay ~rids:[ 0 ] in
  Mem.clear_dirty (mem t);
  let stall = charge_capture t [ t.replicas.(0) ] ~words ~skipped in
  let cut = replay_cut_state t ~stall in
  let closed =
    {
      ch_seq = rp.rp_seq;
      ch_start = rp.rp_cut;
      ch_log = Inputlog.cut rp.rp_log;
      ch_end = cut;
    }
  in
  rp.rp_cut <- cut;
  rp.rp_seq <- rp.rp_seq + 1;
  (* Schedule relative to the actual cut tick: a cut the quiescence
     guard delayed must not make the next one degenerate. *)
  rp.rp_next_cut <- t.ticks + t.cfg.Config.replay_chunk_ticks;
  rp.rp_inflight <-
    rp.rp_inflight @ [ { if_chunk = closed; if_domain = None; if_shadow = None } ];
  Metrics.incr t.ms.m_replay_chunks;
  Trace.replay_cut t.trace ~seq:closed.ch_seq;
  assign_checkers t rp;
  let infl = List.length rp.rp_inflight in
  if infl > rp.rp_hwm then rp.rp_hwm <- infl;
  (* Checker utilisation, in deterministic simulated terms: a slot with
     no chunk assigned over the coming chunk span is idle capacity. *)
  let busy =
    List.length
      (List.filter
         (fun i -> match i.if_domain with Some _ -> true | None -> false)
         rp.rp_inflight)
  in
  let idle = t.cfg.Config.replay_checkers - min t.cfg.Config.replay_checkers busy in
  rp.rp_idle_cycles <- rp.rp_idle_cycles + (idle * rp.rp_span);
  (* Backpressure: chunk [j]'s verdict is processed no later than the
     cut that closes chunk [j + depth - 1], so a fault is detected at
     most [depth * chunk_span] cycles after it occurred. *)
  while
    List.length rp.rp_inflight > max 0 (t.cfg.Config.replay_queue_depth - 1)
  do
    harvest_oldest t rp
  done

(* Process the oldest in-flight chunk's verdict, blocking until its
   checker finishes. Verdicts are processed strictly in chunk order. *)
and harvest_oldest t rp =
  match rp.rp_inflight with
  | [] -> ()
  | inf :: rest ->
      assign_checkers t rp;
      let ok =
        match inf.if_domain with
        | Some d -> Domain.join d
        | None ->
            (* Unreachable: the oldest chunk has first claim on a
               shadow, and at least one always exists. *)
            invalid_arg "Engine_replay: unassigned chunk at harvest"
      in
      release_shadow rp inf;
      rp.rp_inflight <- rest;
      let ch = inf.if_chunk in
      let lag = now t - ch.ch_end.cs_cycle in
      Metrics.observe t.ms.m_replay_lag (float_of_int lag);
      Trace.replay_verdict t.trace ~seq:ch.ch_seq ~chunk_end:ch.ch_end.cs_cycle
        ~lag ~ok;
      if ok then begin
        Metrics.incr t.ms.m_replay_verified;
        (* A verified chunk is forward progress: the next mismatch may
           roll back again. *)
        rp.rp_retrying <- false;
        assign_checkers t rp
      end
      else begin
        Metrics.incr t.ms.m_replay_mismatch;
        on_mismatch t rp ch rest
      end

(* A replayed chunk diverged: everything from its start cycle on is
   suspect. Discard the invalid future (in-flight chunks and the
   accumulating one) and either roll back to the chunk's start or
   fail-stop. The policy: one rollback per verified chunk, within the
   [max_rollbacks] budget. A second mismatch before any chunk verifies
   means re-execution from a clean start diverged again — under replay
   the fault is deterministic, and retrying cannot help. *)
and on_mismatch t rp ch rest =
  log_event t E_mismatch;
  List.iter
    (fun i ->
      (match i.if_domain with Some d -> ignore (Domain.join d) | None -> ());
      release_shadow rp i)
    rest;
  rp.rp_inflight <- [];
  Inputlog.clear rp.rp_log;
  if t.rollbacks_done < t.cfg.Config.max_rollbacks && not rp.rp_retrying
  then begin
    (* Re-execution re-lives the chunk's exact timeline (device
       deliveries and timing jitter included) minus the fault. Host
       inputs recorded after the chunk started are gone with the
       cleared log, exactly like frames a rebooting NIC drops; the
       serving client's retransmission path redelivers them. *)
    rp.rp_retrying <- true;
    replay_rollback t ch.ch_start;
    rp.rp_cut <- replay_cut_state t ~stall:0;
    rp.rp_seq <- rp.rp_seq + 1;
    rp.rp_next_cut <- t.ticks + t.cfg.Config.replay_chunk_ticks
  end
  else if t.halt = None then halt_system t H_mismatch

(* A cut needs a quiescent primary: the frozen [cut_state] records
   none of the engine's round bookkeeping (an open FT-op rendezvous,
   an in-flight async round), so the shadow restore re-enters at
   [Ph_idle]/[Rs_run] and anything else would diverge. In Base mode
   the primary is idle on almost every cycle; when the tick lands
   mid-rendezvous the cut just waits for the next eligible cycle. *)
let quiescent t =
  (match t.phase with Ph_idle -> true | _ -> false)
  &&
  match t.replicas.(0).state with Rs_run -> true | _ -> false

(* Drain the verification pipeline without waiting for a terminal
   state: close the accumulating chunk (when the primary is at a
   quiescent point — it essentially always is between [run] calls in
   Base mode) and process every outstanding verdict. The serving
   harness calls this through [System.replay_drain] when the client is
   done, so the final report covers every executed chunk; a mismatch
   found here still rolls back (or halts) through the usual path, and
   the caller reads the result off the system state. *)
let drain t =
  match t.rp with
  | None -> ()
  | Some rp ->
      if
        quiescent t
        && (rp.rp_cut.cs_cycle < now t || Inputlog.pending rp.rp_log > 0)
      then do_cut t rp;
      while rp.rp_inflight <> [] do
        harvest_oldest t rp
      done

(* The replay run loop: the sequential engine's loop with a chunk cut
   at each tick boundary the primary reaches quiescent, plus a drain of
   the verification pipeline when the run reaches a terminal state. A
   drain can itself detect a mismatch and roll the system back to a
   live state, in which case execution resumes within the same call
   (budget permitting). *)
let run ?stop t ~max_cycles =
  let rp =
    match t.rp with
    | Some rp -> rp
    | None -> invalid_arg "Engine_replay.run: detection is not Replay"
  in
  let start = now t in
  let stopped = ref false in
  let stop = Option.map (fun f t -> f t && (stopped := true; true)) stop in
  let cut t = if t.ticks >= rp.rp_next_cut && quiescent t then do_cut t rp in
  let rec go () =
    Engine_seq.run ?stop ~step:cut t ~max_cycles:(max_cycles - (now t - start));
    (* Terminal drain: when the guest finished or the system halted,
       close the final (partial) chunk and process every outstanding
       verdict, so no fault escapes in the pipeline's tail. Skipped on
       budget/stop exhaustion — the pipeline keeps flowing across [run]
       calls. *)
    if
      (not !stopped)
      && (finished t || t.halt <> None)
      && (rp.rp_inflight <> []
         || rp.rp_cut.cs_cycle < now t
         || Inputlog.pending rp.rp_log > 0)
    then begin
      do_cut t rp;
      while rp.rp_inflight <> [] do
        harvest_oldest t rp
      done;
      (* A drain-time mismatch rolled the system back to a live state:
         keep executing if this call still has budget. *)
      if t.halt = None && (not (finished t)) && now t - start < max_cycles
      then go ()
    end
  in
  go ()
