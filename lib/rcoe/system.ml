(* Public facade over the replication scheduler: accessors over the
   system record ([State]), construction ([Sched.create], plus
   [Engine_replay.setup] under replay detection), and [run], which
   dispatches on the configured detection mode. Replay detection owns
   its own loop ([Engine_replay]: the same stepping plus chunk cuts and
   checker domains). *)

open Rcoe_machine
open Rcoe_kernel
include State
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics

let halt_reason_to_string = function
  | H_mismatch -> "signature mismatch (halt)"
  | H_no_consensus -> "vote: no consensus on faulty replica"
  | H_timeout -> "barrier timeout"
  | H_kernel_exception s -> "kernel exception: " ^ s
  | H_masking_blocked -> "faulty primary during I/O: cannot downgrade"

type stats = {
  mutable ticks_delivered : int;
  mutable rounds : int;
  mutable votes : int;
  mutable ipis : int;
  mutable bp_fires : int;
  mutable ft_rounds : int;
  mutable rendezvous : int;
}

let config t = t.cfg
let machine t = t.mach

let lint_report t = t.lint

let lint_warnings t =
  List.filter_map
    (fun f ->
      if f.Rcoe_isa.Lint.f_severity = Rcoe_isa.Lint.Warning then
        Some f.Rcoe_isa.Lint.f_message
      else None)
    t.lint.Rcoe_isa.Lint.findings
let layout t = t.lay
let netdev t = t.net
let kernel t rid = t.replicas.(rid).kern
let primary t = t.prim

let stats t =
  {
    ticks_delivered = Metrics.count t.ms.m_ticks;
    rounds = Metrics.count t.ms.m_rounds;
    votes = Metrics.count t.ms.m_votes;
    ipis = Metrics.count t.ms.m_ipis;
    bp_fires = Metrics.count t.ms.m_bp_fires;
    ft_rounds = Metrics.count t.ms.m_ft_rounds;
    rendezvous = Metrics.count t.ms.m_rendezvous;
  }

(* Refresh-on-read gauges over device and trace-ring state. Gauges hold
   host-side values (net.tx_pending_hwm depends on how often the host
   harness drains TX completions), so identity checks compare counters
   only. *)
let metrics t =
  let set name v = Metrics.set (Metrics.gauge_or t.metrics name) (float_of_int v) in
  set "trace.dropped_events" (Trace.dropped t.trace);
  (match t.net with
  | Some nd ->
      set "net.rx_dropped" (Netdev.rx_dropped nd);
      set "net.rx_ring_hwm" (Netdev.rx_ring_hwm nd);
      set "net.tx_pending_hwm" (Netdev.tx_pending_hwm nd);
      set "net.tx_sent" (Netdev.tx_sent nd);
      set "net.rx_nacked" (Netdev.rx_nacked nd)
  | None -> ());
  (match t.rp with
  | Some rp ->
      set "net.replay_queue_hwm" rp.rp_hwm;
      set "replay.checker_idle_cycles" rp.rp_idle_cycles
  | None -> ());
  t.metrics
let trace t = t.trace

let fastpath t = t.fp
let halted t = t.halt
let downgrades t = t.downgrade_log

let rollbacks t = t.rollback_log
let reintegrations t = t.reintegration_log
let request_reintegration = Recovery.request_reintegration

let checkpoints_taken t = Metrics.count t.ms.m_ckpt_taken
let events t = t.event_log
let tick_count t = t.ticks
let output t rid = Buffer.contents (Kernel.output t.replicas.(rid).kern)
let replica_done t rid = t.replicas.(rid).finished
let set_after_save_hook t h = t.after_save <- h

let replica_state_name t rid =
  let r = t.replicas.(rid) in
  let state =
    match r.state with
    | Rs_run -> if r.finished then "run(finished)" else "run"
    | Rs_gather_wait -> "gather"
    | Rs_chase n -> Printf.sprintf "chase(%d)" n
    | Rs_catchup _ -> "catchup"
    | Rs_vote_wait -> "vote-wait"
    | Rs_rendezvous -> "rendezvous"
    | Rs_halted -> "halted"
    | Rs_removed -> "removed"
  in
  let phase =
    match t.phase with
    | Ph_idle -> "idle"
    | Ph_async { stage = `Gather; _ } -> "async-gather"
    | Ph_async { stage = `Move; _ } -> "async-move"
    | Ph_rdv _ -> "rdv"
  in
  Printf.sprintf "%s/%s count=%d" state phase
    (Signature.event_count (mem t) ~base:(sig_base t rid))

let create ~config ~program =
  let t = Sched.create ~config ~program in
  if config.Config.detection = Config.Replay then Engine_replay.setup t;
  t

let run ?stop t ~max_cycles =
  if t.cfg.Config.detection = Config.Replay then
    Engine_replay.run ?stop t ~max_cycles
  else Engine_seq.run ?stop t ~max_cycles

let replay_drain t =
  if t.cfg.Config.detection = Config.Replay then Engine_replay.drain t
