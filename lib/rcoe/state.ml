(* The replication scheduler's state: the system record, the per-replica
   and replay-pipeline records it holds, and the small helpers every
   decision module shares (cost charging, event logging, halting,
   sync-phase trace spans). The decisions live above it: [Ft_ops]
   stages FT_* I/O, [Recovery] masks or rolls back a detected error,
   [Sched] runs rounds and steps replicas, and [Engine_replay] cuts and
   restores replay chunks. *)

open Rcoe_machine
open Rcoe_kernel
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics

type halt_reason =
  | H_mismatch
  | H_no_consensus
  | H_timeout
  | H_kernel_exception of string
  | H_masking_blocked


type event_kind =
  | E_user_fault of int
  | E_kernel_abort of int
  | E_mismatch
  | E_timeout
  | E_downgrade of int
  | E_reintegrate of int
  | E_rollback of int
  | E_ingress_drop of int

(* Typed handles into the metrics registry; [System.stats] rebuilds its
   record from these on demand, so callers of [stats] are unaffected by
   the registry having become the source of truth. *)
type metric_set = {
  m_ticks : Metrics.counter;
  m_rounds : Metrics.counter;
  m_votes : Metrics.counter;
  m_ipis : Metrics.counter;
  m_bp_fires : Metrics.counter;
  m_ft_rounds : Metrics.counter;
  m_rendezvous : Metrics.counter;
  m_vm_exits : Metrics.counter;
  m_single_steps : Metrics.counter;
  m_rep_steps : Metrics.counter;
  m_downgrades : Metrics.counter;
  m_reintegrations : Metrics.counter;
  m_rollbacks : Metrics.counter;
  m_ckpt_taken : Metrics.counter;
  m_ckpt_words_copied : Metrics.counter;
  m_ckpt_words_skipped : Metrics.counter;
  m_ingress_checked : Metrics.counter;
  m_ingress_dropped : Metrics.counter;
  m_catchup_dist : Metrics.histogram;
  m_catchup_cycles : Metrics.histogram;
  m_barrier_wait : Metrics.histogram;
  m_detect_latency : Metrics.histogram;
  m_ckpt_cost : Metrics.histogram;
  m_recover_latency : Metrics.histogram;
  m_replay_chunks : Metrics.counter;
  m_replay_verified : Metrics.counter;
  m_replay_mismatch : Metrics.counter;
  m_replay_lag : Metrics.histogram;
}

let make_metric_set reg =
  {
    m_ticks = Metrics.counter reg "kernel.ticks_delivered";
    m_rounds = Metrics.counter reg "sync.rounds";
    m_votes = Metrics.counter reg "sync.votes";
    m_ipis = Metrics.counter reg "sync.ipis";
    m_bp_fires = Metrics.counter reg "catchup.bp_fires";
    m_ft_rounds = Metrics.counter reg "sync.ft_rounds";
    m_rendezvous = Metrics.counter reg "sync.rendezvous";
    m_vm_exits = Metrics.counter reg "vm.exits";
    m_single_steps = Metrics.counter reg "catchup.single_steps";
    m_rep_steps = Metrics.counter reg "catchup.rep_steps";
    m_downgrades = Metrics.counter reg "mask.downgrades";
    m_reintegrations = Metrics.counter reg "mask.reintegrations";
    m_rollbacks = Metrics.counter reg "mask.rollbacks";
    m_ckpt_taken = Metrics.counter reg "ckpt.taken";
    m_ckpt_words_copied = Metrics.counter reg "ckpt.words_copied";
    m_ckpt_words_skipped = Metrics.counter reg "ckpt.words_skipped";
    m_ingress_checked = Metrics.counter reg "net.ingress_checked";
    m_ingress_dropped = Metrics.counter reg "net.ingress_dropped";
    m_catchup_dist =
      Metrics.histogram reg "catchup.distance_branches"
        ~buckets:[ 1.; 8.; 32.; 128.; 512.; 2048.; 8192. ];
    m_catchup_cycles =
      Metrics.histogram reg "catchup.cycles"
        ~buckets:[ 100.; 1000.; 10_000.; 100_000. ];
    m_barrier_wait =
      Metrics.histogram reg "sync.barrier_wait_cycles"
        ~buckets:[ 100.; 1000.; 10_000.; 100_000. ];
    m_detect_latency =
      Metrics.histogram reg "detect.latency_cycles"
        ~buckets:[ 1000.; 10_000.; 100_000.; 1_000_000. ];
    m_ckpt_cost =
      Metrics.histogram reg "ckpt.cost_cycles"
        ~buckets:[ 10_000.; 30_000.; 100_000.; 300_000. ];
    m_recover_latency =
      Metrics.histogram reg "recover.latency_cycles"
        ~buckets:[ 10_000.; 100_000.; 1_000_000.; 10_000_000. ];
    m_replay_chunks = Metrics.counter reg "replay.chunks";
    m_replay_verified = Metrics.counter reg "replay.chunks_verified";
    m_replay_mismatch = Metrics.counter reg "replay.mismatches";
    m_replay_lag =
      Metrics.histogram reg "replay.lag_cycles"
        ~buckets:[ 10_000.; 50_000.; 200_000.; 1_000_000. ];
  }

(* Fast-path bookkeeping: how much simulated time [Sched.burst_cycles]
   covered and why each burst ended or was declined. Host-side
   diagnostics, deliberately outside the metrics registry (a burst is
   not a simulated event: the Interp oracle never bursts), but a pure
   function of the simulation, so equal inputs give equal counts. *)
type fastpath = {
  mutable bursts : int;
  mutable burst_cycles : int;
  mutable classic_cycles : int;
  mutable end_event : int;
  mutable end_tick : int;
  mutable end_device : int;
  mutable end_ipi : int;
  mutable end_budget : int;
  mutable declined_phase : int;
  mutable declined_state : int;
  mutable declined_window : int;
}

(* Pending events delivered at the end of an asynchronous round. *)
type ev = Tick | Dev_irq of int

type catchup = {
  leader_clock : Clock.t;
  mutable bp_set : bool;
  mutable pmu_active : bool;
      (* Fast catch-up: running freely towards a PMU overflow target. *)
  mutable pmu_done : bool;
}

type rstate =
  | Rs_run
  | Rs_gather_wait
  | Rs_chase of int (* LC: target event count *)
  | Rs_catchup of catchup
  | Rs_vote_wait
  | Rs_rendezvous
  | Rs_halted
  | Rs_removed

type replica = {
  rid : int;
  kern : Kernel.t;
  mutable state : rstate;
  mutable finished : bool;
  mutable pending_ft : (int * int array) option;
  mutable joined : bool;
  mutable defer_publish : bool;
  (* Trace/metrics bookkeeping; [tr_phase] is only ever set while the
     trace is enabled, so the helpers below are free when it is not. *)
  mutable tr_phase : Trace.sync_phase option;
  mutable arrived_at : int;  (* cycle of final-barrier arrival, -1 = n/a *)
  mutable move_started : int;  (* cycle catch-up began, -1 = n/a *)
}

type phase =
  | Ph_idle
  | Ph_async of async_round
  | Ph_rdv of { mutable rdv_started : int }

and async_round = {
  events : ev list;
  mutable stage : [ `Gather | `Move ];
  mutable round_started : int;
}

(* ---------------------------------------------------------------------- *)
(* Replay-based detection (RepTFD) pipeline state                          *)
(* ---------------------------------------------------------------------- *)

(* A chunk cut: everything a shadow machine needs to restart execution
   at this exact point, bit for bit, and the one recovery point the
   primary rolls back to. Besides the replicated memory and kernel it
   freezes the outside-SoR state a lockstep checkpoint deliberately
   does not capture — device queues, the floating-point bus credit, the
   jitter RNG — which a replayed chunk needs to re-live the *same* time.
   All arrays are private copies taken on the primary's domain, so
   checker domains share nothing mutable with it. *)
type cut_state = {
  cs_cycle : int;
  cs_ticks : int;
  cs_round_seq : int;
  cs_next_tick : int;
  cs_finished : bool;
  cs_kernel : Kernel.snapshot;  (* taken after the cut's stall charge *)
  cs_stall : int;  (* that charge: a rollback to the cut does not repay it *)
  cs_part : int array;  (* primary partition image *)
  cs_shared : int array;
  cs_dma : int array;
  cs_cycles : int;  (* core active-cycle / instret counters *)
  cs_instret : int;
  cs_jitter : Rcoe_util.Rng.t;  (* private copy of the core's jitter RNG *)
  cs_bus : Bus.state;
  cs_net : Netdev.snapshot option;
  cs_sig : int;  (* Fletcher digest over partition ++ shared *)
}

(* A closed chunk: start state, the host inputs absorbed while it ran,
   and the end state to compare a replay against. Immutable once built,
   so it can be handed to a checker domain without synchronisation. *)
type chunk = {
  ch_seq : int;
  ch_start : cut_state;
  ch_log : Inputlog.event list;
  ch_end : cut_state;
}

type t = {
  cfg : Config.t;
  mach : Machine.t;
  lay : Layout.t;
  lint : Rcoe_isa.Lint.report;
  replicas : replica array;
  net : Netdev.t option;
  net_dpn : int;
  mmio_plan : (int * Page_table.pte) list; (* primary-role MMIO PTEs *)
  dma_plan : (int * Page_table.pte) list; (* primary-role DMA-window PTEs *)
  mutable prim : int;
  mutable phase : phase;
  mutable next_tick : int;
  mutable ticks : int;
  mutable halt : halt_reason option;
  mutable downgrade_log : (int * int * int) list;
  mutable event_log : (int * event_kind) list;
  mutable round_seq : int;
  mutable after_save : (rid:int -> tid:int -> ctx_addr:int -> unit) option;
  mutable pending_reintegrate : int option;
  mutable reintegration_log : (int * int) list;
  mutable event_log_len : int;
  (* Rollback recovery. The ring exists only when checkpointing is
     configured; all bookkeeping below is dead weight otherwise. *)
  ckpts : Checkpoint.t option;
  mutable rounds_since_ckpt : int;
  mutable rollbacks_done : int;
  mutable retries_at_newest : int;
  mutable escalations : int;
  mutable rollback_log : (int * int) list; (* (detected_at, to_cycle) *)
  metrics : Metrics.t;
  ms : metric_set;
  trace : Trace.t;
  fp : fastpath;
  (* Reused by [Sched.burst_cycles]: the block caches of the replicas a
     burst steps, in rid order, and their rids. [burst_set] is sized on
     the first burst (it needs a cache to fill with). *)
  mutable burst_set : Rcoe_machine.Blockc.t array;
  burst_rid : int array;
  (* Replay-based detection pipeline, set by [Engine_replay.setup]:
     [Some] iff [cfg.detection = Replay]. Types are mutually recursive with [t]
     because checkers verify chunks against full shadow *systems*. *)
  mutable rp : replay option;
}

(* An in-flight chunk: queued for (or undergoing) verification.
   [if_domain]/[if_shadow] are only ever touched on the primary's
   domain; the checker domain sees just the immutable chunk and its
   private shadow system. *)
and inflight = {
  if_chunk : chunk;
  mutable if_domain : bool Domain.t option;
  mutable if_shadow : t option;
}

(* The primary-side pipeline: the accumulating chunk's start state, the
   bounded in-flight queue (oldest first), and a pool of reusable
   shadow systems ([Engine_replay] creates them lazily — creation runs
   program lint and layout, too costly per chunk). All fields are
   primary-domain-only; the only cross-domain traffic is the immutable
   chunk handed to [Domain.spawn] and the [bool] verdict joined back. *)
and replay = {
  rp_log : Inputlog.t;
  rp_span : int;  (* nominal chunk length, cycles *)
  mutable rp_seq : int;  (* sequence number of the accumulating chunk *)
  mutable rp_cut : cut_state;  (* its start *)
  mutable rp_retrying : bool;  (* rolled back since the last verified chunk *)
  mutable rp_next_cut : int;  (* tick count that triggers the next cut *)
  mutable rp_inflight : inflight list;  (* oldest first *)
  mutable rp_shadows : t list;  (* idle shadow systems *)
  mutable rp_shadows_made : int;
  mutable rp_hwm : int;  (* in-flight queue high-water mark *)
  mutable rp_idle_cycles : int;  (* checker idle, simulated cycles *)
}

(* The notable-events list is bounded: campaigns run for millions of
   cycles and the old unbounded list grew without limit. Truncation is
   amortised — the newest [event_log_cap] entries (the list prefix) are
   kept once the list doubles past the cap. *)
let event_log_cap = 2048

(* Cycle cost of publishing a clock or signature into the shared
   region. *)
let publish_cost = 60

let now t = t.mach.Machine.now

let sig_base t rid = t.lay.Layout.partitions.(rid).Layout.sig_base

let is_live r = match r.state with Rs_removed -> false | _ -> true

let live t =
  Array.fold_right
    (fun r acc -> if is_live r then r.rid :: acc else acc)
    t.replicas []

let live_replicas t = List.filter is_live (Array.to_list t.replicas)

(* [p t r] over the live replicas, in rid order, without building a
   list: the round-lifecycle checks below run on every cycle of a
   round. Pass closed predicates (they take [t] as an argument) so the
   call allocates no closure either. *)
let for_all_live t p =
  let rs = t.replicas in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length rs do
    let r = Array.unsafe_get rs !i in
    if is_live r && not (p t r) then ok := false;
    incr i
  done;
  !ok

let finished t =
  match t.halt with
  | Some _ -> false
  | None -> for_all_live t (fun _ r -> r.finished)

let log_event t k =
  t.event_log <- (now t, k) :: t.event_log;
  t.event_log_len <- t.event_log_len + 1;
  if t.event_log_len > 2 * event_log_cap then begin
    t.event_log <- List.filteri (fun i _ -> i < event_log_cap) t.event_log;
    t.event_log_len <- event_log_cap
  end

(* Detection latency (paper Fig. 3): cycles from the most recent fault
   injection to the moment the system reacts (halt or downgrade). The
   injection mark survives a disabled trace ring, so campaigns measure
   latency without paying for tracing. *)
let observe_detection t =
  match Trace.last_injection t.trace with
  | Some injected_at ->
      Metrics.observe t.ms.m_detect_latency
        (float_of_int (now t - injected_at));
      Trace.clear_last_injection t.trace
  | None -> ()

let halt_system t reason =
  if t.halt = None then begin
    t.halt <- Some reason;
    match reason with
    | H_timeout ->
        observe_detection t;
        log_event t E_timeout
    | H_mismatch | H_no_consensus | H_masking_blocked ->
        observe_detection t;
        log_event t E_mismatch
    | H_kernel_exception _ -> ()
  end

let mem t = t.mach.Machine.mem
let profile t = t.mach.Machine.profile
let shared t = t.lay.Layout.shared

let event_count t r = Signature.event_count (mem t) ~base:(sig_base t r.rid)

let charge r n = Core.add_stall (Kernel.core r.kern) n

let vm_charge t r =
  if t.cfg.Config.vm then begin
    charge r (profile t).Arch.vm_exit_cost;
    Metrics.incr t.ms.m_vm_exits;
    Trace.vm_exit t.trace ~rid:r.rid
  end

(* Per-replica sync-phase spans. A new phase closes the previous one,
   so each replica carries at most one open span; [tr_phase] is only set
   while tracing, keeping both helpers free otherwise. *)
let tp_end t r =
  match r.tr_phase with
  | Some ph ->
      Trace.phase_end t.trace ~rid:r.rid ph;
      r.tr_phase <- None
  | None -> ()

let tp_begin t r ph =
  if Trace.enabled t.trace then begin
    tp_end t r;
    Trace.phase_begin t.trace ~rid:r.rid ph;
    r.tr_phase <- Some ph
  end


(* The shared input-replication buffer: the same physical pages in every
   replica, writable by the primary only (it performs the user-mode
   input copies). *)
let map_input_buffer t k ~writable =
  let page = Layout.page_size in
  let sh = t.lay.Layout.shared in
  for i = 0 to (sh.Layout.inbuf_words / page) - 1 do
    Kernel.map_page ~quiet:true k
      ~vpn:((Layout.va_shared_in / page) + i)
      {
        Page_table.valid = true;
        writable;
        dma = false;
        device = false;
        ppn = (sh.Layout.inbuf_base / page) + i;
      }
  done

(* Put replica [r] back to running from a recovery point: its kernel
   image [snap], its [finished] flag as captured, and none of the round
   bookkeeping it held when the recovery was decided. *)
let restore_replica t r snap ~finished =
  Kernel.restore r.kern snap;
  r.finished <- finished;
  r.pending_ft <- None;
  r.joined <- false;
  r.defer_publish <- false;
  r.arrived_at <- -1;
  r.move_started <- -1;
  r.state <- Rs_run;
  Machine.clear_ipi t.mach ~core_id:r.rid
