(** The replication scheduler's state, shared by the modules that decide
    what happens to it ([Ft_ops], [Recovery], [Sched], the engines) and
    exposed to the rest of the library only through [System]. The
    records are concrete because those modules mutate them; the field
    comments in [state.ml] say what each one holds. *)

open Rcoe_machine
open Rcoe_kernel
open Rcoe_obs

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

(** Typed handles into the metrics registry. *)
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

val make_metric_set : Metrics.t -> metric_set
(** Register every engine metric in a fresh registry. *)

(** Burst bookkeeping (see [System.fastpath]). *)
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

(** An interrupt delivered at the end of an asynchronous round. *)
type ev = Tick | Dev_irq of int

(** A CC replica's catch-up to the round leader's precise position. *)
type catchup = {
  leader_clock : Clock.t;
  mutable bp_set : bool;
  mutable pmu_active : bool;
  mutable pmu_done : bool;
}

type rstate =
  | Rs_run
  | Rs_gather_wait
  | Rs_chase of int
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
  mutable tr_phase : Trace.sync_phase option;
  mutable arrived_at : int;
  mutable move_started : int;
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

(** A replay chunk boundary: the primary's complete execution point,
    frozen in private copies. *)
type cut_state = {
  cs_cycle : int;
  cs_ticks : int;
  cs_round_seq : int;
  cs_next_tick : int;
  cs_finished : bool;
  cs_kernel : Kernel.snapshot;
  cs_stall : int;
  cs_part : int array;
  cs_shared : int array;
  cs_dma : int array;
  cs_cycles : int;
  cs_instret : int;
  cs_jitter : Rcoe_util.Rng.t;
  cs_bus : Bus.state;
  cs_net : Netdev.snapshot option;
  cs_sig : int;
}

(** A closed replay chunk; immutable, so a checker domain may read it. *)
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
  mmio_plan : (int * Page_table.pte) list;
  dma_plan : (int * Page_table.pte) list;
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
  ckpts : Checkpoint.t option;
  mutable rounds_since_ckpt : int;
  mutable rollbacks_done : int;
  mutable retries_at_newest : int;
  mutable escalations : int;
  mutable rollback_log : (int * int) list;
  metrics : Metrics.t;
  ms : metric_set;
  trace : Trace.t;
  fp : fastpath;
  mutable burst_set : Blockc.t array;
  burst_rid : int array;
  mutable rp : replay option;
}

and inflight = {
  if_chunk : chunk;
  mutable if_domain : bool Domain.t option;
  mutable if_shadow : t option;
}

and replay = {
  rp_log : Inputlog.t;
  rp_span : int;
  mutable rp_seq : int;
  mutable rp_cut : cut_state;
  mutable rp_retrying : bool;
  mutable rp_next_cut : int;
  mutable rp_inflight : inflight list;
  mutable rp_shadows : t list;
  mutable rp_shadows_made : int;
  mutable rp_hwm : int;
  mutable rp_idle_cycles : int;
}

val publish_cost : int
(** Cycles to publish a clock or a signature into the shared region. *)

val now : t -> int
val mem : t -> Mem.t
val profile : t -> Arch.profile
val shared : t -> Layout.shared
val sig_base : t -> int -> int

val live : t -> int list
(** Rids of the replicas not removed by a downgrade, ascending. *)

val live_replicas : t -> replica list

val for_all_live : t -> (t -> replica -> bool) -> bool
(** [p t r] over the live replicas without building a list; pass a closed
    predicate and the call allocates nothing. *)

val finished : t -> bool
(** Every live replica finished, and the system did not halt. *)

val event_count : t -> replica -> int
(** The replica's signature event count. *)

val charge : replica -> int -> unit
(** Add a stall of [n] cycles to the replica's core. *)

val vm_charge : t -> replica -> unit
(** A hypervisor crossing, when the stack runs virtualised. *)

val log_event : t -> event_kind -> unit
val observe_detection : t -> unit
(** Record detection latency since the last fault injection, if any. *)

val halt_system : t -> halt_reason -> unit
(** Fail-stop; the first reason wins. *)

val tp_begin : t -> replica -> Trace.sync_phase -> unit
val tp_end : t -> replica -> unit
(** Open (closing the previous) or close a replica's sync-phase span;
    free while tracing is off. *)

val map_input_buffer : t -> Kernel.t -> writable:bool -> unit
(** Map the shared input-replication buffer into a replica's address
    space; [writable] only for the primary. *)

val restore_replica :
  t -> replica -> Kernel.snapshot -> finished:bool -> unit
(** Restore a replica's kernel from a recovery point and set it running,
    with no round bookkeeping (pending FT op, barrier marks, IPI) left. *)
