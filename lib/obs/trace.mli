(** Cycle-stamped structured execution traces.

    The trade-off analysis of the paper (Sections III-D/F, Tables II-V
    and X) is about *where cycles go*: barrier stalls, debug-exception
    catch-up, VM exits, bus contention, detection latency. A trace
    reifies those phases as typed events in a bounded ring buffer so
    any run can be profiled after the fact — and exported to Perfetto
    via {!Export}.

    A trace object always exists (the engine holds a {!disabled} one
    when tracing is off) so instrumentation sites are uniform. Every
    emitter checks {!enabled} before allocating anything: with tracing
    disabled an emitter call is a load and a branch, and simulated
    cycle counts are bit-identical to an uninstrumented run. *)

type config = { capacity : int  (** Ring size in events; > 0. *) }

(** The per-replica phases of a synchronisation round, in protocol
    order: IPI raised -> barrier joined -> elected/moving -> caught up
    -> voted (paper Section III-B). *)
type sync_phase =
  | Ipi_wait  (** IPI raised, replica not yet at a kernel entry. *)
  | Gather_wait  (** Logical time published; waiting for the others. *)
  | Chase  (** LC follower running to the leader's event count. *)
  | Catchup  (** CC follower breakpointing to the leader's position. *)
  | Pmu_catchup  (** CC fast catch-up: running to a PMU overflow. *)
  | Vote_wait  (** Arrived at the final barrier; waiting for the vote. *)
  | Rendezvous  (** Parked at an FT-operation rendezvous. *)

val sync_phase_name : sync_phase -> string

type body =
  | Phase_begin of sync_phase
  | Phase_end of sync_phase
  | Round_begin of int  (** Machine scope; argument is the round seq. *)
  | Round_end of int
  | Syscall of { num : int; name : string; cost : int }
      (** Kernel entry/exit: dispatch of one syscall, [cost] cycles. *)
  | Preempt of { tid : int }  (** Preemption-tick context switch. *)
  | Fault of { kind : string }  (** Kernel fault handling. *)
  | Bp_fire  (** Debug unit: global instruction breakpoint hit. *)
  | Single_step  (** Catch-up stepped past the breakpoint (resume flag). *)
  | Rep_step  (** Rep-string step-past before publishing (Sec. III-D). *)
  | Vm_exit  (** Hypervisor crossing when the stack runs virtualised. *)
  | Ipi of { target : int }  (** Machine scope: IPI raised to a core. *)
  | Dev_irq of { dpn : int }  (** Machine scope: device IRQ accepted. *)
  | Bus_stall of { cycles : int }
      (** A run of cycles the core spent without a bus token. *)
  | Vote of { count : int; c0 : int; c1 : int; agree : bool }
      (** A signature vote: the replica's three words and the outcome. *)
  | Injection of { addr : int; bit : int }  (** Fault-injector flip. *)
  | Downgrade of { rid : int; cost : int }  (** TMR->DMR masking span. *)
  | Reintegrate of { rid : int; cost : int }  (** Re-admission span. *)
  | Checkpoint of { words : int; skipped : int; cost : int }
      (** Machine scope: verified-checkpoint capture span. [words] is
          what the capture copied; [skipped] is what an incremental
          capture avoided copying (0 for a full capture). *)
  | Rollback of { to_cycle : int; cost : int }
      (** Machine scope: recovery rewind to the checkpoint captured at
          [to_cycle]; [cost] is the state-restore stall charged. *)
  | Ingress_drop of { id : int; expect : int; got : int }
      (** Machine scope: an RX frame failed ingress-checksum
          verification at consume and was dropped/NACKed for client
          retransmission. [id] is the request sequence id parsed from
          the (corrupt) frame, or [-1] when unparseable; [expect]/[got]
          are the enqueue-time and recomputed checksums. *)
  | Replay_cut of { seq : int }
      (** Machine scope: replay detection closed chunk [seq] at this
          cycle and queued it for verification. *)
  | Replay_verdict of { seq : int; chunk_end : int; lag : int; ok : bool }
      (** Machine scope: chunk [seq]'s replay verdict was processed.
          [chunk_end] is the cycle the chunk's execution completed on
          the primary; [lag] is the detection lag ([ts - chunk_end]) —
          the window during which a fault inside the chunk was present
          but undetected. *)

type event = {
  ts : int;  (** Machine cycle at emission. *)
  rid : int;  (** Replica/core id, or [-1] for machine-scope events. *)
  body : body;
}

type t

val create : config -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val disabled : unit -> t
(** A trace that records nothing; emitters return immediately. *)

val enabled : t -> bool
val capacity : t -> int

val set_clock : t -> (unit -> int) -> unit
(** Install the timestamp source (the machine's cycle counter).
    {!Rcoe_machine.Machine.create} does this automatically. *)

val now : t -> int
(** The clock's current value (0 before [set_clock]). *)

(** {2 Emitters} — all no-ops (and allocation-free) when disabled. *)

val phase_begin : t -> rid:int -> sync_phase -> unit
val phase_end : t -> rid:int -> sync_phase -> unit
val round_begin : t -> seq:int -> unit
val round_end : t -> seq:int -> unit
val syscall : t -> rid:int -> num:int -> name:string -> cost:int -> unit
val preempt : t -> rid:int -> tid:int -> unit
val fault : t -> rid:int -> kind:string -> unit
val bp_fire : t -> rid:int -> unit
val single_step : t -> rid:int -> unit
val rep_step : t -> rid:int -> unit
val vm_exit : t -> rid:int -> unit
val ipi : t -> target:int -> unit
val dev_irq : t -> dpn:int -> unit
val bus_stall : t -> rid:int -> cycles:int -> unit
val vote : t -> rid:int -> count:int -> c0:int -> c1:int -> agree:bool -> unit
val downgrade : t -> rid:int -> cost:int -> unit
val reintegrate : t -> rid:int -> cost:int -> unit
val checkpoint : t -> words:int -> skipped:int -> cost:int -> unit
val rollback : t -> to_cycle:int -> cost:int -> unit
val ingress_drop : t -> id:int -> expect:int -> got:int -> unit

val replay_cut : t -> seq:int -> unit

val replay_verdict :
  t -> seq:int -> chunk_end:int -> lag:int -> ok:bool -> unit

val injection : t -> addr:int -> bit:int -> unit
(** Also records the injection cycle (see {!last_injection}) even when
    the ring is disabled, so detection latency can be measured without
    paying for a full trace. *)

(** {2 Reading the ring} *)

val events : t -> event list
(** Oldest first. At most [capacity] events; when the ring wrapped,
    these are the newest [capacity]. *)

val events_since : t -> int -> event list
(** [events_since t n] with [n] a previously observed {!total}: the
    events emitted after that point, oldest first — O(result), not
    O(capacity), so a harness can poll incrementally from a hot loop.
    When more than [capacity] events arrived since [n], only the newest
    [capacity] survive (the caller can detect the gap by comparing
    [total t - n] with the result length). *)

val total : t -> int
(** Events emitted over the trace's lifetime (recorded + dropped). *)

val dropped : t -> int
(** Events overwritten by ring wrap-around. *)

val last_injection : t -> int option
(** Cycle of the most recent {!injection}, if not yet consumed. *)

val clear_last_injection : t -> unit
