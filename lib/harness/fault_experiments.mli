(** Reproduction of the paper's fault-injection experiments (Section V-C).

    Counts are scaled: the paper injects 60k–91k faults per
    configuration; these campaigns default to a few hundred trials so the
    whole bench finishes in minutes. EXPERIMENTS.md records the scaling
    and the shape comparison. *)

val one_trial_for_debug :
  mode:Rcoe_core.Config.mode -> n:int -> seed:int ->
  Rcoe_faults.Outcome.t * int
(** Single x86-campaign trial (exposed for tests and debugging). *)

val table7 : ?trials:int -> variant:[ `X86 | `Arm ] -> unit -> unit
(** Memory fault injection on the running KV server.
    [`X86]: inject into every replica's kernel memory, the shared
    framework region, the primary's user memory, and the DMA buffers; no
    exception-handler barriers (kernel aborts escape as kernel
    exceptions). [`Arm]: inject into all replicas' memory; kernel aborts
    are caught by barriers. Includes the LC-*-N rows (no driver output
    tracing) that show the failure rate exploding when output voting is
    disabled. *)

val table8 : ?trials:int -> unit -> unit
(** Register fault injection on md5sum in a VM: the base system shows
    only crashes and silent corruptions; CC-D controls 100% of errors
    (mostly signature mismatches, a few timeouts). *)

val table9 : ?trials:int -> unit -> unit
(** Overclocking (correlated multi-fault bursts) on the Arm KV setup:
    user-mode errors dominate the base system; LC detects all but a few
    percent, mostly by barrier timeouts; reboots and wedged interrupt
    paths remain externally visible failures. *)

val recovery_trial :
  ?exec_backend:Rcoe_core.Config.exec_backend ->
  checkpointing:bool ->
  fault:[ `Transient | `Persistent ] ->
  seed:int ->
  unit ->
  Rcoe_faults.Outcome.t * int * int * float list
(** Single recovery-campaign trial (exposed for tests): md5sum on CC-D
    with one injected signature corruption. Returns (outcome, rollbacks,
    checkpoints taken, recovery-latency samples). [exec_backend]
    (default [Interp]) selects the execution backend — the
    interp/blocks differential suite runs the same trial on both and
    requires identical results. *)

val replay_recovery_trial :
  ?exec_backend:Rcoe_core.Config.exec_backend ->
  fault:[ `Transient | `Persistent ] ->
  seed:int ->
  unit ->
  Rcoe_faults.Outcome.t * int * int * float list
(** The same trial on an unreplicated primary under replay detection
    (exposed for tests): a checker's chunk verdict detects the
    corruption and the primary rolls back to the chunk's start. Returns
    what {!recovery_trial} returns; checkpoints taken counts chunk
    cuts. *)

val recovery_table : ?trials:int -> unit -> int
(** The fail-stop vs fail-recover comparison: identical DMR
    configurations and faults, with and without a checkpoint ring
    ({!Rcoe_core.Config.checkpoint_every}). Transient signature
    corruptions halt the plain system as [Signature_mismatch]; with
    rollback they finish with correct output as [Recovered]; a
    persistent fault exhausts the budget and still halts. Returns the
    number of uncontrolled trials (0 expected) — the [@faultquick] CI
    gate. *)

val ingress_trial :
  ?exec_backend:Rcoe_core.Config.exec_backend ->
  mode:Rcoe_core.Config.mode ->
  n:int ->
  ingress_check:bool ->
  fault:bool ->
  seed:int ->
  unit ->
  Rcoe_faults.Outcome.t * Loadgen.result
(** One serving trial with (optionally) a bit flipped inside an
    in-flight RX DMA frame — the paper's Table VII residual, outside
    the sphere of replication. Exposed for tests. [exec_backend]
    (default [Interp]) selects the execution backend, for the
    interp/blocks differential suite. *)

val ingress_table : ?trials:int -> unit -> int
(** The DMA-hole coverage flip: identical fault schedules with the
    ingress-checksum path off (silent YCSB corruption — detection by
    replication is structurally impossible) and on (frame dropped
    against RX_CSUM, client retransmission re-delivers; seq-sorted
    outcome digest matches a fault-free reference). Returns the number
    of uncontrolled trials in the checking-on rows' world — nonzero
    only if the path failed to contain a corruption. *)

val ingress_quick : ?seed:int -> unit -> int
(** The @faultquick gate's DMA-corruption leg: one deterministic off/on
    trial pair on CC-D; returns the number of violated expectations
    (0 = the hole demonstrably exists without the path and is closed
    with it). *)

val detection_latency : ?runs:int -> unit -> unit
(** The paper's performance-safety trade-off made explicit (Sections
    III-C and V-B): error-detection latency as a function of the kernel
    timer-tick interval and of the sync level (A: vote at sync points
    only; S: vote on every system call). A fault is injected into a
    replica's signature accumulator at a known cycle; latency is the
    cycles until the vote detects it. *)

val all : quick:bool -> unit
