(** Drive the KV server under a YCSB workload (the paper's Redis
    benchmark rig).

    Plays the load-generator: keeps a window of outstanding requests
    injected into the simulated NIC, drains and validates responses, and
    measures run-phase throughput in operations per simulated second.
    An optional [inject] callback runs between simulation chunks — the
    fault-injection campaigns plug in there. *)

type result = {
  elapsed_cycles : int;  (** Run phase only (load phase excluded). *)
  ops_completed : int;  (** Run-phase completions. *)
  kops_per_sec : float;  (** At the profile's clock frequency. *)
  counters : Rcoe_workloads.Ycsb.counters;
  stalled : bool;  (** The client stopped seeing responses. *)
  sys : Rcoe_core.System.t;
}

val program_for :
  config:Rcoe_core.Config.t ->
  records:int ->
  operations:int ->
  Rcoe_isa.Program.t
(** The exact guest program [run] assembles for this configuration and
    workload size — exposed so front ends can pre-flight it (e.g. the
    footprint analyzer, {!Rcoe_core.Eligibility}) without duplicating
    the sizing arithmetic. *)

val run :
  config:Rcoe_core.Config.t ->
  workload:Rcoe_workloads.Ycsb.workload ->
  records:int ->
  operations:int ->
  ?window:int ->
  ?gen_seed:int ->
  ?chunk:int ->
  ?stall_limit:int ->
  ?max_cycles:int ->
  ?inject:(Rcoe_core.System.t -> unit) ->
  ?stop_on_error:bool ->
  unit ->
  result
(** [config] must have [with_net = true] (it is forced on). [window]
    (default 8) is the outstanding-request budget. [stall_limit]
    (default 3M cycles) bounds how long the client waits without any
    completion before declaring the system unresponsive.
    [stop_on_error] ends the run as soon as the client observes
    corruption or an error (fault campaigns use this). *)
