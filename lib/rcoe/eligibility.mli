(** Device-footprint verdicts for networked workloads.

    A per-workload proof obligation: abstract-interpret the program
    ({!Rcoe_isa.Absint}), extract its memory footprint
    ({!Rcoe_isa.Footprint}), and demand that no reachable access may
    overlap a device-owned region of the replica address space — the
    MMIO window, the DMA receive ring, or the shared input-replication
    buffer. Workloads that interact with the NIC only through the FT
    syscalls (which the scheduler serialises at rendezvous points)
    pass; a raw device-ring load or store fails with
    instruction-address provenance. The DMA transmit staging half is
    user-writable by design and stays allowed.

    Base mode with a network is categorically ineligible: its single
    replica performs device operations inline rather than at
    rendezvous points.

    This is a standalone analysis: {!System.create} does not run it and
    no run path consults its verdict. *)

type diag = {
  d_addr : int option;  (** Instruction address, when the diagnostic has one. *)
  d_message : string;
}

type verdict = Eligible | Ineligible of diag list

type t = {
  verdict : verdict;
  regions : Rcoe_isa.Footprint.region list;
      (** The device-owned regions checked. *)
  n_accesses : int;  (** Reachable data accesses examined. *)
  rounds : int;  (** Interprocedural summary rounds. *)
  host_us : float;  (** Analyzer wall-clock, microseconds. *)
}

val check : config:Config.t -> program:Rcoe_isa.Program.t -> t

val eligible : t -> bool
val diags : t -> diag list
val describe : t -> string
(** ["eligible"], or the diagnostics joined with ["; "]. *)

val forbidden_regions : Rcoe_kernel.Layout.t -> Rcoe_isa.Footprint.region list
(** The device-owned region table, exposed for tests and tooling. *)

val syscall_model : Config.t -> Rcoe_isa.Absint.syscall_model
(** Abstract model of the scheduler's [cb_info] answers ([get_info]):
    replica id and primary in [\[0, n)], replica count, and the driver
    mode constant that prunes the untaken driver path. *)
