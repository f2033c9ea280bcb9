(* Device-footprint verdicts for networked workloads.

   A workload is device-clean when user code never touches
   device-mutated state directly: every interaction with the NIC goes
   through the syscalls (and the CC driver protocol) that the scheduler
   serialises at rendezvous points. This module turns that contract
   into a checkable per-workload verdict: run the
   {!Rcoe_isa.Absint} abstract interpreter over the program, extract
   its {!Rcoe_isa.Footprint}, and reject iff some reachable access may
   overlap a device-owned region — the MMIO window, the DMA receive
   ring, or the shared input-replication buffer. The DMA *transmit*
   staging half is user-writable by design (the primary stages payloads
   there and the doorbell snapshots them), so it stays allowed.

   Base mode is categorically ineligible with a network: its single
   replica executes FT device operations inline, at cycle granularity,
   rather than at rendezvous points. *)

open Rcoe_isa
module Layout = Rcoe_kernel.Layout
module Syscall = Rcoe_kernel.Syscall

type diag = {
  d_addr : int option;  (** Instruction address, when the diagnostic has one. *)
  d_message : string;
}

type verdict = Eligible | Ineligible of diag list

type t = {
  verdict : verdict;
  regions : Footprint.region list;  (** The device-owned regions checked. *)
  n_accesses : int;  (** Reachable data accesses examined. *)
  rounds : int;  (** Interprocedural summary rounds. *)
  host_us : float;  (** Analyzer wall-clock, microseconds. *)
}

let eligible t = match t.verdict with Eligible -> true | Ineligible _ -> false

let diags t = match t.verdict with Eligible -> [] | Ineligible ds -> ds

let describe t =
  match t.verdict with
  | Eligible -> "eligible"
  | Ineligible ds ->
      String.concat "; " (List.map (fun d -> d.d_message) ds)

(* Device-owned regions in the replica virtual address space. All of
   them sit above the data and stack segments, so proving upper bounds
   on addresses is what keeps ordinary workloads eligible. *)
let forbidden_regions lay =
  let rx_words =
    lay.Layout.dma_words / 2 / Rcoe_machine.Netdev.slot_words
    * Rcoe_machine.Netdev.slot_words
  in
  [
    {
      Footprint.rg_name = "MMIO window";
      rg_lo = Layout.va_mmio;
      rg_hi = Layout.va_mmio + Layout.page_size - 1;
    };
    {
      Footprint.rg_name = "DMA RX ring";
      rg_lo = Layout.va_dma;
      rg_hi = Layout.va_dma + rx_words - 1;
    };
    {
      Footprint.rg_name = "shared input window";
      rg_lo = Layout.va_shared_in;
      rg_hi = Layout.va_shared_in + lay.Layout.shared.Layout.inbuf_words - 1;
    };
  ]

(* What the scheduler's [cb_info] callback answers: modelling these as
   constants/small ranges is what lets the analyzer prune the LC
   direct-driver path out of a CC configuration (and vice versa). *)
let syscall_model (config : Config.t) : Absint.syscall_model =
 fun ~sysno ~r0 ->
  if sysno = Syscall.sys_get_info then
    match Absint.to_const r0 with
    | Some 0 | Some 2 -> Absint.mk 0 (config.Config.nreplicas - 1)
    | Some 1 -> Absint.const config.Config.nreplicas
    | Some 3 ->
        Absint.const (if config.Config.mode = Config.CC then 1 else 0)
    | Some 6 ->
        (* Ingress-check flag: modelling it precisely both prunes the
           guest checksum loop out of unchecked configurations and keeps
           the model honest when the loop is live — a blanket 0 here
           would unsoundly prove the checked driver never runs it. *)
        Absint.const (if config.Config.ingress_check then 1 else 0)
    | Some key when key > 5 -> Absint.const 0
    | _ -> Absint.top
  else Absint.top

let check ~config ~program =
  let t0 = Sys.time () in
  let lay =
    Layout.compute ~nreplicas:config.Config.nreplicas
      ~user_words:config.Config.user_words
  in
  let regions = forbidden_regions lay in
  let finish verdict ~n_accesses ~rounds =
    {
      verdict;
      regions;
      n_accesses;
      rounds;
      host_us = (Sys.time () -. t0) *. 1e6;
    }
  in
  if config.Config.mode = Config.Base then
    finish
      (Ineligible
         [
           {
             d_addr = None;
             d_message =
               "Base mode executes FT device operations inline at cycle \
                granularity, not at rendezvous points";
           };
         ])
      ~n_accesses:0 ~rounds:0
  else
    let cfg =
      Cfg.build
        ~exit_syscalls:[ Syscall.sys_exit ]
        ~spawn_syscall:Syscall.sys_spawn program
    in
    (* Thread stacks live in [va_stack_area, stack_top max_threads); the
       exact slot depends on the tid, so seed sp with the whole area. *)
    let init = Array.make Reg.count Absint.top in
    init.(Reg.index Reg.sp) <-
      Absint.mk Layout.va_stack_area (Layout.stack_top ~tid:(Layout.max_threads - 1));
    let r = Absint.analyze ~syscall:(syscall_model config) ~init cfg in
    match r.Absint.diverged with
    | Some a ->
        finish
          (Ineligible
             [
               {
                 d_addr = (if a >= 0 then Some a else None);
                 d_message =
                   Printf.sprintf
                     "abstract interpretation did not stabilise%s — register \
                      bounds unknown"
                     (if a >= 0 then Printf.sprintf " (block at %d)" a else "");
               };
             ])
          ~n_accesses:0 ~rounds:r.Absint.rounds
    | None ->
        let accesses = Footprint.of_result r in
        let viols = Footprint.violations ~forbidden:regions accesses in
        let verdict =
          if viols = [] then Eligible
          else
            Ineligible
              (List.map
                 (fun v ->
                   {
                     d_addr = Some v.Footprint.v_access.Footprint.a_addr;
                     d_message = Footprint.violation_to_string v;
                   })
                 viols)
        in
        finish verdict ~n_accesses:(List.length accesses) ~rounds:r.Absint.rounds
