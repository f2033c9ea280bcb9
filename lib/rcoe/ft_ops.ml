(* FT operations (paper Section IV-A): how a replicated system stages an
   FT_* syscall at its rendezvous — folding the operation's data into
   every live replica's signature and deferring the externally visible
   part to a commit that runs only after a successful vote — and how an
   unreplicated (Base) system performs it directly. Both check ingress
   frames the same way. *)

open Rcoe_machine
open Rcoe_kernel
open State
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics

(* FT operation costs the architecture profile does not cover: a fixed
   kernel path plus a per-word copy or checksum pass. *)
let ft_word_cost = 2
let ft_op_cost = 180

(* Transfer size of an FT operation, for cost accounting. *)
let ft_words num args =
  if num = Syscall.sys_ft_mem_access then max 0 args.(3)
  else if num = Syscall.sys_ft_add_trace || num = Syscall.sys_ft_mem_rep then
    max 0 args.(1)
  else 0

(* Only reads touch the device *before* the vote (the primary has
   already distributed device data); writes commit after a successful
   vote, so a faulty primary can be removed safely. *)
let io_in_flight num args =
  (num = Syscall.sys_ft_mem_access && args.(0) = 0)
  || num = Syscall.sys_ft_mem_rep

type ingress = Unchecked | Verified of int | Dropped of int * int

(* Ingress verification: each consuming replica recomputes the frame
   checksum over the [len]-word DMA buffer at [src] and compares it
   against the NIC's enqueue-time ground truth (RX_CSUM). The replicas
   read the same physical buffer, so the simulation computes the digest
   once and charges each of [replicas] for the pass. A mismatch is a
   detection, accounted here; the caller decides when the NACK that
   makes the client retransmit reaches the device. *)
let check_ingress t replicas ~src ~len =
  if t.cfg.Config.ingress_check && t.net <> None then begin
    Metrics.incr t.ms.m_ingress_checked;
    List.iter (fun r -> charge r (ft_word_cost * len)) replicas;
    let data = Mem.read_block (mem t) src len in
    let got = Rcoe_checksum.Fletcher.frame data in
    let expect = Machine.dev_read t.mach t.net_dpn Netdev.reg_rx_csum in
    if got = expect then Verified got
    else begin
      let id = if Array.length data >= 2 then data.(1) else -1 in
      Metrics.incr t.ms.m_ingress_dropped;
      Trace.ingress_drop t.trace ~id ~expect ~got;
      observe_detection t;
      log_event t (E_ingress_drop id);
      Dropped (expect, got)
    end
  end
  else Unchecked

(* Stage an FT operation: fold its data into every replica's signature and
   return the commit action (externally-visible side effects), which runs
   only after a successful vote — so corrupted output is caught before it
   reaches the device. *)
let ft_stage t num args =
  let sh = shared t in
  let live = live_replicas t in
  let add_sig r ws =
    Array.iter (fun w -> Signature.add_word (mem t) ~base:(sig_base t r.rid) w) ws
  in
  let read_block r ~va ~len =
    try Some (Kernel.read_user_block r.kern ~va ~len)
    with Kernel.User_mem_error _ | Mem.Abort _ -> None
  in
  let set_result r v =
    (Kernel.core r.kern).Core.regs.(0) <- v
  in
  List.iter
    (fun r -> charge r (ft_op_cost + (ft_word_cost * ft_words num args)))
    live;
  if num = Syscall.sys_ft_add_trace then begin
    let va = args.(0) and len = max 0 (min args.(1) 4096) in
    List.iter
      (fun r ->
        match read_block r ~va ~len with
        | Some block -> if t.cfg.Config.trace_output then add_sig r block
        | None -> add_sig r [| -1 |])
      live;
    fun () -> List.iter (fun r -> set_result r 0) live
  end
  else if num = Syscall.sys_ft_mem_access then begin
    let access = args.(0) and mmio_va = args.(1) and va = args.(2) in
    let len = max 0 (min args.(3) Netdev.slot_words) in
    let prim_k = t.replicas.(t.prim).kern in
    match Kernel.translate_mmio prim_k ~va:mmio_va with
    | None -> fun () -> List.iter (fun r -> set_result r (-1)) live
    | Some (dpn, off) ->
        if access = 0 then begin
          (* Read: the primary reads the device once; the values pass
             through the shared scratch area to every replica and every
             signature. *)
          let values =
            Array.init len (fun i -> Machine.dev_read t.mach dpn (off + i))
          in
          Array.iteri
            (fun i v ->
              if i < 32 then Mem.write (mem t) (sh.Layout.scratch_base + i) v)
            values;
          List.iter (fun r -> add_sig r values) live;
          fun () ->
            List.iter
              (fun r ->
                (try Kernel.write_user_block r.kern ~va values
                 with Kernel.User_mem_error _ | Mem.Abort _ -> ());
                set_result r 0)
              live
        end
        else begin
          (* Write: fold every replica's outgoing data; the device write
             (from the then-primary's copy) happens only after the vote. *)
          let blocks =
            List.map (fun r -> (r.rid, read_block r ~va ~len)) live
          in
          List.iter2
            (fun r (_, b) ->
              match b with Some ws -> add_sig r ws | None -> add_sig r [| -1 |])
            live blocks;
          fun () ->
            (match List.assoc_opt t.prim blocks with
            | Some (Some ws) ->
                Array.iteri (fun i v -> Machine.dev_write t.mach dpn (off + i) v) ws
            | Some None | None -> ());
            List.iter (fun r -> set_result r 0) live
        end
  end
  else if num = Syscall.sys_ft_mem_rep then begin
    let va = args.(0)
    and len = max 0 (min args.(1) sh.Layout.inbuf_words)
    and dma_off = max 0 args.(2) in
    let src = t.lay.Layout.dma_base + min dma_off (t.lay.Layout.dma_words - len) in
    let verdict = check_ingress t live ~src ~len in
    match verdict with
    | Dropped (expect, got) ->
        (* The corruption happened outside the sphere of replication, so
           every replica sees the same bad bytes: fold an identical drop
           marker (not the data) so the vote passes — rollback cannot
           repair a buffer no checkpoint covers. Recovery is to NACK the
           frame back to the device at commit and let the client's
           retransmission bridge re-deliver it. *)
        List.iter (fun r -> add_sig r [| -2; expect; got |]) live;
        fun () ->
          Machine.dev_write t.mach t.net_dpn Netdev.reg_rx_nack 1;
          List.iter (fun r -> set_result r 1) live
    | Verified _ | Unchecked ->
        (* The primary's kernel copies the DMA buffer into the shared
           region; every replica's kernel then copies it inward and
           folds it — plus, on the checked path, the verified digest, so
           the vote cross-checks the replicas' views of the ingress
           data. *)
        Mem.blit (mem t) ~src ~dst:sh.Layout.inbuf_base ~len;
        let data = Mem.read_block (mem t) sh.Layout.inbuf_base len in
        List.iter (fun r -> add_sig r data) live;
        (match verdict with
        | Verified digest -> List.iter (fun r -> add_sig r [| digest |]) live
        | _ -> ());
        fun () ->
          List.iter
            (fun r ->
              (try Kernel.write_user_block r.kern ~va data
               with Kernel.User_mem_error _ | Mem.Abort _ -> ());
              set_result r 0)
            live
  end
  else begin
    (* input_wait: pure rendezvous. *)
    fun () -> List.iter (fun r -> set_result r 0) live
  end

(* Base-mode (unreplicated) FT syscalls act directly; a dropped ingress
   frame is NACKed at once. *)
let ft_base t r num args =
  let k = r.kern in
  let set v = (Kernel.core k).Core.regs.(0) <- v in
  charge r (ft_op_cost + (ft_word_cost * ft_words num args));
  if num = Syscall.sys_ft_add_trace || num = Syscall.sys_input_wait then set 0
  else if num = Syscall.sys_ft_mem_access then begin
    let access = args.(0) and mmio_va = args.(1) and va = args.(2) in
    let len = max 0 (min args.(3) Netdev.slot_words) in
    match Kernel.translate_mmio k ~va:mmio_va with
    | None -> set (-1)
    | Some (dpn, off) ->
        (try
           if access = 0 then
             for i = 0 to len - 1 do
               Kernel.write_user k ~va:(va + i) (Machine.dev_read t.mach dpn (off + i))
             done
           else
             for i = 0 to len - 1 do
               Machine.dev_write t.mach dpn (off + i) (Kernel.read_user k ~va:(va + i))
             done;
           set 0
         with Kernel.User_mem_error _ -> set (-1))
  end
  else if num = Syscall.sys_ft_mem_rep then begin
    let va = args.(0)
    and len = max 0 (min args.(1) t.lay.Layout.dma_words)
    and dma_off = max 0 args.(2) in
    let src = t.lay.Layout.dma_base + min dma_off (t.lay.Layout.dma_words - len) in
    match check_ingress t [ r ] ~src ~len with
    | Dropped _ ->
        Machine.dev_write t.mach t.net_dpn Netdev.reg_rx_nack 1;
        set 1
    | Verified _ | Unchecked -> (
        try
          for i = 0 to len - 1 do
            Kernel.write_user k ~va:(va + i) (Mem.read (mem t) (src + i))
          done;
          set 0
        with Kernel.User_mem_error _ -> set (-1))
  end
  else set (-1)
