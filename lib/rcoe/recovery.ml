(* Recovery from a detected error (paper Section IV and its extensions):
   masking by downgrade (TMR -> DMR, with primary re-election), the
   barrier-timeout policy, the signature vote that detects, verified
   checkpoints and rollback, and re-integration of a removed replica.
   Everything here runs at a round boundary, between replica steps. *)

open Rcoe_machine
open Rcoe_kernel
open State
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics

(* Cycle cost of a vote, on top of publishing the signatures. *)
let vote_cost = 140

(* ---------------------------------------------------------------------- *)
(* Downgrade (error masking, Section IV)                                   *)
(* ---------------------------------------------------------------------- *)

let promote_new_primary t new_prim =
  let p = profile t in
  let k = t.replicas.(new_prim).kern in
  (* Scan the page table for DMA-marked pages (the spare-bit trick) and
     re-point them at the real DMA region and device window. *)
  let marked = Kernel.dma_pages_mapped k in
  List.iter (fun (vpn, pte) -> Kernel.map_page ~quiet:true k ~vpn pte) t.dma_plan;
  List.iter (fun (vpn, pte) -> Kernel.map_page ~quiet:true k ~vpn pte) t.mmio_plan;
  (* The primary role includes write access to the shared input-
     replication buffer. *)
  if t.cfg.Config.with_net then map_input_buffer t k ~writable:true;
  t.prim <- new_prim;
  Machine.route_irqs_to t.mach new_prim;
  let cc_factor = if t.cfg.Config.mode = Config.CC then 5 else 1 in
  (Layout.va_pages * p.Arch.pte_scan_cost * cc_factor)
  + (List.length marked * 2000 * cc_factor)
  + 30_000

let downgrade t faulty =
  let r = t.replicas.(faulty) in
  r.state <- Rs_removed;
  r.pending_ft <- None;
  (Kernel.core r.kern).Core.halted <- true;
  let cost =
    if faulty = t.prim then
      let new_prim =
        List.fold_left min max_int (live t)
      in
      promote_new_primary t new_prim
    else (profile t).Arch.removal_cost
  in
  List.iter (fun s -> charge s cost) (live_replicas t);
  tp_end t r;
  Metrics.incr t.ms.m_downgrades;
  Trace.downgrade t.trace ~rid:faulty ~cost;
  observe_detection t;
  t.downgrade_log <- (now t, faulty, cost) :: t.downgrade_log;
  log_event t (E_downgrade faulty)

(* Barrier timeout: halt, or — with the timeout-masking extension (the
   paper's "shut down the straggler's core") — downgrade a single
   straggling replica and let the round continue with the survivors.
   Returns true if the system may continue. *)
let handle_timeout t ~stragglers =
  if
    t.cfg.Config.timeout_masking
    && List.length (live t) >= 3
    && List.length stragglers = 1
  then begin
    log_event t E_timeout;
    downgrade t (List.hd stragglers).rid;
    true
  end
  else begin
    halt_system t H_timeout;
    false
  end

(* Publish every live replica's signature into the shared region. *)
let publish_signatures t =
  List.iter
    (fun r ->
      charge r publish_cost;
      Vote.publish_signature (mem t) (shared t) ~rid:r.rid
        (Signature.read (mem t) ~base:(sig_base t r.rid)))
    (live_replicas t)

(* ---------------------------------------------------------------------- *)
(* Verified checkpoints and rollback recovery                              *)
(* ---------------------------------------------------------------------- *)

(* Snapshot copy stall, charged to every live replica for both capture
   and restore. Cheaper per word than re-integration's partition blit
   (p_words / 8): checkpoints copy far more state far more often, so
   they model a wide DMA/bulk-copy engine, plus a fixed quiesce cost. *)
let ckpt_copy_cost words = (words / 32) + 2_000

(* Charge a capture of [words] copied and [skipped] clean words to
   [replicas] and account it; returns the stall. *)
let charge_capture t replicas ~words ~skipped =
  let cost = ckpt_copy_cost words in
  List.iter (fun r -> charge r cost) replicas;
  Metrics.incr t.ms.m_ckpt_taken;
  Metrics.incr ~by:words t.ms.m_ckpt_words_copied;
  Metrics.incr ~by:skipped t.ms.m_ckpt_words_skipped;
  Metrics.observe t.ms.m_ckpt_cost (float_of_int cost);
  Trace.checkpoint t.trace ~words ~skipped ~cost;
  cost

let take_checkpoint t ck =
  let lv = live_replicas t in
  (* The ring's base must be self-contained, so the first capture is
     always a full copy; after that the configured mode decides. *)
  let kind =
    match t.cfg.Config.checkpoint_mode with
    | Config.Full -> Checkpoint.Full
    | Config.Incremental ->
        if Checkpoint.count ck = 0 then Checkpoint.Full else Checkpoint.Delta
  in
  let snap =
    Checkpoint.capture (mem t) t.lay ~kind ~cycle:(now t)
      ~round_seq:t.round_seq ~ticks:t.ticks ~prim:t.prim
      ~replicas:(List.map (fun r -> (r.rid, r.kern, r.finished)) lv)
  in
  Checkpoint.push ck snap;
  (* A fresh verified snapshot is forward progress: reset escalation. *)
  t.retries_at_newest <- 0;
  t.escalations <- 0;
  ignore
    (charge_capture t lv ~words:(Checkpoint.words snap)
       ~skipped:(Checkpoint.skipped_words snap))

(* Runs at the end of every successfully voted round (the only verified
   quiescent points). *)
let maybe_checkpoint t =
  match t.ckpts with
  | None -> ()
  | Some ck ->
      if t.halt = None && not (finished t) then begin
        t.rounds_since_ckpt <- t.rounds_since_ckpt + 1;
        if t.rounds_since_ckpt >= t.cfg.Config.checkpoint_every then begin
          t.rounds_since_ckpt <- 0;
          take_checkpoint t ck
        end
      end

(* Rewind the whole system to [snap]: memory, kernels, engine clocks and
   roles. Wall-clock cycles never rewind — re-execution is *new* time,
   which is exactly the recovery latency the campaign measures. Returns
   the restore stall charged to the survivors. *)
let perform_rollback t ck (snap : Checkpoint.snap) =
  Array.iter (fun r -> tp_end t r) t.replicas;
  Checkpoint.restore_memory (mem t) t.lay ck snap;
  (* Memory now equals the restored snapshot: it is the baseline the
     next delta capture is relative to. *)
  if t.cfg.Config.checkpoint_mode = Config.Incremental then
    Mem.clear_dirty (mem t);
  (* A replica downgraded *after* the capture comes back: its page
     table and signature live in the restored partition, and the
     restored [s_prim] undoes any promotion since. *)
  List.iter
    (fun (img : Checkpoint.replica_image) ->
      restore_replica t t.replicas.(img.Checkpoint.i_rid)
        img.Checkpoint.i_kernel ~finished:img.Checkpoint.i_finished)
    snap.Checkpoint.s_replicas;
  t.prim <- snap.Checkpoint.s_prim;
  Machine.route_irqs_to t.mach t.prim;
  t.round_seq <- snap.Checkpoint.s_round_seq;
  t.ticks <- snap.Checkpoint.s_ticks;
  t.phase <- Ph_idle;
  t.next_tick <- now t + t.cfg.Config.tick_interval;
  (* Restore writes the whole cut back regardless of how it was
     captured, so the stall scales with the resolved size. *)
  let cost = ckpt_copy_cost (Checkpoint.total_words snap) in
  List.iter (fun r -> charge r cost) (live_replicas t);
  cost

(* Rollback bookkeeping shared by both detection modes: [restore]
   rewinds the system to the recovery point captured at [to_cycle] and
   returns the restore stall. *)
let record_rollback t ~to_cycle restore =
  t.rollbacks_done <- t.rollbacks_done + 1;
  observe_detection t;
  let detected_at = now t in
  let cost = restore () in
  Metrics.incr t.ms.m_rollbacks;
  (* Recovery latency: the re-execution distance plus the restore
     stall. *)
  Metrics.observe t.ms.m_recover_latency
    (float_of_int (detected_at - to_cycle + cost));
  Trace.rollback t.trace ~to_cycle ~cost;
  t.rollback_log <- (detected_at, to_cycle) :: t.rollback_log;
  log_event t (E_rollback to_cycle)

(* Recovery policy: bounded retries with exponential escalation. The
   newest snapshot gets 2^n retries (n = escalations so far) before it
   is discarded as suspect — a fault that struck after the vote but
   before the capture is frozen *inside* it — and recovery falls back
   to the next older one. An exhausted budget or an empty ring means
   the fault is persistent: fail-stop as before. Returns true when the
   system was rolled back and may re-execute. *)
let try_rollback t =
  match t.ckpts with
  | None -> false
  | Some ck ->
      if t.rollbacks_done >= t.cfg.Config.max_rollbacks then false
      else begin
        if t.retries_at_newest >= 1 lsl t.escalations then begin
          Checkpoint.drop_newest ck;
          t.escalations <- t.escalations + 1;
          t.retries_at_newest <- 0
        end;
        match Checkpoint.newest ck with
        | None -> false
        | Some snap ->
            t.retries_at_newest <- t.retries_at_newest + 1;
            record_rollback t ~to_cycle:snap.Checkpoint.s_cycle (fun () ->
                perform_rollback t ck snap);
            true
      end



(* Handle a detected signature mismatch. Returns true if the system may
   continue (successful downgrade), false if it halted — or if it rolled
   back, in which case the round being voted on no longer exists and the
   caller must not complete it. *)
let handle_mismatch t ~io_in_flight =
  let rollback_or_halt reason =
    if not (try_rollback t) then halt_system t reason;
    false
  in
  log_event t E_mismatch;
  let lv = live t in
  if t.cfg.Config.masking && List.length lv >= 3 then
    match Vote.run (mem t) (shared t) ~live:lv with
    | Vote.No_consensus -> rollback_or_halt H_no_consensus
    | Vote.Faulty f when f = t.prim && io_in_flight ->
        rollback_or_halt H_masking_blocked
    | Vote.Faulty f ->
        downgrade t f;
        Vote.signatures_agree (mem t) (shared t) ~live:(live t)
        || rollback_or_halt H_mismatch
  else rollback_or_halt H_mismatch

(* Vote on signatures; on success run [k]; on mismatch try masking and, if
   it succeeds, still run [k] for the survivors. *)
let vote_signatures t ~io_in_flight k =
  Metrics.incr t.ms.m_votes;
  List.iter (fun r -> charge r vote_cost) (live_replicas t);
  publish_signatures t;
  let ok = Vote.signatures_agree (mem t) (shared t) ~live:(live t) in
  if Trace.enabled t.trace then
    List.iter
      (fun r ->
        let count, c0, c1 = Signature.read (mem t) ~base:(sig_base t r.rid) in
        Trace.vote t.trace ~rid:r.rid ~count ~c0 ~c1 ~agree:ok)
      (live_replicas t);
  if ok then k () else if handle_mismatch t ~io_in_flight then k ()

(* ---------------------------------------------------------------------- *)
(* Re-integration (paper Section IV-C, implemented extension)              *)
(* ---------------------------------------------------------------------- *)

let request_reintegration t ~rid =
  if rid < 0 || rid >= Array.length t.replicas then Error "no such replica"
  else if t.replicas.(rid).state <> Rs_removed then
    Error "replica is not removed"
  else if t.halt <> None then Error "system halted"
  else begin
    t.pending_reintegrate <- Some rid;
    Ok ()
  end

(* Runs at the end of an asynchronous round, when every live replica is
   parked at the same logical point: copy a healthy non-primary replica's
   entire partition into the returning replica's partition, rebase its
   page-table frame numbers, and adopt the source's kernel bookkeeping
   and core state. *)
let perform_reintegration t rid =
  let dst = t.replicas.(rid) in
  let src =
    match List.filter (fun r -> r.rid <> t.prim) (live_replicas t) with
    | s :: _ -> s
    | [] -> t.replicas.(t.prim)
  in
  let sp = t.lay.Layout.partitions.(src.rid)
  and dp = t.lay.Layout.partitions.(rid) in
  Mem.blit (mem t) ~src:sp.Layout.p_base ~dst:dp.Layout.p_base
    ~len:(min sp.Layout.p_words dp.Layout.p_words);
  let delta_pages = (dp.Layout.p_base - sp.Layout.p_base) / Layout.page_size in
  let table = { Page_table.base = dp.Layout.pt_base; npages = Layout.va_pages } in
  let src_lo = sp.Layout.p_base / Layout.page_size in
  let src_hi = (sp.Layout.p_base + sp.Layout.p_words) / Layout.page_size in
  for vpn = 0 to Layout.va_pages - 1 do
    let pte = Page_table.get (mem t) table ~vpn in
    if
      pte.Page_table.valid
      && (not pte.Page_table.device)
      && pte.Page_table.ppn >= src_lo
      && pte.Page_table.ppn < src_hi
    then
      Page_table.set (mem t) table ~vpn
        { pte with Page_table.ppn = pte.Page_table.ppn + delta_pages }
  done;
  Kernel.adopt_runtime_from dst.kern ~src:src.kern;
  dst.finished <- src.finished;
  dst.pending_ft <- None;
  dst.joined <- false;
  dst.defer_publish <- false;
  dst.state <- Rs_run;
  (* The copy stalls everyone (a DMA-rate partition copy). *)
  let cost = dp.Layout.p_words / 8 in
  List.iter (fun r -> charge r cost) (live_replicas t);
  Metrics.incr t.ms.m_reintegrations;
  Trace.reintegrate t.trace ~rid ~cost;
  t.reintegration_log <- (now t, rid) :: t.reintegration_log;
  log_event t (E_reintegrate rid)

let maybe_reintegrate t =
  match t.pending_reintegrate with
  | Some rid when t.halt = None && t.replicas.(rid).state = Rs_removed ->
      t.pending_reintegrate <- None;
      perform_reintegration t rid
  | Some _ when t.halt <> None -> t.pending_reintegrate <- None
  | Some _ ->
      (* Not applicable this round (e.g. the replica was revived by a
         rollback before the request could run): keep it pending until
         the replica is removed again or the system halts. *)
      ()
  | None -> ()
