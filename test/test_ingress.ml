(* The server-side DMA-hole closure: RX_CSUM ground truth at the
   device, NACK/quarantine slot re-arm semantics (the wedged-ring
   regression), and the end-to-end fault campaign through
   [Fault_experiments.ingress_trial] — the same DMA-buffer flip is
   silent client-visible corruption with the checksum path off and a
   detected, redelivered, digest-preserving drop with it on. *)

open Rcoe_machine
open Rcoe_harness
module Fletcher = Rcoe_checksum.Fletcher
module Config = Rcoe_core.Config
module Outcome = Rcoe_faults.Outcome
module Ycsb = Rcoe_workloads.Ycsb

(* A small ring (2 slots) makes the quarantine interlock observable:
   one NACK leaves zero free slots, so any premature re-arm would
   immediately overwrite the frame the driver still believes is head. *)
let mk_net ?(dma_words = 4 * Netdev.slot_words) () =
  let m =
    Machine.create ~profile:Arch.x86 ~mem_words:16384 ~ncores:1 ~seed:1 ()
  in
  let nd = Netdev.create ~mem:m.Machine.mem ~dma_base:8192 ~dma_words in
  (m, nd)

let tick nd ~now = (Netdev.device nd).Device.dev_tick ~now
let rreg nd r = (Netdev.device nd).Device.read_reg r
let wreg nd r v = (Netdev.device nd).Device.write_reg r v

let test_rx_csum_ground_truth () =
  let _, nd = mk_net () in
  let p1 = [| 0x5251; 7; 1; 42; 99 |] in
  let p2 = [| 0x5251; 8; 0; 43 |] in
  Netdev.inject nd ~now:0 p1;
  Netdev.inject nd ~now:0 p2;
  tick nd ~now:1;
  Alcotest.(check int) "two pending" 2 (rreg nd Netdev.reg_rx_count);
  Alcotest.(check int) "head csum is the enqueue-time Fletcher digest"
    (Fletcher.frame p1)
    (rreg nd Netdev.reg_rx_csum);
  Alcotest.(check int) "one verification counted" 1 (Netdev.rx_csum_reads nd);
  wreg nd Netdev.reg_rx_consume 1;
  Alcotest.(check int) "csum register tracks the new head"
    (Fletcher.frame p2)
    (rreg nd Netdev.reg_rx_csum);
  match Netdev.head_rx nd with
  | None -> Alcotest.fail "head vanished"
  | Some (_, len) -> Alcotest.(check int) "head len" (Array.length p2) len

let test_nack_quarantine_blocks_rearm () =
  let m, nd = mk_net ~dma_words:(4 * Netdev.slot_words) () in
  (* Ring = 2 slots. Fill both, keep a third frame queued host-side. *)
  let p1 = [| 1; 11; 111 |] and p2 = [| 2; 22; 222 |] in
  let p3 = [| 3; 33; 333 |] in
  Netdev.inject nd ~now:0 p1;
  Netdev.inject nd ~now:0 p2;
  Netdev.inject nd ~now:0 p3;
  for t = 1 to 4 do
    tick nd ~now:t
  done;
  Alcotest.(check int) "ring full" 2 (rreg nd Netdev.reg_rx_count);
  Alcotest.(check int) "third frame waits host-side" 1
    (Netdev.pending_host_packets nd);
  let base, _ = Netdev.rx_region_bounds nd in
  let head_off, head_len =
    match Netdev.head_rx nd with
    | Some (o, l) -> (o, l)
    | None -> Alcotest.fail "no head"
  in
  (* Drop the head. Its slot is quarantined: the queued frame must NOT
     be delivered into it before the driver observes the drop, or a
     driver mid-drop would read the ring head over freshly DMA'd bytes
     (the wedged-ring regression this test pins). *)
  wreg nd Netdev.reg_rx_nack 1;
  Alcotest.(check int) "nack counted" 1 (Netdev.rx_nacked nd);
  (* NB: observed via [head_rx], not RX_COUNT — the RX_COUNT read is
     itself the driver's observation point that releases the
     quarantine. *)
  Alcotest.(check bool) "head popped" true
    (Netdev.head_rx nd <> Some (head_off, head_len));
  for t = 5 to 9 do
    tick nd ~now:t
  done;
  Alcotest.(check int) "queued frame still held back" 1
    (Netdev.pending_host_packets nd);
  Alcotest.(check (array int))
    "quarantined slot bytes intact until the driver observes the drop"
    p1
    (Mem.read_block m.Machine.mem (base + head_off) head_len);
  (* The driver's next RX_COUNT read (its drain-loop re-poll) is the
     observation point: the slot re-arms and delivery resumes. *)
  ignore (rreg nd Netdev.reg_rx_count);
  for t = 10 to 12 do
    tick nd ~now:t
  done;
  Alcotest.(check int) "delivery resumed after re-arm" 2
    (rreg nd Netdev.reg_rx_count);
  Alcotest.(check int) "host queue drained" 0 (Netdev.pending_host_packets nd)

let test_next_event_quiescent_when_quarantined () =
  let _, nd = mk_net ~dma_words:(4 * Netdev.slot_words) () in
  Netdev.inject nd ~now:0 [| 1 |];
  Netdev.inject nd ~now:0 [| 2 |];
  Netdev.inject nd ~now:0 [| 3 |];
  for t = 1 to 4 do
    tick nd ~now:t
  done;
  (Netdev.device nd).Device.irq_ack ();
  wreg nd Netdev.reg_rx_nack 1;
  wreg nd Netdev.reg_rx_nack 1;
  (* Both slots quarantined, a frame still queued: the device cannot
     act until the driver re-polls, so it must report quiescence (the
     Blocks burst would otherwise stop short of a phantom wakeup). *)
  Alcotest.(check (option int)) "quiescent while fully quarantined" None
    (Netdev.next_event nd ~after:10);
  ignore (rreg nd Netdev.reg_rx_count);
  Alcotest.(check bool) "wakeup returns once the slots re-arm" true
    (Netdev.next_event nd ~after:10 <> None)

let test_repeated_nack_oldest_first () =
  let m, nd = mk_net ~dma_words:(4 * Netdev.slot_words) () in
  let p1 = [| 9; 91 |] and p2 = [| 8; 82 |] in
  Netdev.inject nd ~now:0 p1;
  Netdev.inject nd ~now:0 p2;
  for t = 1 to 3 do
    tick nd ~now:t
  done;
  wreg nd Netdev.reg_rx_nack 1;
  wreg nd Netdev.reg_rx_nack 1;
  Alcotest.(check int) "both dropped" 2 (Netdev.rx_nacked nd);
  Alcotest.(check int) "ring empty" 0 (rreg nd Netdev.reg_rx_count);
  (* Re-arm and redeliver: the retransmitted frames must land oldest
     slot first, reproducing the FIFO order a healthy ring uses. *)
  ignore (rreg nd Netdev.reg_rx_count);
  Netdev.inject nd ~now:4 p1;
  Netdev.inject nd ~now:4 p2;
  for t = 5 to 8 do
    tick nd ~now:t
  done;
  Alcotest.(check int) "both redelivered" 2 (rreg nd Netdev.reg_rx_count);
  let base, _ = Netdev.rx_region_bounds nd in
  match Netdev.head_rx nd with
  | None -> Alcotest.fail "no head after redelivery"
  | Some (off, len) ->
      Alcotest.(check (array int)) "head is the older frame" p1
        (Mem.read_block m.Machine.mem (base + off) len)

(* --- end-to-end campaign ------------------------------------------------ *)

let test_campaign_off_silent_corruption () =
  let outcome, res =
    Fault_experiments.ingress_trial ~mode:Config.CC ~n:2 ~ingress_check:false
      ~fault:true ~seed:3 ()
  in
  Alcotest.(check bool) "fault landed" true res.Loadgen.fault_fired;
  Alcotest.(check int) "nothing checked" 0 res.Loadgen.ingress_checked;
  Alcotest.(check int) "nothing dropped" 0 res.Loadgen.ingress_dropped;
  Alcotest.(check bool) "corruption reached the client" true
    (res.Loadgen.counters.Ycsb.corrupted > 0);
  Alcotest.(check string) "classified as the paper's YCSB corruption"
    (Outcome.to_string Outcome.Ycsb_corruption)
    (Outcome.to_string outcome);
  Alcotest.(check bool) "and it is uncontrolled" false
    (Outcome.controlled outcome)

let test_campaign_on_detects_and_recovers () =
  let ref_outcome, refr =
    Fault_experiments.ingress_trial ~mode:Config.CC ~n:2 ~ingress_check:true
      ~fault:false ~seed:1 ()
  in
  Alcotest.(check string) "reference run clean"
    (Outcome.to_string Outcome.No_error)
    (Outcome.to_string ref_outcome);
  let outcome, res =
    Fault_experiments.ingress_trial ~mode:Config.CC ~n:2 ~ingress_check:true
      ~fault:true ~seed:3 ()
  in
  Alcotest.(check bool) "fault landed" true res.Loadgen.fault_fired;
  Alcotest.(check bool) "frame dropped at ingress" true
    (res.Loadgen.ingress_dropped >= 1);
  Alcotest.(check bool) "client redelivered it" true
    (res.Loadgen.redelivered >= 1);
  Alcotest.(check int) "no corruption escaped" 0
    res.Loadgen.counters.Ycsb.corrupted;
  Alcotest.(check bool) "service completed" false res.Loadgen.stalled;
  Alcotest.(check string) "classified as a controlled ingress drop"
    (Outcome.to_string Outcome.Ingress_dropped)
    (Outcome.to_string outcome);
  Alcotest.(check bool) "controlled" true (Outcome.controlled outcome);
  (* Drop-and-redeliver reorders completions but not results: the
     seq-sorted outcome digest matches the fault-free reference. *)
  Alcotest.(check int) "all requests answered" refr.Loadgen.completed
    res.Loadgen.completed;
  Alcotest.(check int) "outcome digest equals the fault-free run"
    refr.Loadgen.outcome_sorted_digest res.Loadgen.outcome_sorted_digest

let test_campaign_lc_guest_checksum () =
  (* The LC flavour verifies in the guest (MMIO RX_CSUM + checksum
     loop) rather than in the kernel; the observable contract is the
     same. *)
  let outcome, res =
    Fault_experiments.ingress_trial ~mode:Config.LC ~n:2 ~ingress_check:true
      ~fault:true ~seed:3 ()
  in
  Alcotest.(check bool) "fault landed" true res.Loadgen.fault_fired;
  Alcotest.(check bool) "guest checksum loop ran" true
    (res.Loadgen.ingress_checked >= 1);
  Alcotest.(check bool) "frame dropped" true (res.Loadgen.ingress_dropped >= 1);
  Alcotest.(check int) "no corruption escaped" 0
    res.Loadgen.counters.Ycsb.corrupted;
  Alcotest.(check string) "controlled ingress drop"
    (Outcome.to_string Outcome.Ingress_dropped)
    (Outcome.to_string outcome)

let test_campaign_base_drops_at_once () =
  (* An unreplicated server: the KV guest takes the LC receive path
     (guest-side checksum against the MMIO RX_CSUM, NACK on the spot),
     with no vote to wait for. The final cycles are pinned, and Interp
     and Blocks must agree on them. The kernel-side check Base shares
     with the replicated modes is pinned in test_ft_ops. *)
  List.iter
    (fun (seed, final_cycle) ->
      List.iter
        (fun exec_backend ->
          let outcome, res =
            Fault_experiments.ingress_trial ~exec_backend ~mode:Config.Base
              ~n:1 ~ingress_check:true ~fault:true ~seed ()
          in
          let label = Printf.sprintf "seed %d, %s" seed
              (match exec_backend with
               | Config.Interp -> "interp"
               | Config.Blocks -> "blocks")
          in
          Alcotest.(check string) (label ^ ": controlled ingress drop")
            (Outcome.to_string Outcome.Ingress_dropped)
            (Outcome.to_string outcome);
          Alcotest.(check int) (label ^ ": one frame dropped") 1
            res.Loadgen.ingress_dropped;
          Alcotest.(check int) (label ^ ": no corruption escaped") 0
            res.Loadgen.counters.Ycsb.corrupted;
          Alcotest.(check int) (label ^ ": final cycle") final_cycle
            (Rcoe_core.System.now res.Loadgen.sys))
        [ Config.Interp; Config.Blocks ])
    [ (1, 397_200); (2, 397_600) ]

let suite =
  [
    Alcotest.test_case "RX_CSUM is the enqueue-time ground truth" `Quick
      test_rx_csum_ground_truth;
    Alcotest.test_case "NACK quarantine blocks slot re-arm" `Quick
      test_nack_quarantine_blocks_rearm;
    Alcotest.test_case "next_event quiescent while quarantined" `Quick
      test_next_event_quiescent_when_quarantined;
    Alcotest.test_case "repeated NACK re-arms oldest first" `Quick
      test_repeated_nack_oldest_first;
    Alcotest.test_case "campaign: checking off, silent corruption" `Slow
      test_campaign_off_silent_corruption;
    Alcotest.test_case "campaign: checking on, drop + redeliver" `Slow
      test_campaign_on_detects_and_recovers;
    Alcotest.test_case "campaign: LC guest-side checksum" `Slow
      test_campaign_lc_guest_checksum;
    Alcotest.test_case "campaign: Base drops and NACKs at once" `Slow
      test_campaign_base_drops_at_once;
  ]
