(* FT_* syscall semantics through the full engine: kernel-mediated device
   access, DMA replication, output voting — across Base, LC and CC. *)

open Rcoe_machine
open Rcoe_kernel
open Rcoe_core
open Rcoe_isa

(* A driver-like program exercising the FT interface directly:
   1. waits for a NIC interrupt,
   2. reads RX_COUNT / RX_ADDR / RX_LEN via FT_Mem_Access,
   3. pulls the packet in via FT_Mem_Rep,
   4. doubles every payload word,
   5. stages the response in the DMA TX area, votes on it with
      FT_Add_Trace, and rings the doorbell via a 3-register FT write. *)
let driver_program () =
  let a = Asm.create "ftdrv" in
  let open Reg in
  Asm.space a "regs" 4;
  Asm.space a "buf" 64;
  Asm.space a "ctl" 3;
  Asm.data a "one" [| 1 |];
  let mmio r = Layout.va_mmio + r in
  let txo = 8 * Layout.page_size in
  Asm.label a "main";
  Asm.movi a R0 0;
  Asm.syscall a Syscall.sys_wait_irq;
  (* rx_count -> regs[0] *)
  Asm.movi a R0 0;
  Asm.movi a R1 (mmio Netdev.reg_rx_count);
  Asm.la a R2 "regs";
  Asm.movi a R3 1;
  Asm.syscall a Syscall.sys_ft_mem_access;
  (* rx_addr, rx_len -> regs[1], regs[2] *)
  Asm.movi a R0 0;
  Asm.movi a R1 (mmio Netdev.reg_rx_addr);
  Asm.la a R2 "regs";
  Asm.addi a R2 R2 1;
  Asm.movi a R3 2;
  Asm.syscall a Syscall.sys_ft_mem_access;
  (* packet -> buf *)
  Asm.la a R15 "regs";
  Asm.ld a R5 R15 2;
  Asm.ld a R6 R15 1;
  Asm.la a R0 "buf";
  Asm.mov a R1 R5;
  Asm.mov a R2 R6;
  Asm.syscall a Syscall.sys_ft_mem_rep;
  (* consume descriptor *)
  Asm.movi a R0 1;
  Asm.movi a R1 (mmio Netdev.reg_rx_consume);
  Asm.la a R2 "one";
  Asm.movi a R3 1;
  Asm.syscall a Syscall.sys_ft_mem_access;
  (* double every word in place *)
  Asm.la a R4 "buf";
  Asm.movi a R6 0;
  Asm.while_ a Instr.Lt R6 (Instr.Reg R5) (fun () ->
      Asm.ld a R7 R4 0;
      Asm.add a R7 R7 R7;
      Asm.st a R4 R7 0;
      Asm.addi a R4 R4 1;
      Asm.addi a R6 R6 1);
  (* stage in the TX DMA area *)
  Asm.movi a R0 (Layout.va_dma + txo);
  Asm.la a R1 "buf";
  Asm.mov a R2 R5;
  Asm.emit a Instr.Rep_movs;
  (* output voting, then doorbell (addr, len, go) *)
  Asm.la a R0 "buf";
  Asm.mov a R1 R5;
  Asm.syscall a Syscall.sys_ft_add_trace;
  Asm.la a R15 "ctl";
  Asm.movi a R12 txo;
  Asm.st a R15 R12 0;
  Asm.st a R15 R5 1;
  Asm.movi a R12 1;
  Asm.st a R15 R12 2;
  Asm.movi a R0 1;
  Asm.movi a R1 (mmio Netdev.reg_tx_addr);
  Asm.la a R2 "ctl";
  Asm.movi a R3 3;
  Asm.syscall a Syscall.sys_ft_mem_access;
  Asm.syscall a Syscall.sys_exit;
  Asm.assemble ~entry:"main" a

let run_driver ~mode ~n =
  let config =
    {
      Config.default with
      Config.mode;
      nreplicas = n;
      with_net = true;
      tick_interval = 20_000;
      barrier_timeout = 400_000;
    }
  in
  let sys = System.create ~config ~program:(driver_program ()) in
  let net = Option.get (System.netdev sys) in
  Netdev.inject net ~now:0 [| 5; 10; 20 |];
  System.run sys ~max_cycles:5_000_000;
  (sys, net)

let check_response name (sys, net) =
  (match System.halted sys with
  | Some h -> Alcotest.failf "%s halted: %s" name (System.halt_reason_to_string h)
  | None -> ());
  Alcotest.(check bool) (name ^ " finished") true (System.finished sys);
  match Netdev.take_tx net with
  | [ (_, payload) ] ->
      Alcotest.(check (array int)) (name ^ " doubled payload")
        [| 10; 20; 40 |] payload
  | other -> Alcotest.failf "%s: expected 1 packet, got %d" name (List.length other)

let test_ft_roundtrip_base () = check_response "base" (run_driver ~mode:Config.Base ~n:1)
let test_ft_roundtrip_lc () = check_response "lc-d" (run_driver ~mode:Config.LC ~n:2)
let test_ft_roundtrip_cc () = check_response "cc-d" (run_driver ~mode:Config.CC ~n:2)
let test_ft_roundtrip_cc_tmr () = check_response "cc-t" (run_driver ~mode:Config.CC ~n:3)

let test_ft_replicates_input_to_all () =
  let sys, _ = run_driver ~mode:Config.CC ~n:3 in
  let p = driver_program () in
  let buf = Program.data_addr p "buf" in
  for rid = 0 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "replica %d saw doubled input" rid)
      [ 10; 20; 40 ]
      (List.init 3 (fun i ->
           Kernel.read_user (System.kernel sys rid) ~va:(buf + i)))
  done

let test_output_voting_catches_divergent_response () =
  (* Corrupt one replica's response buffer before the trace vote: the
     doorbell must never ring and the system must halt on a mismatch. *)
  let config =
    {
      Config.default with
      Config.mode = Config.LC;
      nreplicas = 2;
      with_net = true;
      tick_interval = 20_000;
      barrier_timeout = 300_000;
    }
  in
  let program = driver_program () in
  let sys = System.create ~config ~program in
  let net = Option.get (System.netdev sys) in
  Netdev.inject net ~now:0 [| 7; 8; 9 |];
  (* Find replica 1's "buf" physical address and corrupt it as soon as the
     data lands, racing ahead of the trace vote. *)
  let buf_va = Program.data_addr program "buf" in
  let corrupted = ref false in
  let stop s =
    if not !corrupted then begin
      match Kernel.read_user (System.kernel s 1) ~va:buf_va with
      | 7 | 14 ->
          (* Input (or doubled input) has arrived at replica 1: flip it. *)
          Kernel.write_user (System.kernel s 1) ~va:buf_va 9999;
          corrupted := true;
          false
      | _ -> false
      | exception Kernel.User_mem_error _ -> false
    end
    else false
  in
  System.run sys ~stop ~max_cycles:5_000_000;
  System.run sys ~max_cycles:5_000_000;
  Alcotest.(check bool) "corruption staged" true !corrupted;
  Alcotest.(check bool) "mismatch detected" true
    (match System.halted sys with
    | Some System.H_mismatch -> true
    | _ -> false);
  Alcotest.(check (list (pair int pass))) "no packet escaped" []
    (Netdev.take_tx net)

let test_sync_vote_level_rendezvous_count () =
  (* At level S every syscall votes; at level A only FT calls do. *)
  let count_rdv level =
    let config =
      {
        Config.default with
        Config.mode = Config.LC;
        nreplicas = 2;
        sync_level = level;
        tick_interval = 50_000;
      }
    in
    let a = Asm.create "sys" in
    Asm.label a "main";
    Asm.for_up a Reg.R4 ~start:0 ~stop:(Instr.Imm 10) (fun () ->
        Asm.movi a Reg.R0 65;
        Asm.syscall a Syscall.sys_putchar);
    Asm.syscall a Syscall.sys_exit;
    let program = Asm.assemble ~entry:"main" a in
    let sys = System.create ~config ~program in
    System.run sys ~max_cycles:5_000_000;
    Alcotest.(check bool) "finished" true (System.finished sys);
    (System.stats sys).System.rendezvous
  in
  let at_a = count_rdv Config.Sync_args in
  let at_s = count_rdv Config.Sync_vote in
  Alcotest.(check int) "no rendezvous at A" 0 at_a;
  Alcotest.(check bool)
    (Printf.sprintf "one per syscall at S (%d)" at_s)
    true (at_s >= 10)

let test_base_ft_ops_direct () =
  (* In Base mode the FT calls act directly on the device — same driver
     program, no replication machinery. *)
  let sys, _ = run_driver ~mode:Config.Base ~n:1 in
  Alcotest.(check int) "no rounds" 0 (System.stats sys).System.rounds

let test_kernel_ingress_drop () =
  (* FT_Mem_Rep's kernel-side ingress check, in the one routine Base and
     the replicated modes share: a bit flipped in the RX frame after the
     NIC checksummed it is caught against RX_CSUM, the frame is NACKed,
     and the driver consumes none of it (it doubles an empty buffer).
     Base NACKs at once; CC NACKs at the commit after the vote. The
     pinned cycles include the check's per-word charge. *)
  let run ~mode ~n =
    let config =
      {
        Config.default with
        Config.mode;
        nreplicas = n;
        with_net = true;
        ingress_check = true;
        tick_interval = 20_000;
        barrier_timeout = 400_000;
      }
    in
    let sys = System.create ~config ~program:(driver_program ()) in
    let net = Option.get (System.netdev sys) in
    Netdev.inject net ~now:0 [| 5; 10; 20 |];
    System.run sys ~max_cycles:5_000_000
      ~stop:(fun _ -> Netdev.head_rx net <> None);
    (match Netdev.head_rx net with
    | Some (off, _) ->
        let base, _ = Netdev.rx_region_bounds net in
        Mem.flip_bit (System.machine sys).Machine.mem ~addr:(base + off + 2)
          ~bit:0
    | None -> Alcotest.fail "frame never reached the RX ring");
    System.run sys ~max_cycles:5_000_000;
    (sys, net)
  in
  List.iter
    (fun (name, mode, n, dropped_at, final_cycle) ->
      let sys, net = run ~mode ~n in
      Alcotest.(check bool) (name ^ " finished") true (System.finished sys);
      Alcotest.(check int) (name ^ " frame NACKed") 1 (Netdev.rx_nacked net);
      Alcotest.(check (list (pair int int)))
        (name ^ " drop logged with the frame's id")
        [ (dropped_at, 10) ]
        (List.filter_map
           (fun (c, k) ->
             match k with System.E_ingress_drop id -> Some (c, id) | _ -> None)
           (System.events sys));
      (match Netdev.take_tx net with
      | [ (_, payload) ] ->
          Alcotest.(check (array int)) (name ^ " nothing consumed")
            [| 0; 0; 0 |] payload
      | other ->
          Alcotest.failf "%s: expected 1 packet, got %d" name
            (List.length other));
      Alcotest.(check int) (name ^ " final cycle") final_cycle (System.now sys))
    [
      ("base", Config.Base, 1, 1136, 2532);
      ("cc-d", Config.CC, 2, 1676, 4148);
    ]

let suite =
  [
    Alcotest.test_case "FT roundtrip (base)" `Quick test_ft_roundtrip_base;
    Alcotest.test_case "FT roundtrip (LC-D)" `Quick test_ft_roundtrip_lc;
    Alcotest.test_case "FT roundtrip (CC-D)" `Quick test_ft_roundtrip_cc;
    Alcotest.test_case "FT roundtrip (CC-T)" `Quick test_ft_roundtrip_cc_tmr;
    Alcotest.test_case "FT replicates input to every replica" `Quick
      test_ft_replicates_input_to_all;
    Alcotest.test_case "output voting blocks divergent response" `Quick
      test_output_voting_catches_divergent_response;
    Alcotest.test_case "sync level S votes per syscall" `Quick
      test_sync_vote_level_rendezvous_count;
    Alcotest.test_case "base FT ops act directly" `Quick test_base_ft_ops_direct;
    Alcotest.test_case "kernel ingress check drops a corrupt frame" `Quick
      test_kernel_ingress_drop;
  ]
