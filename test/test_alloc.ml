(* Allocation bounds for the steady-state cycle path on the Blocks
   backend: minor-heap words allocated on the calling domain per
   simulated cycle, over a whole traced 1000-request serve (set-up, the
   load generator and the trace ring included) and over a Base
   Whetstone compute run. The per-cycle shell, the device and bus
   ticks, the memory-access path, the jitter draw and the burst loop
   allocate nothing, so what remains is per-request and per-event work.
   The counts are a deterministic function of the simulation, not of
   the host; a bound trips when something starts allocating per cycle
   or per instruction again.

   Measured on x86-64, OCaml 5.1.1 (words per simulated cycle):

   | run                        | before | after | bound |
   |----------------------------|--------|-------|-------|
   | serve CC-DMR (lockstep)    | 41.5   | 1.37  | 2.0   |
   | serve Base                 | 32.9   | 0.49  | 1.0   |
   | serve replay primary       | 44.0   | 0.55  | 1.0   |
   | Whetstone Base, 2000 loops | 11.7   | 0.001 | 0.05  |

   "Before" is the boxed-state, closure-per-cycle implementation this
   path replaced (the Whetstone figure is from 200 loops). Each bound
   is the measurement plus a margin of roughly 50% (serves) or of an
   allocation every 20 cycles (Whetstone), and more than 10x below the
   old figure. *)

open Rcoe_core
open Rcoe_workloads
open Rcoe_harness

let x86 = Rcoe_machine.Arch.X86

let words_per_cycle run =
  let w0 = Gc.minor_words () in
  let sys = run () in
  let words = Gc.minor_words () -. w0 in
  (words /. float_of_int (System.now sys), sys)

let serve_cfg ~mode ~nreplicas =
  {
    (Runner.config_for ~mode ~nreplicas ~arch:x86 ~with_net:true ~seed:1 ())
    with
    Config.exec_backend = Config.Blocks;
  }

let check_serve ~label ~bound cfg =
  let wpc, sys =
    words_per_cycle (fun () ->
        let r =
          Loadgen.run ~config:cfg ~workload:Ycsb.A ~records:256 ~requests:1000
            ~pacing:(Loadgen.Closed { window = 8 })
            ()
        in
        Alcotest.(check int) (label ^ ": all answered") r.Loadgen.issued
          r.Loadgen.completed;
        r.Loadgen.sys)
  in
  Alcotest.(check bool) (label ^ ": traced") true
    (Rcoe_obs.Trace.enabled (System.trace sys));
  if wpc > bound then
    Alcotest.failf "%s: %.2f minor words per cycle, bound %.2f" label wpc bound

let test_serve_cc_dmr () =
  check_serve ~label:"CC-DMR" ~bound:2.0
    {
      (serve_cfg ~mode:Config.CC ~nreplicas:2) with
      Config.ingress_check = true;
      checkpoint_every = 8;
    }

let test_serve_base () =
  check_serve ~label:"Base" ~bound:1.0 (serve_cfg ~mode:Config.Base ~nreplicas:1)

let test_serve_replay () =
  check_serve ~label:"replay primary" ~bound:1.0
    {
      (serve_cfg ~mode:Config.Base ~nreplicas:1) with
      Config.detection = Config.Replay;
      replay_chunk_ticks = 4;
      replay_checkers = 1;
      max_rollbacks = 3;
    }

let test_whetstone_base () =
  let cfg =
    {
      (Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 ~seed:1 ())
      with
      Config.exec_backend = Config.Blocks;
    }
  in
  let program = Whetstone.program ~loops:2000 ~branch_count:false () in
  let sys = System.create ~config:cfg ~program in
  let wpc, _ =
    words_per_cycle (fun () ->
        System.run sys ~max_cycles:1_000_000_000;
        sys)
  in
  Alcotest.(check bool) "finished" true (System.finished sys);
  if wpc > 0.05 then
    Alcotest.failf "Whetstone: %.4f minor words per cycle, bound 0.05" wpc

let suite =
  [
    Alcotest.test_case "traced serve CC-DMR <= 2.0 words/cycle" `Quick
      test_serve_cc_dmr;
    Alcotest.test_case "traced serve Base <= 1.0 words/cycle" `Quick
      test_serve_base;
    Alcotest.test_case "traced serve replay primary <= 1.0 words/cycle" `Quick
      test_serve_replay;
    Alcotest.test_case "Whetstone Base <= 0.05 words/cycle" `Quick
      test_whetstone_base;
  ]
