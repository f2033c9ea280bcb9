(* Fast serving-harness checks: request accounting, attribution
   closure, open-loop pacing, the fault campaign with client-side
   retransmission over the DMA hole, and the refresh-on-read net./trace.
   gauges. The heavy 10k-request Interp/Blocks identity runs live in
   the separate [serve_det] binary. *)

open Rcoe_core
open Rcoe_harness
open Rcoe_workloads
module Arch = Rcoe_machine.Arch
module Hdr = Rcoe_obs.Hdr
module Json = Rcoe_obs.Json
module Metrics = Rcoe_obs.Metrics
module Reqtrace = Rcoe_obs.Reqtrace

let config ?(checkpoint_every = 0) () =
  {
    (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:Arch.X86
       ~with_net:true ~seed:5 ())
    with
    Config.checkpoint_every;
    max_rollbacks = 3;
  }

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  nn = 0 || go 0

let test_closed_loop_accounting () =
  let r =
    Loadgen.run ~config:(config ()) ~workload:Ycsb.A ~records:48 ~requests:300
      ()
  in
  Alcotest.(check bool) "not stalled" false r.Loadgen.stalled;
  Alcotest.(check int) "all answered" r.Loadgen.issued r.Loadgen.completed;
  Alcotest.(check int) "run ops" 300 r.Loadgen.run_ops;
  Alcotest.(check int) "outcome log covers everything" r.Loadgen.completed
    (List.length r.Loadgen.outcome_log);
  Alcotest.(check int) "e2e histogram covers everything" r.Loadgen.completed
    (Hdr.count (Reqtrace.e2e r.Loadgen.rt));
  Alcotest.(check int) "no corruption" 0 r.Loadgen.counters.Ycsb.corrupted;
  Alcotest.(check int) "no client errors" 0
    r.Loadgen.counters.Ycsb.client_errors;
  Alcotest.(check int) "nothing left open" 0
    (Reqtrace.open_requests r.Loadgen.rt)

let test_attribution_sums_exactly () =
  let r =
    Loadgen.run ~config:(config ~checkpoint_every:4 ()) ~workload:Ycsb.B
      ~records:48 ~requests:300 ()
  in
  let a = Reqtrace.attribution r.Loadgen.rt in
  let total = List.assoc "total_cycles" a in
  let parts =
    List.fold_left
      (fun acc (k, v) -> if k = "total_cycles" then acc else acc + v)
      0 a
  in
  Alcotest.(check int) "classes sum to total" total parts;
  Alcotest.(check bool) "total positive" true (total > 0);
  (* Phase stamps partition the end-to-end time the same way. *)
  let e2e_sum = Hdr.sum (Reqtrace.e2e r.Loadgen.rt) in
  Alcotest.(check int) "attribution covers e2e" e2e_sum total

let test_open_loop () =
  let r =
    Loadgen.run ~config:(config ()) ~workload:Ycsb.A ~records:48 ~requests:300
      ~pacing:(Loadgen.Open { interval = 6_000; max_queue = 32 })
      ()
  in
  Alcotest.(check bool) "not stalled" false r.Loadgen.stalled;
  Alcotest.(check int) "all answered" r.Loadgen.issued r.Loadgen.completed;
  (* Arrivals every 6000 cycles leave the server mostly idle: run-phase
     elapsed time is pinned near requests * interval, not server speed. *)
  Alcotest.(check bool) "paced by the arrival clock" true
    (r.Loadgen.elapsed_cycles >= 299 * 6_000)

let test_fault_campaign_retransmission () =
  let r =
    Loadgen.run ~config:(config ~checkpoint_every:2 ()) ~workload:Ycsb.A
      ~records:64 ~requests:500
      ~fault:
        { Loadgen.fault_after = 200; fault_bit = 7;
          fault_target = Loadgen.Sig_word }
      ()
  in
  Alcotest.(check bool) "recovered, not stalled" false r.Loadgen.stalled;
  Alcotest.(check bool) "rolled back" true (r.Loadgen.rollbacks >= 1);
  Alcotest.(check int) "all answered despite the DMA hole" r.Loadgen.issued
    r.Loadgen.completed;
  Alcotest.(check int) "no client errors" 0
    r.Loadgen.counters.Ycsb.client_errors;
  (* The rollback rewound consumed requests and replayed a doorbell;
     the client-side protocol absorbed both. *)
  Alcotest.(check bool) "lost request retransmitted" true
    (r.Loadgen.retransmits >= 1);
  Alcotest.(check bool) "replayed response filtered" true
    (r.Loadgen.dup_responses >= 1);
  let d = Reqtrace.detect_hdr r.Loadgen.rt in
  let s = Reqtrace.stall_hdr r.Loadgen.rt in
  Alcotest.(check bool) "detection latencies recorded" true (Hdr.count d >= 1);
  Alcotest.(check bool) "recovery stalls recorded" true (Hdr.count s >= 1);
  Alcotest.(check bool) "stall attribution nonzero" true
    (List.assoc "rollback_stall" (Reqtrace.attribution r.Loadgen.rt) > 0)

let test_net_trace_gauges () =
  let r =
    Loadgen.run ~config:(config ()) ~workload:Ycsb.A ~records:32 ~requests:100
      ()
  in
  let m = System.metrics r.Loadgen.sys in
  let gauge name =
    match Metrics.find_gauge m name with
    | Some g -> int_of_float (Metrics.value g)
    | None -> Alcotest.failf "gauge %s not registered" name
  in
  Alcotest.(check int) "net.rx_dropped" 0 (gauge "net.rx_dropped");
  Alcotest.(check bool) "net.rx_ring_hwm" true (gauge "net.rx_ring_hwm" >= 1);
  Alcotest.(check bool) "net.tx_sent counts responses" true
    (gauge "net.tx_sent" >= r.Loadgen.completed);
  Alcotest.(check bool) "net.tx_pending_hwm" true
    (gauge "net.tx_pending_hwm" >= 1);
  Alcotest.(check int) "trace.dropped_events" 0 (gauge "trace.dropped_events")

let test_report_json () =
  let r =
    Loadgen.run ~config:(config ()) ~workload:Ycsb.A ~records:32 ~requests:100
      ()
  in
  let j = Json.to_string (Loadgen.report_json r) in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in report") true
        (contains j ("\"" ^ key ^ "\"")))
    [
      "schema"; "backend"; "throughput_kops"; "outcome_digest"; "end_sigs";
      "requests"; "attribution"; "net"; "rx_dropped"; "dropped_events";
      "retransmits"; "dup_responses"; "ingress_check"; "ingress_checked";
      "ingress_dropped"; "redelivered"; "outcome_sorted_digest"; "rx_nacked";
      "ingress_stall";
    ];
  Alcotest.(check bool) "schema tagged" true
    (contains j "rcoe-serve-report/v3")

let test_perfetto_request_track () =
  let r =
    Loadgen.run ~config:(config ()) ~workload:Ycsb.A ~records:32 ~requests:100
      ()
  in
  let events = Reqtrace.chrome_events r.Loadgen.rt in
  Alcotest.(check bool) "one complete event per request plus metadata" true
    (List.length events > r.Loadgen.completed);
  let j =
    Rcoe_obs.Export.to_chrome_json ~extra:events (System.trace r.Loadgen.sys)
  in
  Alcotest.(check bool) "requests process named" true (contains j "requests");
  Alcotest.(check bool) "request lanes named" true (contains j "req lane 0");
  Alcotest.(check bool) "per-phase args present" true
    (contains j "\"service\"")

let suite =
  [
    Alcotest.test_case "closed loop accounting" `Quick
      test_closed_loop_accounting;
    Alcotest.test_case "attribution sums exactly" `Quick
      test_attribution_sums_exactly;
    Alcotest.test_case "open loop pacing" `Quick test_open_loop;
    Alcotest.test_case "fault campaign + retransmission" `Quick
      test_fault_campaign_retransmission;
    Alcotest.test_case "net/trace gauges" `Quick test_net_trace_gauges;
    Alcotest.test_case "report json" `Quick test_report_json;
    Alcotest.test_case "perfetto request track" `Quick
      test_perfetto_request_track;
  ]
