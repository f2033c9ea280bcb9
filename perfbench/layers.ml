(* Per-layer readings. Counts come from the systems a workload ran
   (metrics registry, NIC, trace ring, block caches) and are exact.
   Per-call host costs come from timing a layer's public entry points on
   state taken from the workload's own system, after its counts have
   been read — the probes perturb that state. *)

open Rcoe_core
module Metrics = Rcoe_obs.Metrics
module Kernel = Rcoe_kernel.Kernel
module Machine = Rcoe_machine.Machine
module Blockc = Rcoe_machine.Blockc
module Netdev = Rcoe_machine.Netdev
module Trace = Rcoe_obs.Trace

let counter sys name =
  match Metrics.find_counter (System.metrics sys) name with
  | Some c -> Metrics.count c
  | None -> 0

let gauge sys name =
  match Metrics.find_gauge (System.metrics sys) name with
  | Some g -> Metrics.value g
  | None -> 0.0

let samples sys name =
  match Metrics.find_histogram (System.metrics sys) name with
  | Some h -> Metrics.samples h
  | None -> []

let pct p = function [] -> 0.0 | xs -> Rcoe_util.Stats.percentile p xs
let sum f systems = List.fold_left (fun acc s -> acc + f s) 0 systems
let sumf f systems = List.fold_left (fun acc s -> acc +. f s) 0.0 systems

let block_stats sys =
  List.fold_left
    (fun (p, b, i) rid ->
      match Kernel.block_cache (System.kernel sys rid) with
      | Some bc ->
          let s = Blockc.stats bc in
          ( p + s.Blockc.pages_decoded,
            b + s.Blockc.blocks_compiled,
            i + s.Blockc.invalidations )
      | None -> (p, b, i))
    (0, 0, 0)
    (List.init (System.config sys).Config.nreplicas Fun.id)

(* Every per-layer counter family, summed over [systems] (the systems
   one measured unit of the workload ran). Sync and catch-up counts are
   per completed request when [requests] > 0. *)
let record_counts ~requests systems =
  let exact = true in
  let per_req n =
    if requests > 0 then float_of_int n /. float_of_int requests
    else float_of_int n
  in
  let c name = sum (fun s -> counter s name) systems in
  List.iter
    (fun name -> Measure.set ~exact name "1/req" (per_req (c name)))
    [ "sync.rounds"; "sync.votes"; "sync.rendezvous"; "sync.ipis";
      "catchup.bp_fires"; "catchup.single_steps" ];
  let all name = List.concat_map (fun s -> samples s name) systems in
  Measure.set ~exact "sync.barrier_wait_cycles.p99" "cycles"
    (pct 99.0 (all "sync.barrier_wait_cycles"));
  Measure.set ~exact "catchup.cycles.p99" "cycles"
    (pct 99.0 (all "catchup.cycles"));
  Measure.seti ~exact "ckpt.taken" "count" (c "ckpt.taken");
  Measure.seti ~exact "ckpt.words_copied" "words" (c "ckpt.words_copied");
  Measure.seti ~exact "ckpt.words_skipped" "words" (c "ckpt.words_skipped");
  Measure.set ~exact "ckpt.cost_cycles.p50" "cycles"
    (pct 50.0 (all "ckpt.cost_cycles"));
  Measure.seti ~exact "replay.chunks" "count" (c "replay.chunks");
  Measure.seti ~exact "replay.chunks_verified" "count"
    (c "replay.chunks_verified");
  Measure.seti ~exact "replay.mismatches" "count" (c "replay.mismatches");
  Measure.set ~exact "replay.lag_cycles.p99" "cycles"
    (pct 99.0 (all "replay.lag_cycles"));
  Measure.set ~exact "replay.checker_idle_cycles" "cycles"
    (sumf (fun s -> gauge s "replay.checker_idle_cycles") systems);
  Measure.set ~exact "net.replay_queue_hwm" "chunks"
    (List.fold_left
       (fun m s -> Float.max m (gauge s "net.replay_queue_hwm"))
       0.0 systems);
  let net f =
    sum (fun s -> match System.netdev s with Some nd -> f nd | None -> 0) systems
  in
  Measure.seti ~exact "net.tx_sent" "frames" (net Netdev.tx_sent);
  Measure.seti ~exact "net.rx_ring_hwm" "frames" (net Netdev.rx_ring_hwm);
  Measure.seti ~exact "net.rx_nacked" "frames" (net Netdev.rx_nacked);
  Measure.seti ~exact "net.ingress_checked" "frames" (c "net.ingress_checked");
  Measure.seti ~exact "trace.events" "events"
    (sum (fun s -> Trace.total (System.trace s)) systems);
  Measure.seti ~exact "trace.dropped_events" "events"
    (sum (fun s -> Trace.dropped (System.trace s)) systems);
  let p, b, i =
    List.fold_left
      (fun (p, b, i) s ->
        let p', b', i' = block_stats s in
        (p + p', b + b', i + i'))
      (0, 0, 0) systems
  in
  Measure.seti ~exact "blockc.pages_decoded" "pages" p;
  Measure.seti ~exact "blockc.blocks_compiled" "blocks" b;
  Measure.seti ~exact "blockc.invalidations" "pages" i

(* ---------------------------------------------------------------- probes *)

(* Run [f] [n] times per sample and return the median over [samples] of
   the mean ns per call. *)
let ns_per_call ?(samples = 7) ~n f =
  Measure.median
    (List.init samples (fun _ ->
         let t0 = Measure.now () in
         for _ = 1 to n do
           f ()
         done;
         (Measure.now () -. t0) *. 1e9 /. float_of_int n))

(* [Kernel.step] on every live replica of [sys], from its current state:
   each replica steps until its first kernel event (or [limit] cycles),
   then its kernel bookkeeping is restored and the stretch is replayed.
   Returns host ns per step. *)
let kernel_step_ns ?(limit = 2_000) ?(reps = 200) sys =
  let steps = ref 0 and secs = ref 0.0 in
  List.iter
    (fun rid ->
      let k = System.kernel sys rid in
      let snap = Kernel.snapshot k in
      for _ = 1 to reps do
        Kernel.restore k snap;
        let t0 = Measure.now () in
        let n = ref 0 and stop = ref false in
        while (not !stop) && !n < limit do
          incr n;
          match Kernel.step k with
          | Rcoe_machine.Core.Event _ -> stop := true
          | Rcoe_machine.Core.Ran | Rcoe_machine.Core.Stalled -> ()
        done;
        secs := !secs +. (Measure.now () -. t0);
        steps := !steps + !n
      done;
      Kernel.restore k snap)
    (System.live sys);
  if !steps = 0 then 0.0 else !secs *. 1e9 /. float_of_int !steps

(* [Blockc.run] bursts on replica 0 of a Base system on the Blocks
   backend, replayed from one kernel snapshot. Returns the median over
   bursts of host ns per simulated cycle. *)
let burst_ns_per_cycle ?(fuel = 40_000) ?(reps = 25) sys =
  let k = System.kernel sys 0 in
  match Kernel.block_cache k with
  | None -> 0.0
  | Some bc ->
      let buses = (System.machine sys).Machine.buses in
      let snap = Kernel.snapshot k in
      let samples =
        List.filter_map
          (fun _ ->
            Kernel.restore k snap;
            let t0 = Measure.now () in
            let consumed, _ = Blockc.run bc ~buses ~fuel in
            let dt = Measure.now () -. t0 in
            if consumed > 0 then Some (dt *. 1e9 /. float_of_int consumed)
            else None)
          (List.init reps Fun.id)
      in
      Kernel.restore k snap;
      match samples with [] -> 0.0 | _ -> Measure.median samples

let live_images sys =
  List.map (fun rid -> (rid, System.kernel sys rid, System.replica_done sys rid))
    (System.live sys)

(* [Checkpoint.capture] of a delta over the pages the workload dirtied
   since its last checkpoint (dirty flags kept, so every repetition
   copies the same set); a full capture when nothing is dirty. Returns
   host ns per copied word. *)
let capture_ns_per_word sys =
  let mem = (System.machine sys).Machine.mem in
  let lay = System.layout sys in
  let replicas = live_images sys in
  let capture kind () =
    Checkpoint.capture ~clear_dirty:false mem lay ~kind ~cycle:0 ~round_seq:0
      ~ticks:0 ~prim:(System.primary sys) ~replicas
  in
  let kind =
    if Checkpoint.words (capture Checkpoint.Delta ()) > 0 then Checkpoint.Delta
    else Checkpoint.Full
  in
  let words = Checkpoint.words (capture kind ()) in
  ns_per_call ~n:10 (fun () -> ignore (Sys.opaque_identity (capture kind ())))
  /. float_of_int (max 1 words)

(* [Vote.signatures_agree] over the signatures the last round published. *)
let agree_ns sys =
  let mem = (System.machine sys).Machine.mem in
  let shared = (System.layout sys).Rcoe_kernel.Layout.shared in
  let live = System.live sys in
  ns_per_call ~n:20_000 (fun () ->
      ignore (Sys.opaque_identity (Vote.signatures_agree mem shared ~live)))

(* [Signature.add_words] folding a 3-word record into replica 0's
   accumulator. *)
let add_words_ns sys =
  let mem = (System.machine sys).Machine.mem in
  let base = System.sig_base sys 0 in
  let words = [| 7; 11; 13 |] in
  ns_per_call ~n:20_000 (fun () -> Signature.add_words mem ~base words)

(* [Inputlog.record] of one request frame plus its share of the chunk
   [cut], over the workload's own request payloads. *)
let inputlog_ns_per_event payloads =
  match payloads with
  | [] -> 0.0
  | _ ->
      let log = Inputlog.create () in
      let n = List.length payloads in
      ns_per_call ~n:50 (fun () ->
          List.iteri
            (fun i p -> Inputlog.record log ~at:i ~deliver_at:i p)
            payloads;
          ignore (Sys.opaque_identity (Inputlog.cut log)))
      /. float_of_int n
