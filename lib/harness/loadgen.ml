open Rcoe_core
open Rcoe_workloads
module Netdev = Rcoe_machine.Netdev
module Reqtrace = Rcoe_obs.Reqtrace
module Trace = Rcoe_obs.Trace
module Hdr = Rcoe_obs.Hdr
module Json = Rcoe_obs.Json

type pacing =
  | Closed of { window : int }
  | Open of { interval : int; max_queue : int }

type fault_target = Sig_word | Dma_frame

type fault_spec = {
  fault_after : int;
  fault_bit : int;
  fault_target : fault_target;
}

type outcome = { o_seq : int; o_op : int; o_status : int }

(* Client-side reliability over the DMA hole. A rollback rewinds the
   replicas but not the host-side NIC rings (they sit outside the
   sphere of replication, the paper's Table VII residual): a request
   consumed after the restored checkpoint is simply gone, and a
   response transmitted after it is doorbelled twice on replay. A
   production client sees exactly this from a recovering server, and
   answers it the same way we do: retransmit requests that outlive
   [retry_after] cycles (server ops are idempotent — a PUT rewrites the
   same versioned value), and drop responses whose sequence id already
   completed. Both decisions are functions of simulated state at chunk
   boundaries, so fault runs stay bit-for-bit identical across
   execution backends. *)

type result = {
  issued : int;
  completed : int;
  run_ops : int;
  elapsed_cycles : int;
  kops_per_sec : float;
  outcome_log : outcome list;
  outcome_digest : int;
  end_sigs : (int * int * int) array;
  rt : Reqtrace.t;
  counters : Ycsb.counters;
  stalled : bool;
  rollbacks : int;
  retransmits : int;
  dup_responses : int;
  ingress_checked : int;
  ingress_dropped : int;
  redelivered : int;
  outcome_sorted_digest : int;
  fault_fired : bool;
  sys : System.t;
}

(* The server's node arena must hold every key that can exist: the
   load-phase records plus an insert per operation — but only D and E
   ever insert. Sizing the arena by workload is what lets a 100k+
   request A/B/C/F run fit the fixed per-replica memory partition. *)
let program_for ~config ~workload ~records ~requests =
  let inserts =
    match workload with Ycsb.D | Ycsb.E -> requests | _ -> 0
  in
  let branch_count = Wl.branch_count_for config.Config.arch in
  Kvstore.program
    ~max_records:(records + inserts + 64)
    ~net_dpn:0 ~branch_count ()

let digest_outcomes (log : outcome list) =
  let n = List.length log in
  let words = Array.make (3 * n) 0 in
  List.iteri
    (fun i o ->
      words.(3 * i) <- o.o_seq;
      words.((3 * i) + 1) <- o.o_op;
      words.((3 * i) + 2) <- o.o_status)
    log;
  Rcoe_checksum.Crc32.words words

let run ~config ~workload ~records ~requests ?(pacing = Closed { window = 8 })
    ?(gen_seed = 11) ?(chunk = 400) ?(stall_limit = 3_000_000)
    ?(max_cycles = 600_000_000) ?(retry_after = 250_000) ?fault ?keep () =
  let config =
    {
      config with
      Config.with_net = true;
      trace =
        (match config.Config.trace with
        | Some _ as tc -> tc
        | None -> Some { Trace.capacity = 65536 });
    }
  in
  let program = program_for ~config ~workload ~records ~requests in
  let sys = System.create ~config ~program in
  let net =
    match System.netdev sys with
    | Some n -> n
    | None -> invalid_arg "Loadgen.run: no network device"
  in
  let mem = (System.machine sys).Rcoe_machine.Machine.mem in
  let rt = Reqtrace.create ?keep () in
  (* Tap the NIC rings: request packets stamp rx/consume, response
     packets stamp tx. Observers never perturb the simulation. *)
  let req_id p =
    if Array.length p >= 3 && p.(0) = Kvstore.req_magic then Some p.(1) else None
  in
  let resp_id p =
    if Array.length p >= 3 && p.(0) = Kvstore.resp_magic then Some p.(1)
    else None
  in
  Netdev.set_observers net
    ~on_rx:(fun ~now p ->
      match req_id p with Some id -> Reqtrace.rx rt ~id ~now | None -> ())
    ~on_consume:(fun ~now p ->
      match req_id p with Some id -> Reqtrace.consume rt ~id ~now | None -> ())
    ~on_tx:(fun ~now p ->
      match resp_id p with Some id -> Reqtrace.tx rt ~id ~now | None -> ())
    ();
  let gen = Ycsb.create { Ycsb.records; operations = requests; seed = gen_seed } workload in
  let start = System.now sys in
  let run_start = ref None in
  let run_completed = ref 0 in
  let last_progress = ref start in
  let stalled = ref false in
  let fault_fired = ref false in
  let outcomes = ref [] in
  (* Retransmission state: in-flight packets by seq, completed-seq set
     for duplicate filtering. Both are bounded by the pacing window. *)
  let pending_reqs : (int, int array * int ref * int ref) Hashtbl.t =
    Hashtbl.create 64
  in
  (* Completed-seq bitset (ids are dense; F issues two per op). *)
  let max_seqs = records + (2 * requests) + 64 in
  let done_bits = Bytes.make ((max_seqs / 8) + 1) '\000' in
  let seq_done seq =
    seq >= 0 && seq < max_seqs
    && Char.code (Bytes.get done_bits (seq lsr 3)) land (1 lsl (seq land 7)) <> 0
  in
  let mark_done seq =
    if seq >= 0 && seq < max_seqs then
      Bytes.set done_bits (seq lsr 3)
        (Char.chr
           (Char.code (Bytes.get done_bits (seq lsr 3)) lor (1 lsl (seq land 7))))
  in
  let retransmits = ref 0 in
  let dup_responses = ref 0 in
  (* Sequence ids that were ever retransmitted: a receipt for one of
     them is a re-delivery — the drop-and-redeliver lane completing. *)
  let retried : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let redelivered = ref 0 in
  (* Open-loop arrival clock: armed when the run phase starts. *)
  let next_arrival = ref max_int in
  let inject_req req ~at =
    Netdev.inject net ~now:at req;
    Hashtbl.replace pending_reqs req.(1) (req, ref at, ref retry_after);
    Reqtrace.inject rt ~id:req.(1) ~now:at
  in
  (* Exponential backoff: under overload a request can sit queued far
     longer than [retry_after] without being lost; doubling the timeout
     per retry keeps a slow server from drowning in duplicates. *)
  let retransmit_overdue () =
    let now = System.now sys in
    Hashtbl.iter
      (fun seq (req, last_sent, timeout) ->
        if now - !last_sent > !timeout then begin
          Netdev.inject net ~now req;
          last_sent := now;
          timeout := 2 * !timeout;
          incr retransmits;
          Hashtbl.replace retried seq ()
        end)
      pending_reqs
  in
  let top_up () =
    let now = System.now sys in
    let load_running = not (Ycsb.load_phase_done gen) in
    if load_running then begin
      (* Load phase: always closed-loop, window 8. *)
      let continue = ref true in
      while !continue && Ycsb.outstanding gen < 8 && not (Ycsb.load_phase_done gen) do
        match Ycsb.next_request gen with
        | Some req -> inject_req req ~at:now
        | None -> continue := false
      done
    end
    else if !run_start <> None then
      match pacing with
      | Closed { window } ->
          let continue = ref true in
          while !continue && Ycsb.outstanding gen < window do
            match Ycsb.next_request gen with
            | Some req -> inject_req req ~at:now
            | None -> continue := false
          done
      | Open { interval; max_queue } ->
          (* Schedule fixed-rate arrivals up to one chunk ahead; the
             device clock delivers each at its exact arrival cycle.
             The arrival clock never resyncs to [now]: when the
             generator falls behind (max_queue bound, stalled chunk)
             the backlog drains as an immediate burst at the configured
             rate's schedule, so the queueing delay appears in the
             latency histograms instead of being coordinated away. *)
          let continue = ref true in
          while
            !continue && !next_arrival <= now + chunk
            && Ycsb.outstanding gen < max_queue
          do
            match Ycsb.next_request gen with
            | Some req ->
                inject_req req ~at:(max now !next_arrival);
                next_arrival := !next_arrival + interval
            | None -> continue := false
          done
  in
  let stop = ref false in
  while
    (not !stop)
    && (not (Ycsb.finished gen))
    && System.halted sys = None
    && (not !stalled)
    && (not (System.finished sys))
    && System.now sys - start < max_cycles
  do
    top_up ();
    let before = (Ycsb.counters gen).Ycsb.completed in
    System.run sys ~max_cycles:chunk;
    Reqtrace.absorb rt (System.trace sys);
    let now = System.now sys in
    List.iter
      (fun (_, payload) ->
        match resp_id payload with
        | Some seq when seq_done seq ->
            (* Replayed doorbell after a rollback: already answered. *)
            incr dup_responses
        | Some seq ->
            let status = payload.(2) in
            let op =
              match Ycsb.pending gen ~seq with Some (op, _) -> op | None -> -1
            in
            outcomes := { o_seq = seq; o_op = op; o_status = status } :: !outcomes;
            mark_done seq;
            if Hashtbl.mem retried seq then incr redelivered;
            Hashtbl.remove pending_reqs seq;
            Reqtrace.receipt rt ~id:seq ~now ~status;
            if !run_start <> None then incr run_completed;
            Ycsb.on_response gen payload
        | None -> Ycsb.on_response gen payload)
      (Netdev.take_tx net);
    retransmit_overdue ();
    let c = Ycsb.counters gen in
    if c.Ycsb.completed > before then last_progress := now;
    if !run_start = None && Ycsb.load_phase_done gen && Ycsb.outstanding gen = 0
    then begin
      run_start := Some now;
      next_arrival := now;
      last_progress := now
    end;
    (* Fault campaign: one transient flip at a chunk boundary once
       [fault_after] run-phase completions have drained. Trigger and
       target are simulated-state functions, so the flip lands on the
       same cycle under either engine.

       [Sig_word] flips replica 1's published signature word — inside
       the sphere of replication, where voting detects it and rollback
       repairs it. [Dma_frame] flips a bit in a PUT request sitting in
       the RX ring — after the NIC checksummed it at enqueue, before
       the guest consumed it. That is the paper's Table VII residual:
       no checkpoint covers the ring, so rollback cannot repair it;
       only the ingress-checksum path (drop + client retransmission)
       can. *)
    (match fault with
    | Some { fault_after; fault_bit; fault_target }
      when (not !fault_fired) && !run_start <> None
           && !run_completed >= fault_after -> (
        match fault_target with
        | Sig_word ->
            (* Replica 1 under replication; the lone primary (rid 0)
               when unreplicated — the replay-detection campaign. *)
            let rid = if config.Config.nreplicas > 1 then 1 else 0 in
            let addr = System.sig_base sys rid + 1 in
            let bit = fault_bit mod 30 in
            Rcoe_machine.Mem.flip_bit mem ~addr ~bit;
            Trace.injection (System.trace sys) ~addr ~bit;
            fault_fired := true
        | Dma_frame -> (
            (* Fires at the first chunk boundary where the ring's head
               frame is an unconsumed PUT: flipping a value word breaks
               the client's embedded CRC, so without ingress checking
               the corruption is silent until a later GET trips the
               client-side check. *)
            match Netdev.head_rx net with
            | Some (off, len) when len >= 5 ->
                let base, _ = Netdev.rx_region_bounds net in
                if Rcoe_machine.Mem.read mem (base + off + 2) = Kvstore.op_put
                then begin
                  let addr = base + off + 4 in
                  let bit = fault_bit mod 30 in
                  Rcoe_machine.Mem.flip_bit mem ~addr ~bit;
                  Trace.injection (System.trace sys) ~addr ~bit;
                  fault_fired := true
                end
            | _ -> ()))
    | _ -> ());
    if now - !last_progress > stall_limit then stalled := true
  done;
  (* Under replay detection the guest service never "finishes" — the
     loop above ends on the client side — so harvest the in-flight
     verification pipeline here; otherwise the final report would leave
     the last [replay_queue_depth - 1] chunks unverified. *)
  System.replay_drain sys;
  Reqtrace.absorb rt (System.trace sys);
  let c = Ycsb.counters gen in
  if System.finished sys && not (Ycsb.finished gen) then stalled := true;
  let run_start_cycle = Option.value ~default:(System.now sys) !run_start in
  let elapsed = max 1 (System.now sys - run_start_cycle) in
  let profile = Rcoe_machine.Arch.profile_of config.Config.arch in
  let secs =
    float_of_int elapsed
    /. (float_of_int profile.Rcoe_machine.Arch.freq_mhz *. 1e6)
  in
  let nrep = config.Config.nreplicas in
  let end_sigs =
    Array.init nrep (fun rid ->
        Signature.read mem ~base:(System.sig_base sys rid))
  in
  let outcome_log = List.rev !outcomes in
  (* Completion-order digest vs. seq-sorted digest: an ingress drop
     reorders completions (the retransmitted request finishes late) but
     must not change the outcome *set* — the sorted digest is the
     order-independent identity a recovered run is checked against. *)
  let sorted =
    List.sort
      (fun a b ->
        compare (a.o_seq, a.o_op, a.o_status) (b.o_seq, b.o_op, b.o_status))
      outcome_log
  in
  {
    issued = c.Ycsb.issued;
    completed = c.Ycsb.completed;
    run_ops = !run_completed;
    elapsed_cycles = elapsed;
    kops_per_sec =
      (if secs > 0.0 then float_of_int !run_completed /. secs /. 1e3 else 0.0);
    outcome_log;
    outcome_digest = digest_outcomes outcome_log;
    end_sigs;
    rt;
    counters = c;
    stalled = !stalled;
    rollbacks = List.length (System.rollbacks sys);
    retransmits = !retransmits;
    dup_responses = !dup_responses;
    ingress_checked = Netdev.rx_csum_reads net;
    ingress_dropped = Netdev.rx_nacked net;
    redelivered = !redelivered;
    outcome_sorted_digest = digest_outcomes sorted;
    fault_fired = !fault_fired;
    sys;
  }

let report_json r =
  let cfg = System.config r.sys in
  let tr = System.trace r.sys in
  let net_json =
    match System.netdev r.sys with
    | Some nd ->
        Json.Obj
          [
            ("rx_dropped", Json.Int (Netdev.rx_dropped nd));
            ("rx_nacked", Json.Int (Netdev.rx_nacked nd));
            ("rx_ring_hwm", Json.Int (Netdev.rx_ring_hwm nd));
            ("tx_pending_hwm", Json.Int (Netdev.tx_pending_hwm nd));
            ("tx_sent", Json.Int (Netdev.tx_sent nd));
          ]
    | None -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.String "rcoe-serve-report/v3");
      ("ingress_check", Json.Bool cfg.Config.ingress_check);
      ( "backend",
        Json.String (Config.exec_backend_to_string cfg.Config.exec_backend) );
      ("mode", Json.String (Config.mode_to_string cfg.Config.mode));
      ("issued", Json.Int r.issued);
      ("completed", Json.Int r.completed);
      ("run_ops", Json.Int r.run_ops);
      ("elapsed_cycles", Json.Int r.elapsed_cycles);
      ("throughput_kops", Json.Float r.kops_per_sec);
      ("stalled", Json.Bool r.stalled);
      ("rollbacks", Json.Int r.rollbacks);
      ("retransmits", Json.Int r.retransmits);
      ("dup_responses", Json.Int r.dup_responses);
      ("ingress_checked", Json.Int r.ingress_checked);
      ("ingress_dropped", Json.Int r.ingress_dropped);
      ("redelivered", Json.Int r.redelivered);
      ("outcome_digest", Json.Int r.outcome_digest);
      ("outcome_sorted_digest", Json.Int r.outcome_sorted_digest);
      ( "end_sigs",
        Json.List
          (Array.to_list r.end_sigs
          |> List.map (fun (a, b, c) ->
                 Json.List [ Json.Int a; Json.Int b; Json.Int c ])) );
      ("requests", Reqtrace.to_json r.rt);
      ("net", net_json);
      ( "trace",
        Json.Obj
          [
            ("total_events", Json.Int (Trace.total tr));
            ("dropped_events", Json.Int (Trace.dropped tr));
          ] );
      ( "counters",
        Json.Obj
          [
            ("corrupted", Json.Int r.counters.Ycsb.corrupted);
            ("client_errors", Json.Int r.counters.Ycsb.client_errors);
            ("not_found", Json.Int r.counters.Ycsb.not_found);
          ] );
    ]
