(* serve-lockstep and serve-replay: a YCSB-A stream over 256 records,
   closed loop with 8 outstanding simulated clients, through the NIC.

   serve-lockstep is the fully armed lockstep deployment (CC-DMR x86 on
   the Blocks backend, ingress checking on, incremental checkpoints
   every 8 rounds, no fault): the per-cycle sync shell, catch-up
   breakpoints, FT_Mem_Rep rendezvous, voting, checkpoint capture, the
   NIC, the trace ring and the load generator all sit on its path.

   serve-replay serves the same stream with replay detection (a Base
   primary on Blocks, 1 checker domain) and injects one transient
   signature fault mid-run, which a checker detects and rollback
   repairs: chunk cut and verify, the input log, checkpoint pinning and
   one restore run, but no votes, breakpoints or lockstep rounds. *)

open Rcoe_core
open Rcoe_harness
open Rcoe_workloads
module Netdev = Rcoe_machine.Netdev

type variant = Lockstep | Replay

let records = 256
let requests = 1_000
let window = 8
let workload = Ycsb.A

(* Loadgen forces a 65536-event trace ring onto serving configs; setting
   it here keeps the set-up samples on the exact config it serves. *)
let config variant ~backend ~sim_seed =
  let base mode nreplicas =
    {
      (Runner.config_for ~mode ~nreplicas ~arch:Rcoe_machine.Arch.X86
         ~with_net:true ~seed:sim_seed ())
      with
      Config.engine = Config.Sequential;
      exec_backend = backend;
      trace = Some { Rcoe_obs.Trace.capacity = 65536 };
    }
  in
  match variant with
  | Lockstep ->
      {
        (base Config.CC 2) with
        Config.ingress_check = true;
        checkpoint_every = 8;
        checkpoint_mode = Config.Incremental;
      }
  | Replay ->
      {
        (base Config.Base 1) with
        Config.detection = Config.Replay;
        (* Four-tick chunks, as in the repo's own replay benchmark rows:
           a checker domain is spawned per chunk, and one-tick chunks
           make host thread start-up, not replay, most of the run. *)
        replay_chunk_ticks = 4;
        replay_checkers = 1;
        max_rollbacks = 3;
      }

let fault = function
  | Lockstep -> None
  | Replay ->
      Some
        {
          Loadgen.fault_after = requests / 2;
          fault_bit = 7;
          fault_target = Loadgen.Sig_word;
        }

let serve ?fault config ~gen_seed =
  Loadgen.run ~config ~workload ~records ~requests
    ~pacing:(Loadgen.Closed { window }) ~gen_seed ?fault ()

(* Everything simulated about one serve; two serves of the same inputs
   must agree on all of it. *)
type ident = {
  cycles : int;
  issued : int;
  completed : int;
  digest : int;
  sorted : int;
  sigs : (int * int * int) array;
  rollbacks : int;
}

let ident (r : Loadgen.result) =
  {
    cycles = System.now r.Loadgen.sys;
    issued = r.Loadgen.issued;
    completed = r.Loadgen.completed;
    digest = r.Loadgen.outcome_digest;
    sorted = r.Loadgen.outcome_sorted_digest;
    sigs = r.Loadgen.end_sigs;
    rollbacks = r.Loadgen.rollbacks;
  }

let setup_sample config ~traced =
  let program, tp =
    Measure.time (fun () ->
        Measure.span "setup.program" (fun () ->
            Loadgen.program_for ~config ~workload ~records ~requests))
  in
  let extra =
    if not traced then []
    else
      let _, tl =
        Measure.time (fun () ->
            Measure.span "setup.lint" (fun () -> Rcoe_isa.Lint.analyze program))
      in
      let _, te =
        Measure.time (fun () ->
            Measure.span "setup.eligibility" (fun () ->
                Eligibility.check ~config ~program))
      in
      [ ("setup.lint_s", tl); ("setup.eligibility_s", te) ]
  in
  let _, tc =
    Measure.time (fun () ->
        Measure.span "setup.create" (fun () -> System.create ~config ~program))
  in
  [ ("setup.program_s", tp); ("setup.create_s", tc) ] @ extra

(* The first [n] request frames the workload's generator produces. *)
let request_frames ~gen_seed n =
  let g = Ycsb.create { Ycsb.records; operations = requests; seed = gen_seed } workload in
  List.filter_map (fun _ -> Ycsb.next_request g) (List.init n Fun.id)

let attribution (r : Loadgen.result) =
  let a = Rcoe_obs.Reqtrace.attribution r.Loadgen.rt in
  let total = float_of_int (max 1 (List.assoc "total_cycles" a)) in
  List.iter
    (fun (k, v) ->
      if k <> "total_cycles" then
        Measure.set ~exact:true ("attr." ^ k) "frac" (float_of_int v /. total))
    a

let run variant ~seed ~seconds ~trace =
  let sim_seed = Seeds.sim seed and gen_seed = Seeds.ycsb seed in
  let cfg = config variant ~backend:Config.Blocks ~sim_seed in
  let fault = fault variant in
  (* The output oracle: a fault-free Base serve of the same request
     stream on the interpreter. Outcomes are per-request statuses, so
     the seq-sorted digest must match whatever the mode, backend or
     recovery path. *)
  let reference =
    Measure.span "reference.loadgen.run" @@ fun () ->
    serve
      {
        (Runner.config_for ~mode:Config.Base ~nreplicas:1
           ~arch:Rcoe_machine.Arch.X86 ~with_net:true ~seed:sim_seed ())
        with
        Config.engine = Config.Sequential;
        exec_backend = Config.Interp;
      }
      ~gen_seed
  in
  let first = ref None in
  let rs =
    Runloop.units ~min_reps:3 ~seconds ~trace ~setups:3 ~setup:(setup_sample cfg)
      (fun _ ~traced:_ ->
        let mw0 = Measure.minor_words () in
        let r, dt =
          Measure.time (fun () ->
              Measure.span "loadgen.run" (fun () -> serve ?fault cfg ~gen_seed))
        in
        let mw = Measure.minor_words () -. mw0 in
        let id = ident r in
        let c = r.Loadgen.counters in
        let complete =
          r.Loadgen.completed = r.Loadgen.issued
          && r.Loadgen.issued = records + requests
          && (not r.Loadgen.stalled)
          && System.halted r.Loadgen.sys = None
        in
        let clean = c.Ycsb.corrupted = 0 && c.Ycsb.client_errors = 0 in
        let same_outcomes = id.sorted = reference.Loadgen.outcome_sorted_digest in
        let recovered =
          match variant with
          | Lockstep -> r.Loadgen.rollbacks = 0
          | Replay -> r.Loadgen.fault_fired && r.Loadgen.rollbacks >= 1
        in
        let repeat_ok =
          match !first with
          | None ->
              first := Some (r, mw);
              true
          | Some (f, _) -> ident f = id
        in
        let ok = complete && clean && same_outcomes && recovered && repeat_ok in
        Measure.check "serve.complete" complete
          (Printf.sprintf "%d/%d completed, stalled=%b" r.Loadgen.completed
             r.Loadgen.issued r.Loadgen.stalled);
        Measure.check "serve.client_clean" clean
          (Printf.sprintf "corrupted=%d client_errors=%d" c.Ycsb.corrupted
             c.Ycsb.client_errors);
        Measure.check "serve.outcome_digest" same_outcomes
          (Printf.sprintf "sorted digest %08x vs fault-free reference %08x"
             id.sorted reference.Loadgen.outcome_sorted_digest);
        Measure.check "serve.recovery" recovered
          (Printf.sprintf "fault_fired=%b rollbacks=%d" r.Loadgen.fault_fired
             r.Loadgen.rollbacks);
        Measure.check "serve.repeatable" repeat_ok
          "a repeated serve of the same inputs diverged";
        (* A request counts as failed when it never completed or its
           client saw corruption or an error; a unit whose outcomes
           differ from the oracle fails all of its requests. *)
        Measure.ops r.Loadgen.issued
          ~bad:
            (if ok then 0
             else if same_outcomes && repeat_ok then
               min r.Loadgen.issued
                 (r.Loadgen.issued - r.Loadgen.completed + c.Ycsb.corrupted
                + c.Ycsb.client_errors)
             else r.Loadgen.issued);
        ((r.Loadgen.completed, id.cycles), dt))
  in
  let r, mw =
    match !first with Some x -> x | None -> assert false
  in
  let sys = r.Loadgen.sys in
  let req_per_s = Runloop.rate rs (fun (n, _) -> float_of_int n) in
  let cycles_per_s = Runloop.rate rs (fun (_, c) -> float_of_int c) in
  Measure.set "req_per_s" "1/s" req_per_s;
  Runloop.report_ops req_per_s;
  Measure.set "sim_mcycles_per_s" "Mcycles/s" (cycles_per_s /. 1e6);
  Measure.set "machine.host_ns_per_cycle" "ns" (1e9 /. cycles_per_s);
  let e2e = Rcoe_obs.Reqtrace.e2e r.Loadgen.rt in
  Measure.seti ~exact:true "sim_p50_cycles" "cycles"
    (Rcoe_obs.Hdr.percentile e2e 50.0);
  Measure.seti ~exact:true "sim_p99_cycles" "cycles"
    (Rcoe_obs.Hdr.percentile e2e 99.0);
  Measure.seti ~exact:true "sim_latency_samples" "count"
    (Rcoe_obs.Hdr.count e2e);
  Measure.set ~exact:true "sim_kops" "kops/s" r.Loadgen.kops_per_sec;
  Measure.seti ~exact:true "sim_cycles" "cycles" (System.now sys);
  (match variant with
  | Replay ->
      Measure.set ~exact:true "detect_lag_cycles" "cycles"
        (List.fold_left Float.max 0.0 (Layers.samples sys "replay.lag_cycles"))
  | Lockstep -> ());
  Layers.record_counts ~requests:r.Loadgen.completed [ sys ];
  attribution r;
  Measure.seti ~exact:true "loadgen.retransmits" "count" r.Loadgen.retransmits;
  Measure.seti ~exact:true "loadgen.dup_responses" "count"
    r.Loadgen.dup_responses;
  Measure.seti ~exact:true "loadgen.open_hwm" "requests"
    (Rcoe_obs.Reqtrace.open_hwm r.Loadgen.rt);
  (* Checker domains allocate on their own heaps, so the calling
     domain's minor-word count is exact only for lockstep. *)
  Measure.set ~exact:(variant = Lockstep) "gc.minor_words_per_kcycle"
    "words/kcycle"
    (mw /. (float_of_int (System.now sys) /. 1e3));
  if trace then begin
    (* Interp is the oracle for Blocks: the lockstep serve must be
       identical on both, cycle for cycle. Untimed. *)
    (if variant = Lockstep then
       let oracle =
         Measure.span "oracle.loadgen.run" (fun () ->
             serve (config variant ~backend:Config.Interp ~sim_seed) ~gen_seed)
       in
       let same = ident oracle = ident r in
       Measure.check "identity.interp_blocks" same
         (Printf.sprintf "interp %d cycles digest %08x vs blocks %d cycles digest %08x"
            (System.now oracle.Loadgen.sys) oracle.Loadgen.outcome_digest
            (System.now sys) r.Loadgen.outcome_digest));
    (* Per-call costs on the first unit's end state. Order matters: the
       capture and vote probes only read; the step probe drives the
       server with fresh frames first; add_words corrupts replica 0's
       accumulator, so it runs last. *)
    let words_copied = Layers.counter sys "ckpt.words_copied" in
    let votes = Layers.counter sys "sync.votes" in
    let replica_cycles =
      float_of_int (System.now sys) *. float_of_int (List.length (System.live sys))
    in
    let capture_ns =
      if words_copied > 0 then Layers.capture_ns_per_word sys else 0.0
    in
    Measure.set "ckpt.capture_ns_per_word" "ns" capture_ns;
    let agree_ns = if votes > 0 then Layers.agree_ns sys else 0.0 in
    Measure.set "vote.agree_ns" "ns" agree_ns;
    let frames = request_frames ~gen_seed 64 in
    let inputs = r.Loadgen.issued + r.Loadgen.retransmits in
    let inputlog_ns =
      if variant = Replay then Layers.inputlog_ns_per_event frames else 0.0
    in
    Measure.set "replay.inputlog_ns_per_event" "ns" inputlog_ns;
    (match System.netdev sys with
    | Some net ->
        List.iter
          (fun p -> Netdev.inject net ~now:(System.now sys) p)
          (List.filteri (fun i _ -> i < window) frames)
    | None -> ());
    System.run sys ~max_cycles:3_000;
    System.replay_drain sys;
    let step_ns = Layers.kernel_step_ns sys in
    Measure.set "machine.step_ns" "ns" step_ns;
    Measure.set "signature.add_words_ns" "ns"
      (if votes > 0 then Layers.add_words_ns sys else 0.0);
    (* Estimated share of the run span per layer: per-call cost times
       the unit's exact call counts. *)
    let run_s = Measure.median (Measure.span_durations "loadgen.run") in
    let est =
      [
        ("est.machine_s", step_ns *. replica_cycles);
        ("est.vote_s", agree_ns *. float_of_int votes);
        ( "est.ckpt_s",
          capture_ns *. float_of_int words_copied );
        ("est.replay_s", inputlog_ns *. float_of_int inputs);
      ]
    in
    List.iter (fun (k, ns) -> Measure.set k "s" (ns /. 1e9)) est;
    Measure.set "run.span_s" "s" run_s;
    Measure.set "engine.residual_s" "s"
      (run_s -. List.fold_left (fun acc (_, ns) -> acc +. (ns /. 1e9)) 0.0 est)
  end
