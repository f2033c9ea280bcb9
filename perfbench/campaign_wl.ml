(* campaign: a fixed range of fault-injection trials, run one after
   another through the harness's public per-trial entry points — Table
   VII x86 memory-flip trials on the KV server over Base, LC-DMR, CC-DMR
   and LC-TMR, and CC-DMR md5sum recovery trials (transient and
   persistent, with checkpointing). The paper's campaigns need thousands
   of trials, so per-trial System.create, checkpoint restore and
   rollback escalation, the injector and outcome classification
   dominate here. *)

open Rcoe_core
open Rcoe_harness
open Rcoe_faults

(* 17 rounds of the six trial kinds: 102 trials, so the p90 trial time
   has ten trials beyond it. Round [r] runs every kind with trial seed
   [Seeds.trial seed r]. *)
let rounds = 17

type kind = { label : string; trial : seed:int -> Outcome.t; recovery : bool }

let memory label mode n =
  {
    label;
    trial = (fun ~seed -> fst (Fault_experiments.one_trial_for_debug ~mode ~n ~seed));
    recovery = false;
  }

let recovery label fault =
  {
    label;
    trial =
      (fun ~seed ->
        let o, _, _, _ =
          Fault_experiments.recovery_trial ~checkpointing:true ~fault ~seed ()
        in
        o);
    recovery = true;
  }

let kinds =
  [
    memory "base" Config.Base 1;
    memory "lc_dmr" Config.LC 2;
    memory "cc_dmr" Config.CC 2;
    memory "lc_tmr" Config.LC 3;
    recovery "recovery_transient" `Transient;
    recovery "recovery_persistent" `Persistent;
  ]

(* Outcome class names as metric suffixes; the match is exhaustive so a
   new class cannot go unreported. *)
let slug = function
  | Outcome.No_error -> "no_error"
  | Outcome.Ycsb_corruption -> "ycsb_corruption"
  | Outcome.Ycsb_error -> "ycsb_error"
  | Outcome.User_mem_fault -> "user_mem_fault"
  | Outcome.User_other_fault -> "user_other_fault"
  | Outcome.Kernel_exception -> "kernel_exception"
  | Outcome.Barrier_timeout -> "barrier_timeout"
  | Outcome.Signature_mismatch -> "signature_mismatch"
  | Outcome.Masked -> "masked"
  | Outcome.Recovered -> "recovered"
  | Outcome.Ingress_dropped -> "ingress_dropped"
  | Outcome.System_reboot -> "system_reboot"

let classes =
  Outcome.
    [
      No_error; Ycsb_corruption; Ycsb_error; User_mem_fault; User_other_fault;
      Kernel_exception; Barrier_timeout; Signature_mismatch; Masked; Recovered;
      Ingress_dropped; System_reboot;
    ]

(* The systems a trial builds before its first simulated cycle, with the
   trial's own configurations: the KV server per memory-trial mode, and
   md5sum on CC-DMR with checkpointing for recovery. *)
let kv_config mode n ~seed =
  {
    (Runner.config_for ~mode ~nreplicas:n ~arch:Rcoe_machine.Arch.X86
       ~with_net:true ~seed ())
    with
    Config.barrier_timeout = 200_000;
  }

let recovery_config ~seed =
  {
    (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:Rcoe_machine.Arch.X86
       ~seed:(seed * 17) ())
    with
    Config.barrier_timeout = 600_000;
    checkpoint_every = 2;
    checkpoint_depth = 3;
    max_rollbacks = 8;
  }

let recovery_program ~seed =
  Rcoe_workloads.Md5sum.program ~message_words:96 ~iters:12 ~seed:(seed * 3)
    ~branch_count:false ()

let setup_sample ~seed ~traced =
  let one (config, build) =
    let program, tp =
      Measure.time (fun () -> Measure.span "setup.program" build)
    in
    let analyses =
      if not traced then []
      else
        let _, tl =
          Measure.time (fun () ->
              Measure.span "setup.lint" (fun () -> Rcoe_isa.Lint.analyze program))
        in
        let _, te =
          Measure.time (fun () ->
              if config.Config.with_net then
                Measure.span "setup.eligibility" (fun () ->
                    ignore (Eligibility.check ~config ~program)))
        in
        [ ("setup.lint_s", tl); ("setup.eligibility_s", te) ]
    in
    let _, tc =
      Measure.time (fun () ->
          Measure.span "setup.create" (fun () -> System.create ~config ~program))
    in
    [ ("setup.program_s", tp); ("setup.create_s", tc) ] @ analyses
  in
  List.concat_map one
    (List.map
       (fun (mode, n) ->
         let config = kv_config mode n ~seed in
         (config, fun () -> Kv_run.program_for ~config ~records:100 ~operations:120))
       [ (Config.Base, 1); (Config.LC, 2); (Config.CC, 2); (Config.LC, 3) ]
    @ [ (recovery_config ~seed, fun () -> recovery_program ~seed) ])

(* [Checkpoint.restore_memory] of a two-delta chain on a recovery
   trial's system, part-way through its run. Median seconds per
   restore. *)
let restore_s ~seed =
  let sys =
    System.create ~config:(recovery_config ~seed) ~program:(recovery_program ~seed)
  in
  let mem = (System.machine sys).Rcoe_machine.Machine.mem in
  let lay = System.layout sys in
  let ring = Checkpoint.create ~depth:3 in
  let capture kind =
    Checkpoint.push ring
      (Checkpoint.capture mem lay ~kind ~cycle:(System.now sys) ~round_seq:0
         ~ticks:0 ~prim:(System.primary sys) ~replicas:(Layers.live_images sys))
  in
  System.run sys ~max_cycles:150_000;
  capture Checkpoint.Full;
  System.run sys ~max_cycles:50_000;
  capture Checkpoint.Delta;
  System.run sys ~max_cycles:50_000;
  capture Checkpoint.Delta;
  match Checkpoint.newest ring with
  | None -> 0.0
  | Some snap ->
      Measure.median
        (List.init 15 (fun _ ->
             snd
               (Measure.time (fun () ->
                    Checkpoint.restore_memory mem lay ring snap))))

let run ~seed ~seconds ~trace =
  (* A unit is one round (each kind once); units cycle through the
     fixed [rounds], so every trial of the range runs at least once. A
     traced run plays each round twice, untraced then traced, so the
     tracing overhead compares the same trials. *)
  let round i = 1 + ((if trace then i / 2 else i) mod rounds) in
  let outcomes = Hashtbl.create 128 in
  let rs =
    Runloop.units
      ~min_reps:(if trace then 2 * rounds else rounds)
      ~seconds ~trace ~setups:1
      ~setup:(setup_sample ~seed:(Seeds.trial seed 1))
      (fun i ~traced:_ ->
        let r = round i in
        let results =
          List.map
            (fun k ->
              let trial_seed = Seeds.trial seed r in
              let o, dt =
                Measure.time (fun () ->
                    Measure.span ("trial." ^ k.label) (fun () ->
                        try Ok (k.trial ~seed:trial_seed)
                        with e -> Error (Printexc.to_string e)))
              in
              (* Every trial classifies: an exception out of a trial is
                 a simulator failure, not an outcome. A recovery trial
                 must end controlled — recovered, or fail-stopped by
                 detection — and a repeated trial must classify the
                 same way. *)
              Measure.check "campaign.classifies" (Result.is_ok o)
                (match o with
                | Ok _ -> ""
                | Error e ->
                    Printf.sprintf "%s trial seed %d raised %s" k.label
                      trial_seed e);
              let ok =
                match o with
                | Error _ -> false
                | Ok o ->
                    let controlled = (not k.recovery) || Outcome.controlled o in
                    if k.recovery then
                      Measure.check ("campaign." ^ k.label) controlled
                        ("uncontrolled recovery outcome: " ^ Outcome.to_string o);
                    let repeated =
                      match Hashtbl.find_opt outcomes (r, k.label) with
                      | Some o' -> o' = o
                      | None ->
                          Hashtbl.replace outcomes (r, k.label) o;
                          true
                    in
                    Measure.check "campaign.repeatable" repeated
                      (Printf.sprintf "round %d %s classified differently: %s"
                         r k.label (Outcome.to_string o));
                    controlled && repeated
              in
              Measure.ops 1 ~bad:(if ok then 0 else 1);
              (k.label, dt))
            kinds
        in
        (results, List.fold_left (fun a (_, dt) -> a +. dt) 0.0 results))
  in
  let tps = Runloop.rate rs (fun _ -> float_of_int (List.length kinds)) in
  Measure.set "trials_per_s" "1/s" tps;
  Runloop.report_ops tps;
  let trial_ms label =
    List.concat_map
      (fun (results, _) ->
        List.filter_map
          (fun (l, dt) ->
            if label = None || label = Some l then Some (dt *. 1e3) else None)
          results)
      rs
  in
  let all = trial_ms None in
  Measure.set "trial_ms_p50" "ms" (Rcoe_util.Stats.percentile 50.0 all);
  Measure.set "trial_ms_p90" "ms" (Rcoe_util.Stats.percentile 90.0 all);
  Measure.seti "trial_samples" "count" (List.length all);
  List.iter
    (fun k ->
      Measure.set ("campaign.trial_ms." ^ k.label) "ms"
        (Measure.median (trial_ms (Some k.label))))
    kinds;
  let all_outcomes = Hashtbl.fold (fun _ o acc -> o :: acc) outcomes [] in
  let count c = List.length (List.filter (( = ) c) all_outcomes) in
  List.iter
    (fun c ->
      Measure.seti ~exact:true ("campaign.outcome." ^ slug c) "count" (count c))
    classes;
  let uncontrolled =
    List.length (List.filter (fun o -> not (Outcome.controlled o)) all_outcomes)
  in
  Measure.set ~exact:true "uncontrolled_frac" "frac"
    (float_of_int uncontrolled /. float_of_int (List.length all_outcomes));
  if trace then begin
    Measure.set "ckpt.restore_s" "s" (restore_s ~seed:(Seeds.trial seed 1));
    (* Nothing inside a trial is timed on its own: the trial spans are
       all residual. *)
    let spans =
      List.concat_map (fun k -> Measure.span_durations ("trial." ^ k.label)) kinds
    in
    let per_round =
      List.fold_left ( +. ) 0.0 spans
      /. float_of_int (max 1 (List.length spans / List.length kinds))
    in
    Measure.set "run.span_s" "s" per_round;
    Measure.set "engine.residual_s" "s" per_round
  end
