(* The round lifecycle and the per-cycle stepper. [create] builds a
   system ([State.t]); [classic_cycle] advances it by one simulated
   cycle — machine tick, every replica stepped in rid order, then the
   round state machine — and [burst_cycles] covers quiescent stretches
   in one bit-identical burst. Rounds gather the replicas (IPI, publish,
   catch-up to the leader) or rendezvous them at an FT operation, and
   end in one vote through [finish_round]. What a round decides is
   delegated: [Ft_ops] stages the FT operation, [Recovery] masks or
   rolls back a mismatch and takes checkpoints. The run loops are
   [Engine_seq] and [Engine_replay]; [System] is the public facade. *)

open Rcoe_machine
open Rcoe_kernel
open State
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics

(* ---------------------------------------------------------------------- *)
(* Construction                                                            *)
(* ---------------------------------------------------------------------- *)

let check_program cfg (program : Rcoe_isa.Program.t) =
  let profile = Arch.profile_of cfg.Config.arch in
  if cfg.Config.mode = Config.CC then begin
    (match Rcoe_isa.Check.exclusives program with
    | [] -> ()
    | (addr, i) :: _ ->
        invalid_arg
          (Printf.sprintf
             "System.create: CC-RCoE forbids exclusives (use Sys_atomic): %s \
              at %d"
             (Rcoe_isa.Instr.to_string i) addr));
    if
      profile.Arch.count_mode = Arch.Compiler_assisted
      && not program.Rcoe_isa.Program.branch_counted
    then
      invalid_arg
        "System.create: compiler-assisted CC-RCoE requires a branch-counted \
         program (assemble with ~branch_count:true)"
  end

(* The static analyzer runs on every program; its report is kept on the
   system for callers. Under [strict_lint] a rejected program — or a
   racy one under loose coupling, the silent-divergence case the paper
   warns about — refuses to start. *)
let lint_program cfg (program : Rcoe_isa.Program.t) =
  let lint =
    Rcoe_isa.Lint.analyze
      ~exit_syscalls:[ Syscall.sys_exit ]
      ~spawn_syscall:Syscall.sys_spawn program
  in
  if cfg.Config.strict_lint then begin
    let first_error () =
      match
        List.find_opt
          (fun f -> f.Rcoe_isa.Lint.f_severity = Rcoe_isa.Lint.Error)
          lint.Rcoe_isa.Lint.findings
      with
      | Some f -> f.Rcoe_isa.Lint.f_message
      | None -> "rejected"
    in
    match lint.Rcoe_isa.Lint.verdict with
    | Rcoe_isa.Lint.Rejected ->
        invalid_arg
          (Printf.sprintf "System.create: %s rejected by the static \
                           analyzer: %s"
             program.Rcoe_isa.Program.name (first_error ()))
    | Rcoe_isa.Lint.CC_required when cfg.Config.mode = Config.LC ->
        invalid_arg
          (Printf.sprintf
             "System.create: %s has unprotected shared-memory races and \
              requires closely-coupled execution; LC replicas may \
              silently diverge"
             program.Rcoe_isa.Program.name)
    | Rcoe_isa.Lint.CC_required | Rcoe_isa.Lint.LC_safe -> ()
  end;
  lint

let create ~config:cfg ~program =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("System.create: " ^ msg));
  check_program cfg program;
  let lint = lint_program cfg program in
  let profile = Arch.profile_of cfg.Config.arch in
  let lay =
    Layout.compute ~nreplicas:cfg.Config.nreplicas
      ~user_words:cfg.Config.user_words
  in
  let trace =
    match cfg.Config.trace with
    | Some tc -> Trace.create tc
    | None -> Trace.disabled ()
  in
  let mach =
    Machine.create ~trace ~profile ~mem_words:lay.Layout.total_words
      ~ncores:cfg.Config.nreplicas ~seed:cfg.Config.seed ()
  in
  let net, net_dpn =
    if cfg.Config.with_net then begin
      let nd =
        Netdev.create ~mem:mach.Machine.mem ~dma_base:lay.Layout.dma_base
          ~dma_words:lay.Layout.dma_words
      in
      let dpn = Machine.add_device mach (Netdev.device nd) in
      (Some nd, dpn)
    end
    else (None, -1)
  in
  let metrics = Metrics.create () in
  let ms = make_metric_set metrics in
  let tref = ref None in
  let callbacks =
    {
      Kernel.cb_info =
        (fun rid key ->
          match !tref with
          | None -> 0
          | Some t -> (
              match key with
              | 0 -> rid
              | 1 -> t.cfg.Config.nreplicas
              | 2 -> t.prim
              | 3 -> if t.cfg.Config.mode = Config.CC then 1 else 0
              | 4 -> Kernel.current_tid t.replicas.(rid).kern
              | 5 -> t.ticks
              | 6 -> if t.cfg.Config.ingress_check then 1 else 0
              | _ -> 0));
      Kernel.cb_kernel_update =
        (fun rid words ->
          match !tref with
          | None -> ()
          | Some t ->
              if t.cfg.Config.mode <> Config.Base then
                Signature.add_words (mem t) ~base:(sig_base t rid) words);
    }
  in
  let replicas =
    Array.init cfg.Config.nreplicas (fun rid ->
        let backend =
          match cfg.Config.exec_backend with
          | Config.Interp -> Rcoe_machine.Blockc.Interp
          | Config.Blocks -> Rcoe_machine.Blockc.Blocks
        in
        let kern =
          Kernel.create ~backend ~machine:mach ~rid
            ~core_id:rid ~layout:lay ~program ~callbacks ()
        in
        {
          rid;
          kern;
          state = Rs_run;
          finished = false;
          pending_ft = None;
          joined = false;
          defer_publish = false;
          tr_phase = None;
          arrived_at = -1;
          move_started = -1;
        })
  in
  (* Device-window mapping plans (primary role). *)
  let page = Layout.page_size in
  let mmio_plan =
    if cfg.Config.with_net then
      [ ( Layout.va_mmio / page,
          {
            Page_table.valid = true;
            writable = true;
            dma = false;
            device = true;
            ppn = net_dpn;
          } ) ]
    else []
  in
  let dma_plan =
    if cfg.Config.with_net then
      List.init (lay.Layout.dma_words / page) (fun i ->
          ( (Layout.va_dma / page) + i,
            {
              Page_table.valid = true;
              writable = true;
              dma = true;
              device = false;
              ppn = (lay.Layout.dma_base / page) + i;
            } ))
    else []
  in
  let t =
    {
      cfg;
      mach;
      lay;
      lint;
      replicas;
      net;
      net_dpn;
      mmio_plan;
      dma_plan;
      prim = 0;
      phase = Ph_idle;
      next_tick = cfg.Config.tick_interval;
      ticks = 0;
      halt = None;
      downgrade_log = [];
      event_log = [];
      round_seq = 0;
      after_save = None;
      pending_reintegrate = None;
      reintegration_log = [];
      event_log_len = 0;
      ckpts =
        (if cfg.Config.checkpoint_every > 0 then
           Some (Checkpoint.create ~depth:cfg.Config.checkpoint_depth)
         else None);
      rounds_since_ckpt = 0;
      rollbacks_done = 0;
      retries_at_newest = 0;
      escalations = 0;
      rollback_log = [];
      metrics;
      ms;
      trace;
      fp =
        {
          bursts = 0;
          burst_cycles = 0;
          classic_cycles = 0;
          end_event = 0;
          end_tick = 0;
          end_device = 0;
          end_ipi = 0;
          end_budget = 0;
          declined_phase = 0;
          declined_state = 0;
          declined_window = 0;
        };
      burst_set = [||];
      burst_rid = Array.make cfg.Config.nreplicas 0;
      rp = None;
    }
  in
  tref := Some t;
  (* Per-replica address spaces and role-dependent windows. *)
  Array.iter
    (fun r ->
      let k = r.kern in
      Kernel.setup_address_space k;
      if cfg.Config.with_net then begin
        let is_primary = r.rid = t.prim in
        (* MMIO window. *)
        if is_primary then
          List.iter
            (fun (vpn, pte) -> Kernel.map_page ~quiet:true k ~vpn pte)
            mmio_plan
        else begin
          let alias = Kernel.alloc_frame_high k in
          Kernel.map_page ~quiet:true k ~vpn:(Layout.va_mmio / page)
            {
              Page_table.valid = true;
              writable = true;
              dma = false;
              device = false;
              ppn = alias;
            }
        end;
        (* DMA window: the primary sees the real region; others see private
           shadow frames. All carry the DMA mark so a new primary can find
           and patch them (paper Section IV-A). *)
        if is_primary then
          List.iter
            (fun (vpn, pte) -> Kernel.map_page ~quiet:true k ~vpn pte)
            dma_plan
        else
          List.iter
            (fun (vpn, _) ->
              let shadow = Kernel.alloc_frame_high k in
              Kernel.map_page ~quiet:true k ~vpn
                {
                  Page_table.valid = true;
                  writable = true;
                  dma = true;
                  device = false;
                  ppn = shadow;
                })
            dma_plan;
        map_input_buffer t k ~writable:is_primary
      end;
      ignore (Kernel.spawn k ~entry:program.Rcoe_isa.Program.entry ~arg:0);
      Kernel.start k;
      (* Role mappings differ per replica; baseline the signature after
         setup so replicas start equal. *)
      Signature.reset (mem t) ~base:(sig_base t r.rid))
    replicas;
  Machine.route_irqs_to mach t.prim;
  t

(* ---------------------------------------------------------------------- *)
(* Round lifecycle                                                         *)
(* ---------------------------------------------------------------------- *)

(* All replicas leave a barrier together: the round completes when the
   slowest replica's pending kernel work (e.g. the last arriver's final
   debug exception) is done, so every survivor resumes with the *same*
   residual stall. Without equalisation the last arriver would restart
   behind the pack and permanently seed the next round's drift; zeroing
   instead would erase legitimately charged kernel time. *)
let equalize_stalls t =
  let mx =
    List.fold_left
      (fun acc r -> max acc (Kernel.core r.kern).Core.stall)
      0 (live_replicas t)
  in
  List.iter
    (fun r ->
      match r.state with
      | Rs_removed | Rs_halted -> ()
      | _ -> (Kernel.core r.kern).Core.stall <- mx)
    (live_replicas t)

let resume_replica t r =
  r.joined <- false;
  r.defer_publish <- false;
  tp_end t r;
  if r.arrived_at >= 0 then begin
    Metrics.observe t.ms.m_barrier_wait (float_of_int (now t - r.arrived_at));
    r.arrived_at <- -1
  end;
  match r.state with
  | Rs_removed | Rs_halted -> ()
  | _ ->
      charge r 60;
      vm_charge t r;
      r.state <- Rs_run

(* The preemption tick on replica [r], through the after-save hook (the
   register fault injector's window) when one is set. *)
let preempt t r =
  match t.after_save with
  | None -> Kernel.preempt r.kern
  | Some f ->
      Kernel.preempt
        ~after_save:(fun ~tid ~ctx_addr -> f ~rid:r.rid ~tid ~ctx_addr)
        r.kern

let rec deliver_events t = function
  | [] -> ()
  | ev :: evs ->
      (match ev with
      | Tick ->
          t.ticks <- t.ticks + 1;
          Metrics.incr t.ms.m_ticks;
          List.iter
            (fun r -> if not r.finished then preempt t r)
            (live_replicas t)
      | Dev_irq dpn ->
          List.iter
            (fun r ->
              if not r.finished then ignore (Kernel.wake_irq_waiters r.kern ~dpn))
            (live_replicas t));
      deliver_events t evs

let end_round t =
  Trace.round_end t.trace ~seq:t.round_seq;
  t.phase <- Ph_idle;
  Recovery.maybe_checkpoint t

let complete_round t ~events ~reintegrate =
  deliver_events t events;
  Array.iter (fun r -> r.pending_ft <- None) t.replicas;
  if reintegrate then Recovery.maybe_reintegrate t;
  equalize_stalls t;
  List.iter (resume_replica t) (live_replicas t);
  end_round t

(* Completion of a round: every live replica is parked at the same
   logical point. Stage the rendezvoused FT operation (if any), vote,
   and on success commit it, deliver the round's [events], and resume
   everyone. Divergent pending FT operations are a detected divergence:
   if masking survives it, the round resumes without its events. Only
   an asynchronous round may [reintegrate] a removed replica. *)
let finish_round t ~events ~reintegrate =
  match List.map (fun r -> r.pending_ft) (live_replicas t) with
  | ft :: rest when not (List.for_all (fun f -> f = ft) rest) ->
      Recovery.publish_signatures t;
      if Recovery.handle_mismatch t ~io_in_flight:false then
        complete_round t ~events:[] ~reintegrate:false
  | Some (num, args) :: _ ->
      Metrics.incr t.ms.m_ft_rounds;
      let commit = Ft_ops.ft_stage t num args in
      Recovery.vote_signatures t ~io_in_flight:(Ft_ops.io_in_flight num args)
        (fun () ->
          commit ();
          complete_round t ~events ~reintegrate)
  | _ ->
      (* No FT operation: an interrupt round or a Sync_vote rendezvous
         votes only. *)
      Recovery.vote_signatures t ~io_in_flight:false (fun () ->
          complete_round t ~events ~reintegrate)

(* ---------------------------------------------------------------------- *)
(* Joining and catch-up                                                    *)
(* ---------------------------------------------------------------------- *)

let publish_clock t r clk =
  let enc = Clock.encode clk in
  let base = (shared t).Layout.time_base + (4 * r.rid) in
  Array.iteri (fun i w -> Mem.write (mem t) (base + i) w) enc;
  Mem.write (mem t) ((shared t).Layout.bar_base + r.rid) t.round_seq;
  charge r publish_cost

let read_clock t rid =
  let base = (shared t).Layout.time_base + (4 * rid) in
  Clock.decode (Array.init 4 (fun i -> Mem.read (mem t) (base + i)))

let arrived_bar t rid =
  Mem.read (mem t) ((shared t).Layout.bar_base + rid) = t.round_seq

(* Join the gather stage at a kernel entry. *)
let join_gather t r =
  if not r.joined then begin
    r.joined <- true;
    Machine.clear_ipi t.mach ~core_id:r.rid;
    let count = event_count t r in
    let clk =
      (* LC logical time is the event count alone: a replica at a kernel
         entry after [count] events is at position "kernel boundary",
         whatever user instruction it was interrupted at. Only CC
         publishes the precise user position. *)
      if
        t.cfg.Config.mode = Config.CC
        && Kernel.current_tid r.kern >= 0
        && not r.finished
      then Clock.capture (profile t) ~count (Kernel.core r.kern)
      else Clock.in_kernel ~count
    in
    publish_clock t r clk;
    (* Publishing and parking at the barrier are hypervisor crossings
       when the stack runs virtualised. *)
    vm_charge t r;
    tp_begin t r Trace.Gather_wait;
    r.state <- Rs_gather_wait
  end

(* Mark a replica arrived at the final barrier. *)
let arrive t r =
  (Kernel.core r.kern).Core.bp <- None;
  Mem.write (mem t) ((shared t).Layout.bar_base + r.rid) t.round_seq;
  vm_charge t r;
  if r.move_started >= 0 then begin
    Metrics.observe t.ms.m_catchup_cycles
      (float_of_int (now t - r.move_started));
    r.move_started <- -1
  end;
  r.arrived_at <- now t;
  tp_begin t r Trace.Vote_wait;
  r.state <- Rs_vote_wait

(* After the gather completes: elect the leader and set every replica
   moving (or arrived). *)
let start_move t round =
  let lv = live_replicas t in
  let joined = List.filter (fun r -> r.joined) lv in
  let clocks = List.map (fun r -> (r, read_clock t r.rid)) joined in
  match clocks with
  | [] -> ()
  | (_, c0) :: _ ->
      let leader_clock =
        List.fold_left
          (fun acc (_, c) -> if Clock.compare c acc > 0 then c else acc)
          c0 clocks
      in
      t.round_seq <- t.round_seq + 1;
      (* Fresh sequence for the arrival barrier. *)
      List.iter
        (fun (r, c) ->
          if Clock.equal_position c leader_clock then arrive t r
          else begin
            r.move_started <- now t;
            (* Catch-up distance (the drift the round must absorb):
               completed-branch deficit between two precise user
               positions, event-count deficit otherwise. *)
            let dist =
              match (c.Clock.pos, leader_clock.Clock.pos) with
              | ( Clock.At_user { branches_adj = a; _ },
                  Clock.At_user { branches_adj = la; _ } ) ->
                  la - a
              | _ -> leader_clock.Clock.count - c.Clock.count
            in
            Metrics.observe t.ms.m_catchup_dist (float_of_int (max 0 dist));
            match t.cfg.Config.mode with
            | Config.LC | Config.Base ->
                tp_begin t r Trace.Chase;
                r.state <- Rs_chase leader_clock.Clock.count
            | Config.CC ->
                tp_begin t r Trace.Catchup;
                r.state <-
                  Rs_catchup
                    {
                      leader_clock;
                      bp_set = false;
                      pmu_active = false;
                      pmu_done = false;
                    }
          end)
        clocks;
      round.stage <- `Move

(* ---------------------------------------------------------------------- *)
(* Per-cycle replica stepping                                              *)
(* ---------------------------------------------------------------------- *)

let enter_rendezvous t r =
  (match t.phase with
  | Ph_idle ->
      t.round_seq <- t.round_seq + 1;
      Trace.round_begin t.trace ~seq:t.round_seq;
      t.phase <- Ph_rdv { rdv_started = now t }
  | Ph_rdv _ -> ()
  | Ph_async _ -> () (* cannot happen: async joins are taken first *));
  r.arrived_at <- now t;
  tp_begin t r Trace.Rendezvous;
  r.state <- Rs_rendezvous;
  Mem.write (mem t) ((shared t).Layout.bar_base + r.rid) t.round_seq

(* Post-syscall bookkeeping shared by every mode: join/arrive/rendezvous. *)
let post_syscall t r num =
  match t.phase with
  | Ph_async round when round.stage = `Gather -> join_gather t r
  | Ph_async _ -> (
      (* Move stage: arrival checks. *)
      match r.state with
      | Rs_chase target when event_count t r >= target -> arrive t r
      | Rs_catchup cu
        when cu.leader_clock.Clock.pos = Clock.In_kernel
             && event_count t r >= cu.leader_clock.Clock.count
             && Kernel.current_tid r.kern < 0 ->
          arrive t r
      | _ -> ())
  | Ph_idle | Ph_rdv _ -> (
      match r.pending_ft with
      | Some _ -> enter_rendezvous t r
      | None ->
          if
            t.cfg.Config.sync_level = Config.Sync_vote
            && t.cfg.Config.mode <> Config.Base
            && num <> Syscall.sys_exit
          then enter_rendezvous t r)

let on_syscall t r num =
  Signature.bump_event (mem t) ~base:(sig_base t r.rid);
  vm_charge t r;
  if
    t.cfg.Config.mode <> Config.Base
    && (t.cfg.Config.sync_level = Config.Sync_args
       || t.cfg.Config.sync_level = Config.Sync_vote)
  then begin
    let regs = (Kernel.core r.kern).Core.regs in
    let nargs = Syscall.arg_count num in
    let words = Array.init (1 + nargs) (fun i -> if i = 0 then num else regs.(i - 1)) in
    Signature.add_words (mem t) ~base:(sig_base t r.rid) words
  end;
  (match Kernel.handle_syscall r.kern num with
  | Kernel.Sr_local -> ()
  | Kernel.Sr_ft { num = fnum; args } ->
      if t.cfg.Config.mode = Config.Base then Ft_ops.ft_base t r fnum args
      else r.pending_ft <- Some (fnum, args));
  if Kernel.all_exited r.kern then r.finished <- true;
  post_syscall t r num

let on_fault t r fault =
  vm_charge t r;
  (match Kernel.handle_fault r.kern fault with
  | Kernel.Fd_user_fault | Kernel.Fd_user_exception ->
      log_event t (E_user_fault r.rid)
  | Kernel.Fd_kernel_abort a ->
      log_event t (E_kernel_abort r.rid);
      (* Caught by the exception-handler barrier, the replica halts in a
         detectable (fail-stop) way and the others time out. Without
         barriers the abort is uncontrolled: it takes the whole system
         down (mid-round, when replicated). *)
      let barriers = t.cfg.Config.exception_barriers in
      if barriers || t.cfg.Config.mode = Config.Base then begin
        r.state <- Rs_halted;
        (Kernel.core r.kern).Core.halted <- true
      end;
      if not barriers then
        halt_system t (H_kernel_exception (Printf.sprintf "phys abort @%d" a)));
  if Kernel.all_exited r.kern then r.finished <- true;
  if r.state <> Rs_halted then
    match t.phase with
    | Ph_async round when round.stage = `Gather -> join_gather t r
    | _ -> ()

(* React to the event that ended a running replica's cycle. *)
let on_event t r (ev : Core.event) =
  match ev with
  | Core.Ev_syscall n -> on_syscall t r n
  | Core.Ev_fault f -> on_fault t r f
  | Core.Ev_halt ->
      Kernel.exit_current r.kern;
      if Kernel.all_exited r.kern then r.finished <- true
  | Core.Ev_breakpoint ->
      (* Stale breakpoint outside a catch-up: clear and continue. *)
      (Kernel.core r.kern).Core.bp <- None

(* Execute one core cycle of user code for a running/chasing replica. *)
let run_user t r =
  (* An externally halted core (crashed/overclocked/hung) freezes: it
     neither executes nor reaches kernel entries, so the others' barrier
     times out — do not mistake it for a clean thread exit. *)
  if (Kernel.core r.kern).Core.halted then ()
  else if Kernel.current_tid r.kern < 0 then ()
  else
    match Kernel.step r.kern with
    | Core.Ran | Core.Stalled -> (
        (* Deferred publication: a replica IPI'd at a rep-string first
           steps past it (Section III-D). *)
        if r.defer_publish then
          match t.phase with
          | Ph_async { stage = `Gather; _ }
            when not (Core.rep_in_progress (Kernel.core r.kern) (Kernel.env r.kern))
            ->
              r.defer_publish <- false;
              join_gather t r
          | _ -> ())
    | Core.Event ev -> on_event t r ev

let on_ipi t r =
  Machine.clear_ipi t.mach ~core_id:r.rid;
  Metrics.incr t.ms.m_ipis;
  charge r (profile t).Arch.irq_cost;
  vm_charge t r;
  match t.phase with
  | Ph_async { stage = `Gather; _ } ->
      if
        t.cfg.Config.mode = Config.CC
        && Kernel.current_tid r.kern >= 0
        && Core.rep_in_progress (Kernel.core r.kern) (Kernel.env r.kern)
      then begin
        (* Stopped at a rep-string: step past it before publishing a
           precise position (paper Section III-D). *)
        Metrics.incr t.ms.m_rep_steps;
        Trace.rep_step t.trace ~rid:r.rid;
        charge r (profile t).Arch.rep_walk_cost;
        r.defer_publish <- true
      end
      else join_gather t r
  | _ -> ()

(* The branch count a catch-up compares against the leader's: a just-
   retired [Cntinc] has bumped the counter ahead of its branch. *)
let adj_branches p core =
  let raw = Core.branch_count core p in
  if core.Core.last_was_cntinc then raw - 1 else raw

let step_catchup t r cu =
  let core = Kernel.core r.kern in
  let p = profile t in
  let leader = cu.leader_clock in
  let count = event_count t r in
  if count < leader.Clock.count then run_user t r
  else begin
    match leader.Clock.pos with
    | Clock.In_kernel ->
        (* Arrival for kernel-parked leaders happens in post_syscall; a
           replica still running here with the full count has diverged and
           will time the round out. *)
        run_user t r
    | Clock.At_user { branches_adj = leader_adj; ip } ->
        if t.cfg.Config.fast_catchup && (not cu.pmu_done) && not cu.bp_set
        then begin
          (* Paper Section VI: cover most of the branch deficit with a
             PMU-overflow interrupt instead of a debug exception per pass
             over the leader's address; arm the breakpoint only for the
             final stretch. *)
          if cu.pmu_active then begin
            (match Kernel.step r.kern with
            | Core.Ran | Core.Stalled -> ()
            | Core.Event ev -> on_event t r ev);
            if adj_branches p core >= leader_adj - 8 then begin
              cu.pmu_active <- false;
              cu.pmu_done <- true;
              (* The overflow interrupt that ends the fast phase. *)
              charge r p.Arch.irq_cost;
              vm_charge t r;
              tp_begin t r Trace.Catchup
            end
          end
          else if leader_adj - adj_branches p core > 32 then begin
            cu.pmu_active <- true;
            tp_begin t r Trace.Pmu_catchup;
            charge r p.Arch.breakpoint_set_cost
            (* programming the counter *)
          end
          else cu.pmu_done <- true
        end
        else if not cu.bp_set then begin
          cu.bp_set <- true;
          charge r p.Arch.breakpoint_set_cost;
          core.Core.bp <- Some ip;
          (* Already exactly at the leader's position? *)
          let here = Clock.capture p ~count core in
          if Clock.equal_position here leader then arrive t r
        end
        else
          match Kernel.step r.kern with
          | Core.Ran | Core.Stalled -> ()
          | Core.Event Core.Ev_breakpoint ->
              Metrics.incr t.ms.m_bp_fires;
              charge r p.Arch.debug_exception_cost;
              vm_charge t r;
              let here = Clock.capture p ~count:(event_count t r) core in
              if Clock.equal_position here leader then arrive t r
              else begin
                (* Step past the breakpointed address with the resume
                   flag: the bp-fire/single-step pair of Section III-D. *)
                Metrics.incr t.ms.m_single_steps;
                Trace.single_step t.trace ~rid:r.rid;
                core.Core.bp_suppress <- true
              end
          | Core.Event ev ->
              (* A syscall here is divergence: more syscalls than the
                 leader. *)
              on_event t r ev
  end

let step_replica t r =
  match r.state with
  | Rs_removed | Rs_halted -> ()
  | Rs_gather_wait | Rs_vote_wait | Rs_rendezvous ->
      (* Spinning at a barrier: charged kernel work (publishing, voting,
         VM crossings) overlaps the wait instead of deferring resume. *)
      let core = Kernel.core r.kern in
      if core.Core.stall > 0 then core.Core.stall <- core.Core.stall - 1
  | Rs_chase target ->
      if event_count t r >= target then arrive t r else run_user t r
  | Rs_catchup cu -> step_catchup t r cu
  | Rs_run ->
      if (Kernel.core r.kern).Core.halted then ()
      (* A hung core answers neither IPIs nor its own work. *)
      else if Machine.ipi_visible t.mach ~core_id:r.rid then on_ipi t r
      else if r.finished || Kernel.current_tid r.kern < 0 then begin
        (* Finished, or idle with all threads blocked. *)
        match t.phase with
        | Ph_async { stage = `Gather; _ } -> join_gather t r
        | _ -> ()
      end
      else run_user t r

(* ---------------------------------------------------------------------- *)
(* Phase advancement and round initiation                                  *)
(* ---------------------------------------------------------------------- *)

let initiate_round t evs =
  Metrics.incr t.ms.m_rounds;
  t.round_seq <- t.round_seq + 1;
  Trace.round_begin t.trace ~seq:t.round_seq;
  List.iter
    (fun r ->
      r.joined <- false;
      tp_begin t r Trace.Ipi_wait;
      Machine.send_ipi t.mach ~target:r.rid)
    (live_replicas t);
  t.phase <- Ph_async { events = evs; stage = `Gather; round_started = now t }

let base_tick t =
  let r = t.replicas.(0) in
  if not r.finished then begin
    charge r (profile t).Arch.irq_cost;
    vm_charge t r;
    t.ticks <- t.ticks + 1;
    Metrics.incr t.ms.m_ticks;
    preempt t r
  end

let advance_phase t =
  match t.phase with
  | Ph_idle ->
      if t.cfg.Config.mode = Config.Base then begin
        if now t >= t.next_tick then begin
          t.next_tick <- now t + t.cfg.Config.tick_interval;
          base_tick t
        end;
        match Machine.pending_irq t.mach ~core_id:0 with
        | Some dpn ->
            Machine.ack_irq t.mach dpn;
            let r = t.replicas.(0) in
            charge r (profile t).Arch.irq_cost;
            vm_charge t r;
            ignore (Kernel.wake_irq_waiters r.kern ~dpn)
        | None -> ()
      end
      else begin
        let evs = ref [] in
        if now t >= t.next_tick then begin
          (* Absolute cadence: a round that overruns the tick interval
             does not push the next tick out, otherwise replica drift —
             and hence catch-up cost — grows with round duration. Keep a
             quarter-interval minimum spacing so an overloaded system
             still makes forward progress. *)
          t.next_tick <-
            max
              (t.next_tick + t.cfg.Config.tick_interval)
              (now t + (t.cfg.Config.tick_interval / 4));
          if not (finished t) then evs := Tick :: !evs
        end;
        (match Machine.pending_irq t.mach ~core_id:t.prim with
        | Some dpn ->
            Machine.ack_irq t.mach dpn;
            evs := Dev_irq dpn :: !evs
        | None -> ());
        match !evs with [] -> () | evs -> initiate_round t evs
      end
  | Ph_async round -> (
      if now t - round.round_started > t.cfg.Config.barrier_timeout then begin
        let stragglers =
          List.filter
            (fun r ->
              match (round.stage, r.state) with
              | `Gather, _ -> not r.joined
              | `Move, Rs_vote_wait -> false
              | `Move, _ -> true)
            (live_replicas t)
        in
        if Recovery.handle_timeout t ~stragglers then
          round.round_started <- now t (* fresh budget for the survivors *)
      end
      else
        match round.stage with
        | `Gather ->
            if for_all_live t (fun _ r -> r.joined) then start_move t round
        | `Move ->
            if
              for_all_live t (fun t r ->
                  match r.state with
                  | Rs_vote_wait -> arrived_bar t r.rid
                  | _ -> false)
            then finish_round t ~events:round.events ~reintegrate:true)
  | Ph_rdv rdv ->
      if now t - rdv.rdv_started > t.cfg.Config.barrier_timeout then begin
        let stragglers =
          List.filter
            (fun r -> match r.state with Rs_rendezvous -> false | _ -> true)
            (live_replicas t)
        in
        if Recovery.handle_timeout t ~stragglers then rdv.rdv_started <- now t
      end
      else if
        for_all_live t (fun t r ->
            match r.state with
            | Rs_rendezvous -> arrived_bar t r.rid
            | _ -> false)
      then begin
        Metrics.incr t.ms.m_rendezvous;
        finish_round t ~events:[] ~reintegrate:false
      end
      (* A replica that exited (or hung) while the others rendezvous is a
         straggler; without timeout masking it is caught by the barrier
         timeout above, not by a vote — the paper's hanging-replica case. *)

(* ---------------------------------------------------------------------- *)
(* One simulated cycle                                                      *)
(* ---------------------------------------------------------------------- *)

(* The classic cycle: advance the machine, step every replica in rid
   order, then let the round-lifecycle state machine react. The engine
   is exactly this in a loop, short-circuited by [burst_cycles]; it is
   also the oracle the burst is held equal to. *)
let classic_cycle t =
  t.fp.classic_cycles <- t.fp.classic_cycles + 1;
  Machine.tick t.mach;
  for i = 0 to Array.length t.replicas - 1 do
    step_replica t (Array.unsafe_get t.replicas i)
  done;
  advance_phase t

(* Why a burst's fuel ran out: the tightest of its clips. *)
type clip = Clip_budget | Clip_tick | Clip_device | Clip_ipi

(* The fast path, for every detection mode and replica count. Between
   rendezvous events a system spends most cycles in one configuration:
   phase [Ph_idle], every live replica in [Rs_run] executing user code
   with no breakpoint armed, the next preemption tick, device action and
   IPI delivery all in the future. Across such a window every decision
   [classic_cycle] makes is loop-invariant: [step_replica] is [run_user]
   and [advance_phase] does nothing until [now] reaches [next_tick] or a
   device raises its line.

   Eligibility: phase [Ph_idle]; the Blocks backend; every live replica
   in [Rs_run], running user code (core not halted, program not
   finished, a current thread), with no breakpoint armed and
   [bp_suppress] clear. [Rs_removed] replicas are skipped, as
   [step_replica] skips them. Fuel is clipped strictly short of
   [next_tick], of [Netdev.next_event] and of every live replica's
   pending IPI, so the cycle on which any of them lands runs through
   [classic_cycle].

   [Blockc.lockstep] then runs the window: each cycle it ticks the
   machine (so [Machine.now] is exact on every cycle, and trace stamps
   such as bus-stall spans read the true cycle) and steps the live
   replicas' block caches in rid order — the one-replica Base burst is
   its one-element case. It stops at the first event; the cycle is then
   finished exactly as [classic_cycle] would finish it: the event is
   dispatched as [run_user] would, the replicas after the stopper take
   that cycle through [step_replica], and [advance_phase] runs. A guest
   MMIO access also ends the window after its cycle, since it can move
   the device's next action. The result is bit-identical to running
   [classic_cycle] once per consumed cycle; the Interp backend never
   bursts, which makes every Interp-vs-Blocks differential test a
   burst-vs-classic test. Returns the cycles consumed, [0] if
   ineligible. *)
let burst_cycles t ~budget =
  let fp = t.fp in
  match t.phase with
  | Ph_async _ | Ph_rdv _ ->
      fp.declined_phase <- fp.declined_phase + 1;
      0
  | Ph_idle -> (
      let now0 = now t in
      let fuel = ref budget and clip = ref Clip_budget in
      let tick_room = t.next_tick - now0 - 1 in
      if tick_room < !fuel then begin
        fuel := tick_room;
        clip := Clip_tick
      end;
      let n = ref 0 and ok = ref (t.cfg.Config.exec_backend = Config.Blocks) in
      let rid = ref 0 in
      while !ok && !rid < Array.length t.replicas do
        let r = t.replicas.(!rid) in
        (match r.state with
        | Rs_removed -> ()
        | Rs_run -> (
            let ipi_room = t.mach.Machine.ipi_pending.(r.rid) - now0 - 1 in
            if ipi_room < !fuel then begin
              fuel := ipi_room;
              clip := Clip_ipi
            end;
            let core = Kernel.core r.kern in
            match (core.Core.bp, Kernel.block_cache r.kern) with
            | None, Some bc
              when (not core.Core.bp_suppress)
                   && (not core.Core.halted)
                   && (not r.finished)
                   && Kernel.current_tid r.kern >= 0 ->
                if Array.length t.burst_set = 0 then
                  t.burst_set <- Array.make (Array.length t.replicas) bc;
                t.burst_set.(!n) <- bc;
                t.burst_rid.(!n) <- r.rid;
                incr n
            | _ -> ok := false)
        | _ -> ok := false);
        incr rid
      done;
      if not !ok then begin
        fp.declined_state <- fp.declined_state + 1;
        0
      end
      else begin
        (match t.net with
        | None -> ()
        | Some nd -> (
            match Netdev.next_event nd ~after:now0 with
            | Some at when at - now0 - 1 < !fuel ->
                fuel := at - now0 - 1;
                clip := Clip_device
            | _ -> ()));
        if !fuel <= 0 then begin
          fp.declined_window <- fp.declined_window + 1;
          0
        end
        else begin
          let consumed, stop =
            Blockc.lockstep ~mach:t.mach t.burst_set ~n:!n
              ~buses:t.mach.Machine.buses ~fuel:!fuel
          in
          fp.bursts <- fp.bursts + 1;
          fp.burst_cycles <- fp.burst_cycles + consumed;
          (match stop with
          | Blockc.Event (i, ev) ->
              fp.end_event <- fp.end_event + 1;
              let stopper = t.burst_rid.(i) in
              on_event t t.replicas.(stopper) ev;
              for k = stopper + 1 to Array.length t.replicas - 1 do
                step_replica t t.replicas.(k)
              done
          | Blockc.Dev_access -> fp.end_device <- fp.end_device + 1
          | Blockc.Fuel -> (
              match !clip with
              | Clip_budget -> fp.end_budget <- fp.end_budget + 1
              | Clip_tick -> fp.end_tick <- fp.end_tick + 1
              | Clip_device -> fp.end_device <- fp.end_device + 1
              | Clip_ipi -> fp.end_ipi <- fp.end_ipi + 1));
          advance_phase t;
          consumed
        end
      end)

