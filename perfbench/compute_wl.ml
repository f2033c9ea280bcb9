(* compute-base: md5sum, dhrystone and whetstone, each on a fresh Base
   system with the Blocks backend. Instruction execution is nearly all
   of the work; the sync shell, voting, checkpoints, the NIC and the
   load generator do none, so shell and serving optimisations should
   show no change here. *)

open Rcoe_core
open Rcoe_workloads
module Program = Rcoe_isa.Program

(* Sized so one unit (all three kernels) takes about half a second on
   the Blocks backend. *)
let kernels seed =
  [
    ( "md5sum",
      (fun () ->
        Md5sum.program ~message_words:128 ~iters:120 ~seed:(Seeds.message seed)
          ~branch_count:false ()),
      Md5sum.digest_label );
    ( "dhrystone",
      (fun () -> Dhrystone.program ~loops:12_500 ~branch_count:false ()),
      Dhrystone.result_label );
    ( "whetstone",
      (fun () -> Whetstone.program ~loops:2_000 ~branch_count:false ()),
      Whetstone.result_label );
  ]

let config ~backend ~sim_seed =
  {
    (Rcoe_harness.Runner.config_for ~mode:Config.Base ~nreplicas:1
       ~arch:Rcoe_machine.Arch.X86 ~seed:sim_seed ())
    with
    Config.engine = Config.Sequential;
    exec_backend = backend;
  }

let max_cycles = 200_000_000

(* What a kernel run produced: cycles, console output and the result
   block its program writes last. *)
type outcome = { cycles : int; output : string; result : int array }

let outcome sys program label =
  let len =
    List.fold_left
      (fun acc b ->
        if b.Program.block_label = label then Array.length b.Program.block_init
        else acc)
      0 program.Program.data
  in
  {
    cycles = System.now sys;
    output = System.output sys 0;
    result =
      Rcoe_kernel.Kernel.read_user_block (System.kernel sys 0)
        ~va:(Program.data_addr program label) ~len;
  }

type kernel_run = {
  sys : System.t;
  out : outcome;
  finished : bool;
  dt : float;  (** Host seconds of [System.run]. *)
  mw : float;  (** Minor words allocated by [System.run]. *)
}

let run_kernel ?(span = "system.run") config (_, build, label) =
  let program = build () in
  let sys = System.create ~config ~program in
  let mw0 = Measure.minor_words () in
  let (), dt =
    Measure.time (fun () ->
        Measure.span span (fun () -> System.run sys ~max_cycles))
  in
  let mw = Measure.minor_words () -. mw0 in
  {
    sys;
    out = outcome sys program label;
    finished = System.finished sys && System.halted sys = None;
    dt;
    mw;
  }

let run ~seed ~seconds ~trace =
  let sim_seed = Seeds.sim seed in
  let cfg = config ~backend:Config.Blocks ~sim_seed in
  let ks = kernels seed in
  (* No NIC, so no eligibility analysis runs at create. *)
  let setup ~traced =
    List.concat_map
      (fun (_, build, _) ->
        let program, tp =
          Measure.time (fun () -> Measure.span "setup.program" build)
        in
        let lint =
          if traced then
            let _, tl =
              Measure.time (fun () ->
                  Measure.span "setup.lint" (fun () ->
                      Rcoe_isa.Lint.analyze program))
            in
            [ ("setup.lint_s", tl); ("setup.eligibility_s", 0.0) ]
          else []
        in
        let _, tc =
          Measure.time (fun () ->
              Measure.span "setup.create" (fun () ->
                  System.create ~config:cfg ~program))
        in
        [ ("setup.program_s", tp); ("setup.create_s", tc) ] @ lint)
      ks
  in
  (* The interpreter is the oracle: every Blocks run must match its
     cycles, console output and result block exactly. Untimed. *)
  let oracle =
    List.map
      (fun k ->
        let o =
          run_kernel ~span:"oracle.system.run"
            (config ~backend:Config.Interp ~sim_seed)
            k
        in
        (o.out, o.finished))
      ks
  in
  let md5_expected =
    Md5sum.expected_digest ~message_words:128 ~seed:(Seeds.message seed)
  in
  let first = ref [] in
  let rs =
    Runloop.units ~min_reps:3 ~seconds ~trace ~setups:1 ~setup (fun i ~traced:_ ->
        let runs = List.map (run_kernel cfg) ks in
        List.iter2
          (fun ((name, _, _), k) (oracle_out, oracle_finished) ->
            let same = k.finished && oracle_finished && k.out = oracle_out in
            let md5_ok =
              name <> "md5sum"
              || (k.out.result = md5_expected
                 && String.for_all (fun c -> c = '.') k.out.output
                 && k.out.output <> "")
            in
            Measure.check ("compute." ^ name) (same && md5_ok)
              (Printf.sprintf
                 "blocks %d cycles, output %S vs interp %d cycles, output %S"
                 k.out.cycles k.out.output oracle_out.cycles oracle_out.output);
            Measure.ops 1 ~bad:(if same && md5_ok then 0 else 1))
          (List.combine ks runs) oracle;
        if i = 0 then first := List.map (fun k -> k.sys) runs;
        let cycles = List.fold_left (fun a k -> a + k.out.cycles) 0 runs in
        let mw = List.fold_left (fun a k -> a +. k.mw) 0.0 runs in
        ((cycles, mw), List.fold_left (fun a k -> a +. k.dt) 0.0 runs))
  in
  let (cycles, mw), _ = List.hd rs in
  let cycles_per_s = Runloop.rate rs (fun (c, _) -> float_of_int c) in
  Measure.set "sim_mcycles_per_s" "Mcycles/s" (cycles_per_s /. 1e6);
  Runloop.report_ops (cycles_per_s /. 1e6);
  Measure.set "machine.host_ns_per_cycle" "ns" (1e9 /. cycles_per_s);
  Measure.seti ~exact:true "sim_cycles" "cycles" cycles;
  Measure.set ~exact:true "gc.minor_words_per_kcycle" "words/kcycle"
    (mw /. (float_of_int cycles /. 1e3));
  Layers.record_counts ~requests:0 !first;
  if trace then begin
    (* Blockc.run bursts on each kernel's own state, part-way in. *)
    let burst =
      Measure.median
        (List.map
           (fun (_, build, _) ->
             let sys = System.create ~config:cfg ~program:(build ()) in
             System.run sys ~max_cycles:50_000;
             Layers.burst_ns_per_cycle sys)
           ks)
    in
    Measure.set "machine.burst_ns_per_cycle" "ns" burst;
    (* A traced unit is one System.run span per kernel. *)
    let spans = Measure.span_durations "system.run" in
    let run_span =
      List.fold_left ( +. ) 0.0 spans
      /. float_of_int (max 1 (List.length spans / List.length ks))
    in
    let est_machine = burst *. float_of_int cycles /. 1e9 in
    Measure.set "est.machine_s" "s" est_machine;
    Measure.set "run.span_s" "s" run_span;
    Measure.set "engine.residual_s" "s" (run_span -. est_machine)
  end
