(* The interprocedural interval/stride analysis (Absint), the footprint
   extraction built on it (Footprint), and the device-footprint verdicts
   they power (Eligibility): the kvstore guest is device-clean under CC
   only, and a crafted raw DMA-ring store is rejected with
   instruction-address provenance. *)

open Rcoe_isa
open Rcoe_core
module Layout = Rcoe_kernel.Layout

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let iv = Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Absint.iv_to_string v))
    ( = )

(* --- Interval domain --------------------------------------------------- *)

let test_ival_ops () =
  let open Absint in
  let j = join_iv (const 4) (const 10) in
  Alcotest.check iv "join of constants keeps the gap as stride"
    (mk ~stride:6 4 10) j;
  (match meet_iv (mk ~stride:4 0 100) (mk 10 20) with
  | None -> Alcotest.fail "meet should be non-empty"
  | Some m ->
      Alcotest.(check int) "meet lo aligned up" 12 m.lo;
      Alcotest.(check int) "meet hi aligned down" 20 m.hi;
      Alcotest.(check int) "meet keeps congruence" 4 m.stride);
  Alcotest.(check bool) "disjoint constants meet empty" true
    (meet_iv (const 3) (const 4) = None);
  Alcotest.check iv "add shifts both bounds" (mk 5 15)
    (add_iv (mk 0 10) (const 5));
  Alcotest.(check int) "add saturates at the symbolic infinity" pos_inf
    (add_iv (mk 0 pos_inf) (const 1)).hi;
  Alcotest.check iv "singleton multiply is exact" (const 42)
    (mul_iv (const 6) (const 7));
  Alcotest.(check bool) "huge multiply degrades to top" true
    (is_top (mul_iv top top));
  (* The abstract ALU must match the machine's shift masking (amount
     land 1023, >= 63 clears) and truncating division. *)
  Alcotest.check iv "shift by 70 clears like the core" (const 0)
    (alu_iv Instr.Shl (const 1) (const 70));
  Alcotest.check iv "division truncates toward zero" (const (-3))
    (alu_iv Instr.Div (const 7) (const (-2)))

(* Branch refinement by [!= c] on a strided interval must stay an
   over-approximation: {0,4,8} minus 0 is {4,8}, so the lower bound
   advances by the stride. Re-anchoring at c+1 would yield {1,5} — an
   under-approximation that once let Footprint shrink address bounds
   on countdown/pointer-walk loops ([p != base] with [p -= stride]). *)
let test_refine_ne_strided () =
  let open Absint in
  (match refine_ne (mk ~stride:4 0 8) 0 with
  | None -> Alcotest.fail "lo-edge refine of a non-singleton must not be empty"
  | Some r ->
      Alcotest.check iv "lo edge advances by the stride" (mk ~stride:4 4 8) r);
  (match refine_ne (mk ~stride:4 0 8) 8 with
  | None -> Alcotest.fail "hi-edge refine of a non-singleton must not be empty"
  | Some r ->
      Alcotest.check iv "hi edge rounds down onto the anchor"
        (mk ~stride:4 0 4) r);
  (match refine_ne (mk ~stride:4 0 8) 4 with
  | None -> Alcotest.fail "interior refine must not be empty"
  | Some r -> Alcotest.check iv "interior constant kept" (mk ~stride:4 0 8) r);
  Alcotest.(check bool) "singleton equal to c is unreachable" true
    (refine_ne (const 5) 5 = None);
  (match refine_ne (mk 0 1) 0 with
  | None -> Alcotest.fail "stride-1 lo-edge refine must not be empty"
  | Some r -> Alcotest.check iv "stride-1 lo edge advances by 1" (const 1) r)

(* End-to-end soundness of the same refinement: in a stride-4 countdown
   loop the abstract value at the body must cover every concrete value
   (8 and 4), and the exit refinement must pin the counter at 0. *)
let test_countdown_stride_loop_sound () =
  let a = Asm.create "countdown4" in
  Asm.movi a Reg.R1 8;
  Asm.while_ a Instr.Ne Reg.R1 (Instr.Imm 0) (fun () ->
      Asm.addi a Reg.R1 Reg.R1 (-4));
  Asm.halt a;
  let p = Asm.assemble a in
  let r = Absint.analyze (Cfg.build p) in
  Alcotest.(check bool) "converged" true (r.Absint.diverged = None);
  let find ins_pred =
    let found = ref (-1) in
    Array.iteri (fun i ins -> if ins_pred ins then found := i) p.Program.code;
    !found
  in
  let body =
    find (function
      | Instr.Alu (Instr.Add, Reg.R1, Reg.R1, Instr.Imm (-4)) -> true
      | _ -> false)
  in
  let halt_addr = find (( = ) Instr.Halt) in
  (match Absint.reg_of r.Absint.before body Reg.R1 with
  | None -> Alcotest.fail "loop body unreachable?"
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "body value covers {4, 8} (got %s)"
           (Absint.iv_to_string v))
        true
        (v.Absint.lo <= 4 && v.Absint.hi >= 8));
  match Absint.reg_of r.Absint.before halt_addr Reg.R1 with
  | None -> Alcotest.fail "halt unreachable?"
  | Some v ->
      Alcotest.check iv "exit refinement pins the counter at 0"
        (Absint.const 0) v

let test_widen_thresholds () =
  let open Absint in
  let ts = [| 0; 10; 100 |] in
  let w = widen_iv ts (mk 0 5) (mk 0 7) in
  Alcotest.(check int) "growing hi jumps to the next threshold" 10 w.hi;
  Alcotest.(check int) "stable lo untouched" 0 w.lo;
  let w = widen_iv ts (mk 0 10) (mk 0 101) in
  Alcotest.(check int) "past the ladder goes to infinity" pos_inf w.hi;
  let w = widen_iv ts (mk 5 10) (mk 3 10) in
  Alcotest.(check int) "shrinking lo drops to the next threshold down" 0 w.lo

(* A bounded counting loop must keep its bound: the loop constant is in
   the threshold ladder, so widening lands exactly on it instead of
   extrapolating to infinity — the precision/termination trade the
   analyzer makes (and the regression for interval chains that
   previously could only converge by degrading to top). *)
let test_loop_widening_precise () =
  let a = Asm.create "loop10" in
  Asm.movi a Reg.R1 0;
  Asm.while_ a Instr.Lt Reg.R1 (Instr.Imm 10) (fun () ->
      Asm.addi a Reg.R1 Reg.R1 1);
  Asm.halt a;
  let p = Asm.assemble a in
  let r = Absint.analyze (Cfg.build p) in
  Alcotest.(check bool) "converged" true (r.Absint.diverged = None);
  let halt_addr =
    let found = ref (-1) in
    Array.iteri (fun i ins -> if ins = Instr.Halt then found := i)
      p.Program.code;
    !found
  in
  match Absint.reg_of r.Absint.before halt_addr Reg.R1 with
  | None -> Alcotest.fail "halt unreachable?"
  | Some v ->
      Alcotest.(check int) "exit refinement gives the exact lower bound" 10
        v.Absint.lo;
      Alcotest.(check bool)
        (Printf.sprintf "upper bound stays tight (got %s)"
           (Absint.iv_to_string v))
        true
        (v.Absint.hi <= 11)

(* The Dataflow iteration guard: an interval-like lattice over an
   unbounded counting loop is an infinite ascending chain — without
   widening the solver must refuse to spin forever and raise Diverged;
   the same instance converges once a widening is supplied. *)
let test_dataflow_divergence_guard () =
  let a = Asm.create "count-forever" in
  Asm.movi a Reg.R1 0;
  Asm.while_ a Instr.Ge Reg.R1 (Instr.Imm 0) (fun () ->
      Asm.addi a Reg.R1 Reg.R1 1);
  Asm.halt a;
  let p = Asm.assemble a in
  let cfg = Cfg.build p in
  let module L = struct
    type t = Absint.ival option (* abstract value of R1; None = bottom *)

    let equal = ( = )

    let join x y =
      match (x, y) with
      | None, v | v, None -> v
      | Some x, Some y -> Some (Absint.join_iv x y)
  end in
  let module F = Dataflow.Make (L) in
  let transfer _addr ins fact =
    match fact with
    | None -> None
    | Some v -> (
        match ins with
        | Instr.Mov (Reg.R1, Instr.Imm n) -> Some (Absint.const n)
        | Instr.Alu (Instr.Add, Reg.R1, Reg.R1, Instr.Imm n) ->
            Some (Absint.add_iv v (Absint.const n))
        | _ -> Some v)
  in
  let solve ?widen () =
    F.solve ~cfg ~direction:Dataflow.Forward ~init:(Some Absint.top)
      ~bottom:None ~transfer ?widen ()
  in
  (match solve () with
  | _ -> Alcotest.fail "expected Dataflow.Diverged without widening"
  | exception Dataflow.Diverged _ -> ());
  let widen ~at:_ ~old j =
    match (old, j) with
    | Some o, Some jv -> Some (Absint.widen_iv [| 0; 1 |] o jv)
    | _ -> j
  in
  let r = solve ~widen () in
  Alcotest.(check int) "widened solve converges over every instruction"
    (Array.length p.Program.code)
    (Array.length r.F.before)

(* --- Footprints -------------------------------------------------------- *)

let test_footprint_accesses () =
  let a = Asm.create "touch" in
  Asm.space a "buf" 8;
  Asm.la a Reg.R1 "buf";
  Asm.ld a Reg.R2 Reg.R1 0;
  Asm.st a Reg.R1 Reg.R2 4;
  Asm.halt a;
  let r = Absint.analyze (Cfg.build (Asm.assemble a)) in
  match Footprint.of_result r with
  | [ rd; wr ] ->
      Alcotest.(check bool) "first is the load" true
        (rd.Footprint.a_kind = Footprint.Read);
      Alcotest.(check bool) "second is the store" true
        (wr.Footprint.a_kind = Footprint.Write);
      Alcotest.(check bool) "both addresses are exact" true
        (Absint.is_const rd.Footprint.a_range
        && Absint.is_const wr.Footprint.a_range);
      let base = rd.Footprint.a_range.Absint.lo in
      Alcotest.(check int) "store offset resolved" (base + 4)
        wr.Footprint.a_range.Absint.lo;
      let hit =
        { Footprint.rg_name = "window"; rg_lo = base + 4; rg_hi = base + 4 }
      in
      (match Footprint.violations ~forbidden:[ hit ] [ rd; wr ] with
      | [ v ] ->
          Alcotest.(check int) "violation carries the store's address"
            wr.Footprint.a_addr v.Footprint.v_access.Footprint.a_addr
      | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
      let miss = { Footprint.rg_name = "far"; rg_lo = 1; rg_hi = 2 } in
      Alcotest.(check int) "disjoint region is clean" 0
        (List.length (Footprint.violations ~forbidden:[ miss ] [ rd; wr ]))
  | acc -> Alcotest.failf "expected 2 accesses, got %d" (List.length acc)

(* --- Eligibility ------------------------------------------------------- *)

let net_config mode =
  {
    Config.default with
    Config.mode;
    nreplicas = (if mode = Config.Base then 1 else 2);
    with_net = true;
    exception_barriers = true;
  }

(* A workload that stores straight into the DMA receive ring must be
   rejected, and the diagnostic must say which instruction. *)
let test_raw_dma_store_rejected () =
  let a = Asm.create "rawdma" in
  Asm.movi a Reg.R1 Layout.va_dma;
  Asm.movi a Reg.R2 7;
  Asm.st a Reg.R1 Reg.R2 0;
  Asm.movi a Reg.R0 0;
  Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
  let e =
    Eligibility.check ~config:(net_config Config.CC)
      ~program:(Asm.assemble a)
  in
  Alcotest.(check bool) "rejected" false (Eligibility.eligible e);
  match Eligibility.diags e with
  | [ d ] ->
      Alcotest.(check (option int)) "provenance is the store instruction"
        (Some 2) d.Eligibility.d_addr;
      Alcotest.(check bool)
        (Printf.sprintf "names the ring (got %S)" d.Eligibility.d_message)
        true
        (contains d.Eligibility.d_message "DMA RX ring"
        && contains d.Eligibility.d_message "store")
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let test_raw_mmio_load_rejected () =
  let a = Asm.create "rawmmio" in
  Asm.movi a Reg.R1 Layout.va_mmio;
  Asm.ld a Reg.R2 Reg.R1 1;
  Asm.movi a Reg.R0 0;
  Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
  let e =
    Eligibility.check ~config:(net_config Config.CC)
      ~program:(Asm.assemble a)
  in
  Alcotest.(check bool) "rejected" false (Eligibility.eligible e);
  let d = List.hd (Eligibility.diags e) in
  Alcotest.(check (option int)) "provenance is the load" (Some 1)
    d.Eligibility.d_addr;
  Alcotest.(check bool) "names the MMIO window" true
    (contains d.Eligibility.d_message "MMIO window")

(* The kvstore guest: CC interacts with the NIC only through the FT
   syscalls (the analyzer prunes the LC driver path via the get_info
   mode constant), LC polls the rings from user code, Base is
   categorically out. *)
let test_kvstore_verdicts () =
  let program = Rcoe_workloads.Kvstore.program ~branch_count:false () in
  let cc = Eligibility.check ~config:(net_config Config.CC) ~program in
  Alcotest.(check bool) "CC eligible" true (Eligibility.eligible cc);
  Alcotest.(check bool) "CC examined real accesses" true
    (cc.Eligibility.n_accesses > 0);
  Alcotest.(check bool) "interprocedural rounds ran" true
    (cc.Eligibility.rounds >= 1);
  let lc = Eligibility.check ~config:(net_config Config.LC) ~program in
  Alcotest.(check bool) "LC ineligible" false (Eligibility.eligible lc);
  let ds = Eligibility.diags lc in
  Alcotest.(check bool) "LC diagnostics exist" true (ds <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "every LC diagnostic has an address" true
        (d.Eligibility.d_addr <> None))
    ds;
  Alcotest.(check bool) "LC driver touches the MMIO window" true
    (List.exists
       (fun d -> contains d.Eligibility.d_message "MMIO window")
       ds);
  let base = Eligibility.check ~config:(net_config Config.Base) ~program in
  Alcotest.(check bool) "Base ineligible" false (Eligibility.eligible base)

(* --- Lint report hygiene (dedupe + deterministic order) ----------------- *)

let test_lint_report_order () =
  let rank f =
    match f.Lint.f_severity with
    | Lint.Error -> 0
    | Lint.Warning -> 1
    | Lint.Info -> 2
  in
  let key f =
    (rank f, match f.Lint.f_addr with None -> (0, 0) | Some a -> (1, a))
  in
  List.iter
    (fun (name, p) ->
      let fs = (Lint.analyze p).Lint.findings in
      Alcotest.(check int)
        (name ^ ": findings unique")
        (List.length fs)
        (List.length (List.sort_uniq compare fs));
      let rec sorted = function
        | a :: (b :: _ as rest) -> key a <= key b && sorted rest
        | _ -> true
      in
      Alcotest.(check bool)
        (name ^ ": sorted by severity then address")
        true (sorted fs))
    [
      ("kvstore", Rcoe_workloads.Kvstore.program ~branch_count:false ());
      ("datarace", Rcoe_workloads.Datarace.program ~branch_count:false ());
      ("md5sum", Rcoe_workloads.Md5sum.program ~branch_count:true ());
      ("splash:radix", Rcoe_workloads.Splash.program "radix" ~branch_count:false ());
    ]

let suite =
  [
    Alcotest.test_case "interval ops" `Quick test_ival_ops;
    Alcotest.test_case "Ne refinement keeps strided congruence" `Quick
      test_refine_ne_strided;
    Alcotest.test_case "stride-4 countdown loop sound" `Quick
      test_countdown_stride_loop_sound;
    Alcotest.test_case "threshold widening" `Quick test_widen_thresholds;
    Alcotest.test_case "bounded loop stays bounded" `Quick
      test_loop_widening_precise;
    Alcotest.test_case "dataflow divergence guard" `Quick
      test_dataflow_divergence_guard;
    Alcotest.test_case "footprint accesses + classification" `Quick
      test_footprint_accesses;
    Alcotest.test_case "raw DMA-ring store rejected" `Quick
      test_raw_dma_store_rejected;
    Alcotest.test_case "raw MMIO load rejected" `Quick
      test_raw_mmio_load_rejected;
    Alcotest.test_case "kvstore: CC eligible, LC/Base not" `Quick
      test_kvstore_verdicts;
    Alcotest.test_case "lint findings deduped and ordered" `Quick
      test_lint_report_order;
  ]
