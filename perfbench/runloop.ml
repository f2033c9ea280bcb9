(* The run skeleton every workload shares: the measured loop of units,
   with set-up samples and host-speed reference samples taken between
   them.

   Set-up samples are spread over the whole measured window rather than
   taken in one burst, so that their median sees the same host
   conditions as the units it sits between. *)

(* --------------------------------------------------------- host speed *)

(* The shared host this benchmark is made for drifts in speed by tens of
   percent over minutes, and allocation-heavy code drifts most; an
   integer loop ([host.calib_ns]) barely moves. A fixed piece of
   allocation-heavy work that belongs to the benchmark, not to the
   program, is timed at every unit boundary. Unit and set-up times are
   scaled by [reference_s / sample], so the gated figures read as on a
   host where this work takes [reference_s]: what a change to the
   program moves, they move; what the host does to both, they mostly
   do not. The wall-clock figures are printed beside them. *)
let reference_s = 0.015

let reference_work () =
  let tbl = Hashtbl.create 16 in
  let l = ref [] in
  for i = 1 to 150_000 do
    l := (i, float_of_int i) :: !l;
    if i land 7 = 0 then Hashtbl.replace tbl i !l
  done;
  Hashtbl.length tbl

let ref_samples : float list ref = ref []

(* Time the reference once on a collected heap, and return its scale. *)
let reference () =
  Gc.full_major ();
  let _, dt = Measure.time (fun () -> Sys.opaque_identity (reference_work ())) in
  ref_samples := dt :: !ref_samples;
  reference_s /. dt

(* Wall seconds over reference seconds of the measured units: multiply a
   reference-scaled throughput by it to get the wall-clock one. *)
let wall_per_ref = ref 1.0

(* ------------------------------------------------------------- set-up *)

(* Each set-up sample with the host scale it was taken at. *)
let setup_samples : ((string * float) list * float) list ref = ref []

(* One set-up sample; [f] returns its components as
   [(layer_metric, seconds)] pairs, summed per metric when a sample
   builds several systems. *)
let sample_setup ~scale f =
  setup_samples :=
    (Measure.span "setup" (fun () -> f ~traced:!Measure.tracing), scale)
    :: !setup_samples

(* The summed seconds of one component in a sample, if it has any. *)
let part name sample =
  match List.filter (fun (k, _) -> k = name) sample with
  | [] -> None
  | parts -> Some (List.fold_left (fun a (_, v) -> a +. v) 0.0 parts)

(* [setup_s] is the median over samples of the program builds plus
   [System.create], each scaled to the reference host; [setup_wall_s]
   is the same unscaled. The lint and eligibility components are timed
   separately for attribution — they already run inside
   [System.create]. *)
let report_setup () =
  let samples = !setup_samples in
  let get name s = Option.value ~default:0.0 (part name s) in
  let total s = get "setup.program_s" s +. get "setup.create_s" s in
  Measure.set "setup_s" "s"
    (Measure.median (List.map (fun (s, k) -> total s *. k) samples));
  Measure.set "setup_wall_s" "s"
    (Measure.median (List.map (fun (s, _) -> total s) samples));
  List.iter
    (fun name ->
      let vs = List.filter_map (fun (s, _) -> part name s) samples in
      Measure.set name "s" (if vs = [] then 0.0 else Measure.median vs))
    [ "setup.program_s"; "setup.lint_s"; "setup.eligibility_s"; "setup.create_s" ]

(* ------------------------------------------------------------- units *)

(* The measured loop: call [f i ~traced] for i = 0, 1, ... until
   [min_reps] units ran and [seconds] have passed, taking [setups]
   set-up samples with [setup] before each unit. [f] returns its unit's
   result and the host seconds of its measured part. The reference is
   timed before every unit and after the last; a unit's seconds are
   scaled by the mean of the scales at its two ends, and the returned
   seconds are these reference seconds. In a traced run, odd units run
   with spans on and even units with spans off, so the tracing overhead
   is measured in-process against untraced units of the same work; only
   untraced units feed the host-time metrics. *)
let units ~min_reps ~seconds ~trace ~setups ~setup f =
  let min_reps = if trace then max 2 min_reps else min_reps in
  let rs =
    Measure.repeat ~min_reps ~budget:seconds (fun i ->
        let traced = trace && i mod 2 = 1 in
        Measure.tracing := traced;
        let scale = reference () in
        for _ = 1 to setups do
          sample_setup ~scale setup
        done;
        Gc.full_major ();
        let r, dt = f i ~traced in
        (r, dt, traced, scale))
  in
  Measure.tracing := trace;
  let last = reference () in
  report_setup ();
  let ends = List.tl (List.map (fun (_, _, _, k) -> k) rs) @ [ last ] in
  let rs =
    List.map2
      (fun (r, dt, traced, k0) k1 -> (r, dt, dt *. (k0 +. k1) /. 2.0, traced))
      rs ends
  in
  let untraced = List.filter (fun (_, _, _, t) -> not t) rs in
  let sum g = List.fold_left (fun a u -> a +. g u) 0.0 untraced in
  wall_per_ref := sum (fun (_, w, _, _) -> w) /. sum (fun (_, _, s, _) -> s);
  Measure.set "host.ref_ms" "ms" (Measure.median !ref_samples *. 1e3);
  if trace then begin
    let med b =
      Measure.median
        (List.filter_map (fun (_, _, s, t) -> if t = b then Some s else None) rs)
    in
    Measure.set "trace.overhead_frac" "frac" ((med true /. med false) -. 1.0)
  end;
  List.map (fun (r, _, s, _) -> (r, s)) untraced

(* Work per reference second over all untraced units: [work r] of each
   unit's result over the total of their scaled seconds. On a host whose
   speed switches between phases, this run throughput is steadier than a
   median over units, which flips between the phases' modes. *)
let rate units work =
  let w, t =
    List.fold_left (fun (w, t) (r, dt) -> (w +. work r, t +. dt)) (0.0, 0.0) units
  in
  w /. t

(* [ops_per_s], reference-scaled, with its wall-clock twin beside it. *)
let report_ops ops_per_s =
  Measure.set "ops_per_s" "ops/s" ops_per_s;
  Measure.set "ops_per_wall_s" "ops/s" (ops_per_s /. !wall_per_ref)
