(* The repo benchmark. One run measures one workload for one seed:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   It prints every metric it measured by name and unit, then, as the
   last line, one JSON object with the metrics BENCHMARK.json lists for
   the mode: its end-to-end metrics with --trace 0, its per-layer
   metrics with --trace 1. It exits 1 when an output check, the
   Interp/Blocks identity or the cross-run determinism check fails, and
   2 on a usage error. See README.md in this directory. *)

let workloads = [ "serve-lockstep"; "serve-replay"; "compute-base"; "campaign" ]
let out_dir = ".perfbench_out"

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Seeds.of_string v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0.0 ->
      (!workload, seed, seconds, trace)
  | _ -> usage ()

(* The metric lists of BENCHMARK.json: [(name, unit)] per section. *)
let spec section =
  let fail msg =
    prerr_endline ("perfbench: BENCHMARK.json: " ^ msg);
    exit 2
  in
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> fail e
  in
  let module J = Rcoe_obs.Json in
  match J.parse text with
  | Error e -> fail e
  | Ok doc -> (
      match J.member section doc with
      | Some (J.List items) ->
          List.map
            (fun it ->
              match (J.member "name" it, J.member "unit" it) with
              | Some (J.String n), Some (J.String u) -> (n, u)
              | _ -> fail ("malformed entry in " ^ section))
            items
      | _ -> fail ("no list " ^ section))

let mkdir_p path =
  List.fold_left
    (fun acc part ->
      let p = if acc = "" then part else Filename.concat acc part in
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      p)
    ""
    (String.split_on_char '/' path)
  |> ignore

let fmt v = Printf.sprintf "%.17g" v

(* Exact metrics must repeat bit for bit across runs of the same code,
   workload, seed and mode in this checkout: the first run records them,
   later runs compare. The record is keyed by the digest of this
   executable, so a rebuilt program starts a record of its own instead
   of being held to another version's figures. Host timings are never
   recorded here. *)
let determinism ~workload ~seed ~trace ~code ~fingerprint =
  let dir = Filename.concat out_dir "exact" in
  mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-trace%d-%s.txt" workload seed
         (if trace then 1 else 0)
         code)
  in
  let exact =
    List.filter_map
      (fun (name, m) ->
        if m.Measure.exact then Some (name, fmt m.Measure.value) else None)
      (Measure.recorded ())
  in
  if Sys.file_exists path then begin
    let lines =
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
    in
    let recorded =
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] when k <> "#" -> Some (k, v)
          | _ -> None)
        lines
    in
    let drift =
      List.filter
        (fun (k, v) -> List.assoc_opt k recorded <> Some v)
        exact
      @ List.filter (fun (k, _) -> not (List.mem_assoc k exact)) recorded
    in
    Measure.check "determinism" (drift = [])
      (String.concat ", "
         (List.map
            (fun (k, _) ->
              Printf.sprintf "%s: %s -> %s" k
                (Option.value ~default:"absent" (List.assoc_opt k recorded))
                (Option.value ~default:"absent" (List.assoc_opt k exact)))
            drift)
      ^ " (recorded " ^ List.hd lines ^ ")")
  end
  else
    Out_channel.with_open_bin path (fun oc ->
        Printf.fprintf oc "# %s\n" fingerprint;
        List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) exact)

let () =
  let workload, seed, seconds, trace = parse_args () in
  let end_to_end = spec "end_to_end" and per_layer = spec "per_layer" in
  let cores = Domain.recommended_domain_count () in
  let calib = Measure.calib_ns () in
  Measure.set "host.calib_ns" "ns" calib;
  let fingerprint =
    Printf.sprintf "cores=%d ocaml=%s calib_ns=%.3f" cores Sys.ocaml_version
      calib
  in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d\n" workload
    seed seconds
    (if trace then 1 else 0);
  Printf.printf "host:      %s\n" fingerprint;
  let code = Digest.to_hex (Digest.file Sys.executable_name) in
  Printf.printf "code:      %s\n" code;
  Printf.printf "op:        %s\n%!"
    (match workload with
    | "serve-lockstep" | "serve-replay" -> "one completed simulated request"
    | "compute-base" -> "one simulated Mcycle"
    | _ -> "one fault-injection trial");
  Measure.tracing := trace;
  let t0 = Measure.now () in
  (match workload with
  | "serve-lockstep" -> Serve_wl.run Serve_wl.Lockstep ~seed ~seconds ~trace
  | "serve-replay" -> Serve_wl.run Serve_wl.Replay ~seed ~seconds ~trace
  | "compute-base" -> Compute_wl.run ~seed ~seconds ~trace
  | _ -> Campaign_wl.run ~seed ~seconds ~trace);
  Measure.tracing := false;
  Measure.set "peak_rss_mb" "MB" (Measure.peak_rss_mb ());
  let gc = Gc.quick_stat () in
  Measure.seti "gc.major_collections" "count" gc.Gc.major_collections;
  Measure.seti "gc.top_heap_words" "words" gc.Gc.top_heap_words;
  let attempted = !Measure.attempted and failed = !Measure.failed in
  Measure.set "failed_frac" "frac"
    (if attempted = 0 then 1.0 else float_of_int failed /. float_of_int attempted);
  determinism ~workload ~seed ~trace ~code ~fingerprint;
  if trace then begin
    mkdir_p (Filename.concat out_dir "spans");
    let path =
      Filename.concat out_dir
        (Printf.sprintf "spans/%s-seed%d.json" workload seed)
    in
    Measure.write_spans ~path
      ~run_id:(Printf.sprintf "%s-seed%d-%.0f" workload seed (t0 *. 1e3));
    Printf.printf "spans:     %s (%d)\n" path (List.length !Measure.spans)
  end;
  List.iter
    (fun (name, m) ->
      Printf.printf "  %-36s %18s %-12s%s\n" name (fmt m.Measure.value)
        m.Measure.unit_
        (if m.Measure.exact then " exact" else ""))
    (Measure.recorded ());
  Printf.printf "  %-36s %18d/%d\n" "failed/attempted" failed attempted;
  let names =
    List.sort_uniq compare (List.map (fun (n, _, _) -> n) !Measure.checks)
  in
  List.iter
    (fun n ->
      let runs = List.filter (fun (m, _, _) -> m = n) !Measure.checks in
      let bad = List.filter (fun (_, ok, _) -> not ok) runs in
      Printf.printf "check:     %-28s %s (%d)\n" n
        (if bad = [] then "ok" else "FAILED")
        (List.length runs))
    names;
  let selected = if trace then per_layer else end_to_end in
  let value (name, unit_) =
    match Measure.find name with
    | Some m when m.Measure.unit_ <> unit_ ->
        Printf.eprintf "perfbench: %s measured in %s, BENCHMARK.json says %s\n"
          name m.Measure.unit_ unit_;
        exit 2
    | Some m when Float.is_finite m.Measure.value -> m.Measure.value
    | Some _ ->
        Printf.eprintf "perfbench: %s is not finite\n" name;
        exit 2
    (* A per-layer metric of a layer this workload does not reach. *)
    | None when trace -> 0.0
    | None ->
        Printf.eprintf "perfbench: %s was not measured\n" name;
        exit 2
  in
  let metrics =
    List.map
      (fun ((name, unit_) as m) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt (value m))
          unit_)
      selected
  in
  let correct = Measure.all_checks_pass () && failed = 0 && attempted > 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " metrics);
  exit (if correct then 0 else 1)
