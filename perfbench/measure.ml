(* Host-side measurement helpers shared by the workloads: wall clock,
   order statistics, the metric table a run fills in, the named output
   checks, and the span recorder of the traced pass. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank median of a non-empty sample. *)
let median xs = Rcoe_util.Stats.percentile 50.0 xs

(* Call [f 0], [f 1], ... until at least [min_reps] calls were made and
   [budget] seconds have passed since the first. *)
let repeat ~min_reps ~budget f =
  let t0 = now () in
  let rec go acc n =
    if n >= min_reps && now () -. t0 >= budget then List.rev acc
    else go (f n :: acc) (n + 1)
  in
  go [] 0

(* ---------------------------------------------------------------- metrics *)

type metric = { value : float; unit_ : string; exact : bool }

let metrics : (string, metric) Hashtbl.t = Hashtbl.create 128
let order : string list ref = ref []

(* [exact] marks a value that is a pure function of the seed (simulated
   cycles, counts): it must repeat bit for bit across runs, and the
   determinism record compares it. *)
let set ?(exact = false) name unit_ value =
  if not (Hashtbl.mem metrics name) then order := name :: !order;
  Hashtbl.replace metrics name { value; unit_; exact }

let seti ?exact name unit_ v = set ?exact name unit_ (float_of_int v)
let find name = Hashtbl.find_opt metrics name
let recorded () = List.rev_map (fun n -> (n, Hashtbl.find metrics n)) !order

(* ----------------------------------------------------------------- checks *)

let checks : (string * bool * string) list ref = ref []
let attempted = ref 0
let failed = ref 0

let check name ok detail =
  checks := (name, ok, detail) :: !checks;
  if not ok then Printf.printf "check FAILED: %s: %s\n%!" name detail

let all_checks_pass () = List.for_all (fun (_, ok, _) -> ok) !checks

(* Count [n] operations, [bad] of them failed, against the totals. *)
let ops ?(bad = 0) n =
  attempted := !attempted + n;
  failed := !failed + bad

(* ------------------------------------------------------------------ spans *)

(* The traced pass wraps every call the benchmark makes into a layer in a
   span: name, start, end, parent span, and the run id. Spans stay in
   memory and are written out once the run ends. *)
type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span. *)
  t0 : float;
  mutable t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; t0 = now (); t1 = nan } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

let span_durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
    !spans

(* Self time: the span's duration minus the part its children cover
   (children never overlap: the recorder is single-domain and nested). *)
let self_time s =
  let children =
    List.fold_left
      (fun acc c -> if c.parent = s.id then acc +. (c.t1 -. c.t0) else acc)
      0.0 !spans
  in
  s.t1 -. s.t0 -. children

let write_spans ~path ~run_id =
  let module J = Rcoe_obs.Json in
  let rows =
    List.rev_map
      (fun s ->
        J.Obj
          [
            ("id", J.Int s.id);
            ("name", J.String s.name);
            ("parent", J.Int s.parent);
            ("start_s", J.Float s.t0);
            ("end_s", J.Float s.t1);
            ("self_s", J.Float (self_time s));
            ("run", J.String run_id);
          ])
      !spans
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string (J.List rows)))

(* ---------------------------------------------------------------- runtime *)

(* Peak resident set size of this process in MB: VmHWM from
   /proc/self/status. A host without it cannot run the benchmark. *)
let peak_rss_mb () =
  let vmhwm line =
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    else None
  in
  let found =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          In_channel.input_all ic |> String.split_on_char '\n'
          |> List.find_map vmhwm)
    with Sys_error _ -> None
  in
  match found with
  | Some mb -> mb
  | None ->
      prerr_endline "perfbench: cannot read VmHWM from /proc/self/status";
      exit 2

(* A fixed integer loop timed in-process. Compared across runs, it tells
   host drift from a code change. Median of 7. *)
let calib_ns () =
  let iters = 2_000_000 in
  let one () =
    let t0 = now () in
    let a = ref 1 and b = ref 0 in
    for i = 1 to iters do
      a := (!a + (i land 0xFFFF)) mod 65521;
      b := (!b + !a) mod 65521
    done;
    ignore (Sys.opaque_identity (!a + !b));
    (now () -. t0) *. 1e9 /. float_of_int iters
  in
  median (List.init 7 (fun _ -> one ()))

let minor_words () = Gc.minor_words ()
