type config = { capacity : int }

type sync_phase =
  | Ipi_wait
  | Gather_wait
  | Chase
  | Catchup
  | Pmu_catchup
  | Vote_wait
  | Rendezvous

let sync_phase_name = function
  | Ipi_wait -> "ipi-wait"
  | Gather_wait -> "gather"
  | Chase -> "chase"
  | Catchup -> "catchup"
  | Pmu_catchup -> "pmu-catchup"
  | Vote_wait -> "vote-wait"
  | Rendezvous -> "rendezvous"

type body =
  | Phase_begin of sync_phase
  | Phase_end of sync_phase
  | Round_begin of int
  | Round_end of int
  | Syscall of { num : int; name : string; cost : int }
  | Preempt of { tid : int }
  | Fault of { kind : string }
  | Bp_fire
  | Single_step
  | Rep_step
  | Vm_exit
  | Ipi of { target : int }
  | Dev_irq of { dpn : int }
  | Bus_stall of { cycles : int }
  | Vote of { count : int; c0 : int; c1 : int; agree : bool }
  | Injection of { addr : int; bit : int }
  | Downgrade of { rid : int; cost : int }
  | Reintegrate of { rid : int; cost : int }
  | Checkpoint of { words : int; skipped : int; cost : int }
  | Rollback of { to_cycle : int; cost : int }
  | Ingress_drop of { id : int; expect : int; got : int }
  | Replay_cut of { seq : int }
  | Replay_verdict of { seq : int; chunk_end : int; lag : int; ok : bool }

type event = { ts : int; rid : int; body : body }

type t = {
  enabled : bool;
  ring : event option array;  (* length 1 when disabled *)
  mutable next : int;  (* write index *)
  mutable total : int;
  mutable clock : unit -> int;
  mutable last_inject : int;  (* cycle of last injection, -1 = none *)
}

let no_clock () = 0

let create { capacity } =
  if capacity <= 0 then
    invalid_arg "Trace.create: capacity must be positive";
  {
    enabled = true;
    ring = Array.make capacity None;
    next = 0;
    total = 0;
    clock = no_clock;
    last_inject = -1;
  }

let disabled () =
  {
    enabled = false;
    ring = Array.make 1 None;
    next = 0;
    total = 0;
    clock = no_clock;
    last_inject = -1;
  }

let enabled t = t.enabled
let capacity t = if t.enabled then Array.length t.ring else 0
let set_clock t f = t.clock <- f
let now t = t.clock ()

let push t rid body =
  let cap = Array.length t.ring in
  t.ring.(t.next) <- Some { ts = t.clock (); rid; body };
  t.next <- (t.next + 1) mod cap;
  t.total <- t.total + 1

(* Each emitter takes scalar arguments and tests [enabled] before
   building the event, so a disabled trace allocates nothing. *)

let phase_begin t ~rid ph = if t.enabled then push t rid (Phase_begin ph)
let phase_end t ~rid ph = if t.enabled then push t rid (Phase_end ph)
let round_begin t ~seq = if t.enabled then push t (-1) (Round_begin seq)
let round_end t ~seq = if t.enabled then push t (-1) (Round_end seq)

let syscall t ~rid ~num ~name ~cost =
  if t.enabled then push t rid (Syscall { num; name; cost })

let preempt t ~rid ~tid = if t.enabled then push t rid (Preempt { tid })
let fault t ~rid ~kind = if t.enabled then push t rid (Fault { kind })
let bp_fire t ~rid = if t.enabled then push t rid Bp_fire
let single_step t ~rid = if t.enabled then push t rid Single_step
let rep_step t ~rid = if t.enabled then push t rid Rep_step
let vm_exit t ~rid = if t.enabled then push t rid Vm_exit
let ipi t ~target = if t.enabled then push t (-1) (Ipi { target })
let dev_irq t ~dpn = if t.enabled then push t (-1) (Dev_irq { dpn })

let bus_stall t ~rid ~cycles =
  if t.enabled && cycles > 0 then push t rid (Bus_stall { cycles })

let vote t ~rid ~count ~c0 ~c1 ~agree =
  if t.enabled then push t rid (Vote { count; c0; c1; agree })

let downgrade t ~rid ~cost = if t.enabled then push t (-1) (Downgrade { rid; cost })

let reintegrate t ~rid ~cost =
  if t.enabled then push t (-1) (Reintegrate { rid; cost })

let checkpoint t ~words ~skipped ~cost =
  if t.enabled then push t (-1) (Checkpoint { words; skipped; cost })

let rollback t ~to_cycle ~cost =
  if t.enabled then push t (-1) (Rollback { to_cycle; cost })

let ingress_drop t ~id ~expect ~got =
  if t.enabled then push t (-1) (Ingress_drop { id; expect; got })

let replay_cut t ~seq = if t.enabled then push t (-1) (Replay_cut { seq })

let replay_verdict t ~seq ~chunk_end ~lag ~ok =
  if t.enabled then push t (-1) (Replay_verdict { seq; chunk_end; lag; ok })

let injection t ~addr ~bit =
  (* The mark must survive a disabled ring: detection latency is
     measured on untraced campaign runs too. *)
  t.last_inject <- t.clock ();
  if t.enabled then push t (-1) (Injection { addr; bit })

let events t =
  if not t.enabled then []
  else begin
    let cap = Array.length t.ring in
    let acc = ref [] in
    (* Walk backwards from the newest slot so the cons builds
       oldest-first order. *)
    for i = 1 to cap do
      let idx = (t.next - i + (2 * cap)) mod cap in
      match t.ring.(idx) with
      | Some e -> acc := e :: !acc
      | None -> ()
    done;
    !acc
  end

let events_since t since =
  if not t.enabled then []
  else begin
    let cap = Array.length t.ring in
    let n = t.total - since in
    let n = if n > t.total then t.total else n in
    let n = if n > cap then cap else n in
    let acc = ref [] in
    for i = 1 to n do
      let idx = (t.next - i + (2 * cap)) mod cap in
      match t.ring.(idx) with Some e -> acc := e :: !acc | None -> ()
    done;
    !acc
  end

let total t = t.total
let dropped t = max 0 (t.total - Array.length t.ring)
let last_injection t = if t.last_inject < 0 then None else Some t.last_inject
let clear_last_injection t = t.last_inject <- -1
