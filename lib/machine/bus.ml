(* The float state sits in an all-float record, which OCaml stores flat:
   writing [credit] or [offered] stores a raw double in place instead of
   boxing a fresh float and running the write barrier, as a float field
   of a mixed int/float record would. [tick] runs once per lane per
   simulated cycle. *)
type lane = {
  bus_rate : float;
  max_credit : float;
  mutable credit : float;
  mutable offered : float;
}

type t = { f : lane; mutable consumed : int }

let create ~rate =
  {
    f = { bus_rate = rate; max_credit = 4.0; credit = 4.0; offered = 0.0 };
    consumed = 0;
  }

(* [credit + rate] capped at [max_credit]: the same value [Float.min]
   gives for these finite, non-negative operands, without the call. *)
let tick t =
  let f = t.f in
  f.offered <- f.offered +. f.bus_rate;
  let c = f.credit +. f.bus_rate in
  f.credit <- (if c < f.max_credit then c else f.max_credit)

let try_acquire t n =
  let f = t.f in
  let need = float_of_int n in
  if f.credit >= need then begin
    f.credit <- f.credit -. need;
    t.consumed <- t.consumed + n;
    true
  end
  else false

let rate t = t.f.bus_rate

type state = { st_credit : float; st_offered : float; st_consumed : int }

let state t =
  { st_credit = t.f.credit; st_offered = t.f.offered; st_consumed = t.consumed }

let set_state t s =
  t.f.credit <- s.st_credit;
  t.f.offered <- s.st_offered;
  t.consumed <- s.st_consumed

let utilisation t =
  if t.f.offered <= 0.0 then 0.0 else float_of_int t.consumed /. t.f.offered
