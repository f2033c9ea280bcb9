type t = {
  bus_rate : float;
  max_credit : float;
  mutable credit : float;
  mutable offered : float;
  mutable consumed : int;
}

let create ~rate =
  { bus_rate = rate; max_credit = 4.0; credit = 4.0; offered = 0.0; consumed = 0 }

let tick t =
  t.offered <- t.offered +. t.bus_rate;
  t.credit <- Float.min t.max_credit (t.credit +. t.bus_rate)

let try_acquire t n =
  let need = float_of_int n in
  if t.credit >= need then begin
    t.credit <- t.credit -. need;
    t.consumed <- t.consumed + n;
    true
  end
  else false

let rate t = t.bus_rate

type state = { st_credit : float; st_offered : float; st_consumed : int }

let state t =
  { st_credit = t.credit; st_offered = t.offered; st_consumed = t.consumed }

let set_state t s =
  t.credit <- s.st_credit;
  t.offered <- s.st_offered;
  t.consumed <- s.st_consumed

let utilisation t =
  if t.offered <= 0.0 then 0.0 else float_of_int t.consumed /. t.offered
