(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   record field would box a fresh [Int64] on every draw, and the core
   jitter model draws once per executed instruction. [Bytes.get/set_int64]
   are compiler primitives and [bits64] is inlined into the draws below,
   so [next], [int], [bool] and [chance] allocate nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] get t = Bytes.get_int64_ne t 0
let[@inline] set t v = Bytes.set_int64_ne t 0 v

let of_state s =
  let t = Bytes.create 8 in
  set t s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  mix s

let split t = of_state (mix (bits64 t))

let copy t = Bytes.copy t

let assign ~dst ~src = Bytes.blit src 0 dst 0 8

let next t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) /. 9007199254740992.0

let float t bound = bound *. unit_float t

let chance t p = unit_float t < p
