(* Every input a workload generates derives from the run's [--seed]:
   the YCSB request stream, the simulation seed (core jitter), the md5sum
   message and the campaign's trial seed range. The program under test
   receives only what these generate. *)

(* [--seed] may be any decimal integer, of any length. It is reduced to
   [0, modulus) by the digits of its magnitude, so the derived seeds
   below stay non-negative and far inside OCaml's int range: the
   harness's per-trial entry points take non-negative seeds only (a
   recovery trial flips bit [seed mod 30]). Seeds below [modulus] map
   to themselves. *)
let modulus = 999_983

let of_string s =
  let digits =
    if String.starts_with ~prefix:"-" s then String.sub s 1 (String.length s - 1)
    else s
  in
  if digits = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') digits)
  then None
  else
    Some
      (String.fold_left
         (fun acc c -> ((acc * 10) + Char.code c - Char.code '0') mod modulus)
         0 digits)

let ycsb seed = 11 + (7 * seed)
let sim seed = 5 + (3 * seed)
let message seed = 1 + seed

(* Trial [i] (from 1) of the campaign. Disjoint ranges per seed. *)
let trial seed i = (1000 * seed) + i
