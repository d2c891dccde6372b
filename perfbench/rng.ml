(* SplitMix64: the benchmark's only source of randomness, so one seed
   always yields the same programs, draws and inputs. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int (0x9E3779B9 + (seed * 0x2545F491)) }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, bound) *)
let int t bound =
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int (max 1 bound)))

(* uniform in [0, 1) *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done
