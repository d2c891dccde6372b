(** Available copies (forward, must): at a program point, which
    [dst <- src] moves are sure to hold, where [src] is a register or an
    immediate. Backs global copy and constant propagation. *)

open Mac_rtl

type t

val compute : Mac_cfg.Cfg.t -> t
(** Solved over dense copy-fact bitvectors, with Top (unreached) tracked
    explicitly. *)

val copies_before_each : t -> int -> (Rtl.inst * Rtl.operand Reg.Map.t) list
(** For block [b], each instruction paired with the map [dst -> src] of
    copies available {e before} it. *)

val copies_query : t -> int -> (Rtl.inst * (Reg.t -> Rtl.operand option)) list
(** {!copies_before_each} as lookup closures: the answer for register
    [r] equals [Reg.Map.find_opt r] on the corresponding map, without
    building the map. What copy propagation consults. *)
