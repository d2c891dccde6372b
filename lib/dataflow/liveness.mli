(** Live-register analysis (backward, may). *)

open Mac_rtl

type t

val compute : Mac_cfg.Cfg.t -> t

val live_in : t -> int -> Reg.Set.t
(** Registers live on entry to a block. *)

val live_out : t -> int -> Reg.Set.t
(** Registers live on exit from a block. *)

val live_after_each : t -> int -> (Rtl.inst * Reg.Set.t) list
(** For block [b], each instruction paired with the set of registers live
    {e after} it — what dead-code elimination consults. *)

val live_after_query : t -> int -> (Rtl.inst * (Reg.t -> bool)) list
(** {!live_after_each} as membership queries instead of materialized
    sets. Answers are identical to [Reg.Set.mem] on the corresponding
    {!live_after_each} set; consumers that probe only a few registers per
    instruction (e.g. DCE asking about an instruction's defs) avoid
    building a [Reg.Set] per instruction. *)

val fold_live_after :
  t ->
  int ->
  init:'a ->
  f:('a -> Rtl.inst -> (Reg.t -> bool) -> 'a) ->
  'a
(** Eager {!live_after_query}: visits the block's instructions in
    {e reverse} body order, calling [f acc i query] where [query] answers
    liveness-after-[i] membership {e only for the duration of that call}
    (the working vector is transferred in place afterwards). The cheapest
    form for a single linear consumer such as DCE. *)
