(** Available equalities at block entry — the translation validator's
    cross-block seed.

    A fact [(d, rhs)] at a block's entry means register [d] (by
    [Reg.id]) currently holds the value of [rhs] over the {e current}
    values of its operand registers: exactly the justification CSE and
    copy propagation use when they reuse a value across a block boundary.
    Facts die when the defined register or an operand is redefined; load
    facts die at every store; calls kill everything. *)

open Mac_rtl

type akey =
  | AMove of Rtl.operand
  | ABin of Rtl.binop * Rtl.operand * Rtl.operand
  | AUn of Rtl.unop * Rtl.operand
  | ALoad of Rtl.mem * Rtl.signedness
  | AExt of Reg.t * Rtl.operand * Width.t * Rtl.signedness

type fact = int * akey

val akey_regs : akey -> Reg.t list
(** The operand registers a right-hand side reads. *)

val is_load_key : akey -> bool

val gen_fact : Rtl.inst -> (Reg.t * akey) option
(** The fact an instruction establishes, if any ([None] when its
    destination is one of its own operands). *)

type t

val solve : Mac_cfg.Cfg.t -> t
(** The forward must-analysis ([in = ∩ preds out], nothing at the entry
    or at a block without predecessors), swept round-robin over every
    block from [out = all facts] until nothing changes, over dense fact
    bitvectors. *)

val entry_facts : t -> int -> fact list
(** The facts available at a block's entry, in ascending
    [Stdlib.compare] order. *)
