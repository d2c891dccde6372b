(** Reaching definitions (forward, may).

    Definitions are identified by the uid of the defining instruction.
    Function parameters are modelled as a pseudo-definition with uid [-1 -
    Reg.id r] so "possibly defined outside" is distinguishable. *)

open Mac_rtl

type t

module IntSet : Set.S with type elt = int

val compute : Mac_cfg.Cfg.t -> t
(** Solved over dense definition-site bitvectors. *)

val reach_in : t -> int -> IntSet.t
(** Uids of definitions reaching block entry. *)

val defs_of_reg_reaching : t -> block:int -> before:Rtl.inst -> Reg.t ->
  IntSet.t
(** The uids of the definitions of one register that reach the program
    point just before [before] (which must belong to [block]). Raises
    [Not_found] if [before] is not in the block. *)

val def_inst : t -> int -> Rtl.inst option
(** Look an instruction up by defining uid ([None] for parameter
    pseudo-definitions). *)

val param_uid : Reg.t -> int
(** The pseudo-definition uid of a parameter register. *)
