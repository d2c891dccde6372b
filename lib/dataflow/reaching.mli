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

type point
(** A program point inside a {!fold_block} walk. *)

val fold_block :
  t -> int -> init:'a -> f:('a -> Rtl.inst -> point -> 'a) -> 'a
(** [fold_block t b ~init ~f] visits block [b]'s instructions in body
    order, calling [f acc i p] where [p] is the point just before [i].
    The point is valid {e only for the duration of that call} (one working
    vector is transferred in place, so the whole block costs one copy). *)

val reaches : point -> Reg.t -> bool
(** Whether some definition of the register (a parameter pseudo-definition
    included) reaches the point. Allocation-free. *)

val defs_at : point -> Reg.t -> IntSet.t
(** The uids of the definitions of one register that reach the point. *)

val def_inst : t -> int -> Rtl.inst option
(** Look an instruction up by defining uid ([None] for parameter
    pseudo-definitions). *)

val param_uid : Reg.t -> int
(** The pseudo-definition uid of a parameter register. *)
