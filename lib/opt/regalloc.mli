(** Linear-scan register allocation (Poletto–Sarkar).

    Rewrites a function's unbounded virtual registers onto a finite machine
    set. The top three registers are reserved as spill staging
    temporaries and register [num_regs] (one past the machine set)
    becomes the frame pointer when anything spills — spill slots live in
    a stack frame recorded in [Func.frame_bytes] and addressed through
    [Func.fp_reg], which the simulator initialises on call. Each slot
    holds a full 64-bit register value: a machine with doubleword loads
    and stores moves it in one access; any other machine (the 32-bit
    88100 and 68030) moves its two word halves and reserves a fourth
    register, [num_regs-4], as the scratch that assembles them. The
    registers below the reserved ones are allocatable.

    Live intervals come from the block-level liveness solution, so values
    live across back edges are kept alive through the whole loop.
    Parameters are never spilled (they arrive in registers). *)

open Mac_rtl

exception Too_few_registers of string

type result = {
  virtuals : int;  (** virtual registers seen *)
  spilled : int;  (** virtual registers sent to stack slots *)
  frame_bytes : int;
}

val run :
  ?am:Mac_dataflow.Analysis.t ->
  Func.t ->
  num_regs:int ->
  machine:Mac_machine.Machine.t ->
  result
(** Allocate in place for [machine]. Raises {!Too_few_registers} when
    [num_regs] cannot accommodate the parameters plus one allocatable
    register and the reserved ones ([num_regs >= params + 4] suffices on
    a machine with doubleword accesses, [params + 5] otherwise). With [?am], live
    intervals come from the manager's cached CFG and liveness; the manager
    is fully invalidated afterwards (allocation renames every register). *)
