(** The gen/kill dataflow solver over {!Mac_cfg.Cfg} block graphs that
    backs {!Liveness}, {!Reaching} and {!Copies}. Analyses supply per-block
    gen and kill bitvectors, the meet, and the boundary value at the
    entry (forward) or at every exit block (backward); the solver
    iterates to the maximal fixed point. *)

type direction = Forward | Backward

type 'a solution = { inb : 'a array; outb : 'a array }
(** Per-block dataflow values: [inb.(b)] is the value at block [b]'s entry,
    [outb.(b)] at its exit (in execution order, regardless of analysis
    direction). *)

type meet_op = Union | Inter

val solve_bits :
  Mac_cfg.Cfg.t ->
  direction:direction ->
  meet:meet_op ->
  gen:Bitv.t array ->
  kill:Bitv.t array ->
  boundary:Bitv.t ->
  Bitv.t option solution
(** Gen/kill solver over packed bitvectors ([out = gen ∪ (in − kill)] per
    block in flow orientation), iterating in reverse postorder until a
    sweep is quiet. All vectors must share [boundary]'s length. In the
    result, [None] is the must-analysis Top ("unreached"); [Union]
    problems always yield [Some]. The fixed point equals the round-robin
    set/map fixpoint on the corresponding lattice; the test suite's
    oracle pins the three analyses to it. *)
