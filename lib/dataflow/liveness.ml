open Mac_rtl

(* Registers are indexed by [Reg.id] (dense; [Func.next_reg] bounds
   them) and the block facts come from the packed gen/kill solver. *)

type t = { cfg : Mac_cfg.Cfg.t; sol : Bitv.t Dataflow.solution; nbits : int }

(* Block gen = upward-exposed uses, kill = defs. *)

let compute (cfg : Mac_cfg.Cfg.t) =
  let nbits = cfg.func.next_reg in
  let n = Array.length cfg.blocks in
  let gen = Array.init n (fun _ -> Bitv.create nbits)
  and kill = Array.init n (fun _ -> Bitv.create nbits) in
  for b = 0 to n - 1 do
    List.iter
      (fun (i : Rtl.inst) ->
        List.iter
          (fun r ->
            if not (Bitv.get kill.(b) (Reg.id r)) then
              Bitv.set gen.(b) (Reg.id r))
          (Rtl.uses i.kind);
        List.iter (fun r -> Bitv.set kill.(b) (Reg.id r)) (Rtl.defs i.kind))
      cfg.blocks.(b).insts
  done;
  let sol =
    Dataflow.solve_bits cfg ~direction:Dataflow.Backward ~meet:Dataflow.Union
      ~gen ~kill ~boundary:(Bitv.create nbits)
  in
  let force = function Some v -> v | None -> Bitv.create nbits in
  {
    cfg;
    sol =
      {
        Dataflow.inb = Array.map force sol.Dataflow.inb;
        outb = Array.map force sol.Dataflow.outb;
      };
    nbits;
  }

let to_set bv = Bitv.fold_set (fun i acc -> Reg.Set.add (Reg.make i) acc) bv Reg.Set.empty

let live_in t b = to_set t.sol.Dataflow.inb.(b)
let live_out t b = to_set t.sol.Dataflow.outb.(b)

let for_all_live_out t b f =
  Bitv.for_all_set (fun i -> f (Reg.make i)) t.sol.Dataflow.outb.(b)

(* One instruction's backward transfer on a fresh copy. *)
let transfer_bits (i : Rtl.inst) live =
  let live = Bitv.copy live in
  List.iter (fun r -> Bitv.clear live (Reg.id r)) (Rtl.defs i.kind);
  List.iter (fun r -> Bitv.set live (Reg.id r)) (Rtl.uses i.kind);
  live

(* Pair each instruction of block [b] with [view] of the registers live
   after it. *)
let walk t b view =
  snd
    (List.fold_right
       (fun i (live, acc) -> (transfer_bits i live, (i, view live) :: acc))
       t.cfg.blocks.(b).insts
       (t.sol.Dataflow.outb.(b), []))

let live_after_each t b = walk t b to_set

(* Same walk without materializing sets: each instruction is paired with a
   membership query on the liveness-after fact. Consumers that only probe
   a handful of registers per instruction (DCE asks about the defs)
   sidestep the per-instruction [Reg.Set] construction, which costs an
   order of magnitude more than the block solve itself. *)
let live_after_query t b =
  let nbits = t.nbits in
  walk t b (fun live r -> Reg.id r < nbits && Bitv.get live (Reg.id r))

(* Eager variant: instructions are visited in reverse body order and the
   membership query passed to [f] is valid only during that call (a
   single working vector is transferred in place, so the whole block
   costs one copy). The fold accumulator threads through in visit order,
   so consing builds a forward-order list. *)
let fold_live_after t b ~init ~f =
  let nbits = t.nbits in
  let live = Bitv.copy t.sol.Dataflow.outb.(b) in
  let query r = Reg.id r < nbits && Bitv.get live (Reg.id r) in
  List.fold_right
    (fun (i : Rtl.inst) acc ->
      let acc = f acc i query in
      List.iter (fun r -> Bitv.clear live (Reg.id r)) (Rtl.defs i.kind);
      List.iter (fun r -> Bitv.set live (Reg.id r)) (Rtl.uses i.kind);
      acc)
    t.cfg.blocks.(b).insts init
