(* Set/map reference solutions for liveness, reaching definitions and
   available copies: a round-robin fixpoint over functional sets, written
   directly from each analysis's textbook definition. test_dataflow.ml
   pins the library's bitvector analyses to these, accessor by accessor,
   on random control flow. *)

open Mac_rtl
module Cfg = Mac_cfg.Cfg
module IntSet = Mac_dataflow.Reaching.IntSet
open Mac_dataflow.Dataflow

(* Sweep the blocks in index order until nothing changes. [transfer b v]
   maps the value flowing into block [b] (its entry for forward problems,
   its exit for backward ones) across the block. The boundary value
   enters at block 0 (forward) or at every block without successors
   (backward). *)
let solve (cfg : Cfg.t) ~direction ~boundary ~top ~meet ~equal ~transfer =
  let n = Array.length cfg.blocks in
  let inb = Array.make n top and outb = Array.make n top in
  let preds, is_boundary =
    match direction with
    | Forward -> (cfg.pred, fun b -> b = 0)
    | Backward -> (cfg.succ, fun b -> cfg.succ.(b) = [])
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      let flow_in =
        let from_edges =
          List.fold_left
            (fun acc p ->
              let v =
                match direction with Forward -> outb.(p) | Backward -> inb.(p)
              in
              match acc with None -> Some v | Some a -> Some (meet a v))
            None preds.(b)
        in
        match (from_edges, is_boundary b) with
        | Some v, true -> meet v boundary
        | Some v, false -> v
        | None, _ -> boundary
      in
      let flow_out = transfer b flow_in in
      let cur_in, cur_out =
        match direction with
        | Forward -> (flow_in, flow_out)
        | Backward -> (flow_out, flow_in)
      in
      if not (equal cur_in inb.(b) && equal cur_out outb.(b)) then begin
        inb.(b) <- cur_in;
        outb.(b) <- cur_out;
        changed := true
      end
    done
  done;
  { inb; outb }

(* --- liveness (backward, may) ---------------------------------------- *)

let live_transfer (i : Rtl.inst) live_after =
  let without_defs =
    List.fold_left (fun acc r -> Reg.Set.remove r acc) live_after
      (Rtl.defs i.kind)
  in
  List.fold_left (fun acc r -> Reg.Set.add r acc) without_defs
    (Rtl.uses i.kind)

let liveness (cfg : Cfg.t) =
  solve cfg ~direction:Backward ~boundary:Reg.Set.empty ~top:Reg.Set.empty
    ~meet:Reg.Set.union ~equal:Reg.Set.equal ~transfer:(fun b live_out ->
      List.fold_right live_transfer cfg.blocks.(b).insts live_out)

(* Each instruction of block [b] paired with the registers live after it. *)
let live_after_each (cfg : Cfg.t) sol b =
  snd
    (List.fold_right
       (fun i (live, acc) -> (live_transfer i live, (i, live) :: acc))
       cfg.blocks.(b).insts
       (sol.outb.(b), []))

(* --- reaching definitions (forward, may) ----------------------------- *)

(* Every definition uid of each register, parameters included as their
   pseudo-definitions. *)
let defs_of_reg (cfg : Cfg.t) =
  let tbl = Reg.Tbl.create 32 in
  let add r uid =
    let cur = Option.value (Reg.Tbl.find_opt tbl r) ~default:IntSet.empty in
    Reg.Tbl.replace tbl r (IntSet.add uid cur)
  in
  List.iter
    (fun r -> add r (Mac_dataflow.Reaching.param_uid r))
    cfg.func.params;
  Array.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun (i : Rtl.inst) -> List.iter (fun r -> add r i.uid) (Rtl.defs i.kind))
        b.insts)
    cfg.blocks;
  tbl

let defs_of tbl r =
  Option.value (Reg.Tbl.find_opt tbl r) ~default:IntSet.empty

let reach_transfer tbl (i : Rtl.inst) reach =
  List.fold_left
    (fun reach r -> IntSet.add i.uid (IntSet.diff reach (defs_of tbl r)))
    reach (Rtl.defs i.kind)

let reaching (cfg : Cfg.t) =
  let tbl = defs_of_reg cfg in
  let boundary =
    List.fold_left
      (fun acc r -> IntSet.add (Mac_dataflow.Reaching.param_uid r) acc)
      IntSet.empty cfg.func.params
  in
  solve cfg ~direction:Forward ~boundary ~top:IntSet.empty ~meet:IntSet.union
    ~equal:IntSet.equal ~transfer:(fun b reach ->
      List.fold_left
        (fun reach i -> reach_transfer tbl i reach)
        reach cfg.blocks.(b).insts)

(* The definitions of [r] reaching the point just before [before] in
   block [b]. *)
let defs_of_reg_reaching (cfg : Cfg.t) sol ~block ~(before : Rtl.inst) r =
  let tbl = defs_of_reg cfg in
  let rec walk reach = function
    | [] -> reach
    | (i : Rtl.inst) :: rest ->
      if i.uid = before.uid then reach
      else walk (reach_transfer tbl i reach) rest
  in
  IntSet.inter
    (walk sol.inb.(block) cfg.blocks.(block).insts)
    (defs_of tbl r)

(* --- available copies (forward, must) -------------------------------- *)

(* Top is "unreached": every copy holds vacuously. *)
type copies = Top | Copies of Rtl.operand Reg.Map.t

let operand_equal a b =
  match (a, b) with
  | Rtl.Reg r1, Rtl.Reg r2 -> Reg.equal r1 r2
  | Rtl.Imm i1, Rtl.Imm i2 -> Int64.equal i1 i2
  | _ -> false

let copies_meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Copies m1, Copies m2 ->
    Copies
      (Reg.Map.merge
         (fun _ s1 s2 ->
           match (s1, s2) with
           | Some s1, Some s2 when operand_equal s1 s2 -> Some s1
           | _ -> None)
         m1 m2)

let copies_equal a b =
  match (a, b) with
  | Top, Top -> true
  | Copies m1, Copies m2 -> Reg.Map.equal operand_equal m1 m2
  | _ -> false

(* A definition of [r] kills every copy into or out of [r]. *)
let kill r m =
  Reg.Map.filter
    (fun d s ->
      (not (Reg.equal d r))
      && match s with Rtl.Reg s -> not (Reg.equal s r) | Rtl.Imm _ -> true)
    m

let copies_transfer (i : Rtl.inst) = function
  | Top -> Top
  | Copies m ->
    let m = List.fold_left (fun m r -> kill r m) m (Rtl.defs i.kind) in
    Copies
      (match i.kind with
      | Rtl.Move (d, (Rtl.Reg s as op)) when not (Reg.equal d s) ->
        Reg.Map.add d op m
      | Rtl.Move (d, (Rtl.Imm _ as op)) -> Reg.Map.add d op m
      | _ -> m)

let copies (cfg : Cfg.t) =
  solve cfg ~direction:Forward ~boundary:(Copies Reg.Map.empty) ~top:Top
    ~meet:copies_meet ~equal:copies_equal ~transfer:(fun b v ->
      List.fold_left (fun v i -> copies_transfer i v) v cfg.blocks.(b).insts)

(* Each instruction of block [b] paired with the copies available before
   it; Top renders as the empty map. *)
let copies_before_each (cfg : Cfg.t) sol b =
  let to_map = function Top -> Reg.Map.empty | Copies m -> m in
  List.rev
    (snd
       (List.fold_left
          (fun (v, acc) i -> (copies_transfer i v, (i, to_map v) :: acc))
          (sol.inb.(b), [])
          cfg.blocks.(b).insts))
