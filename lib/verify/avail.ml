open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Bitv = Mac_dataflow.Bitv

type akey =
  | AMove of Rtl.operand
  | ABin of Rtl.binop * Rtl.operand * Rtl.operand
  | AUn of Rtl.unop * Rtl.operand
  | ALoad of Rtl.mem * Rtl.signedness
  | AExt of Reg.t * Rtl.operand * Width.t * Rtl.signedness

type fact = int * akey

let akey_regs = function
  | AMove (Rtl.Reg r) -> [ r ]
  | AMove (Rtl.Imm _) -> []
  | ABin (_, a, b) ->
    List.filter_map (function Rtl.Reg r -> Some r | _ -> None) [ a; b ]
  | AUn (_, Rtl.Reg r) -> [ r ]
  | AUn (_, Rtl.Imm _) -> []
  | ALoad (m, _) -> [ m.Rtl.base ]
  | AExt (src, pos, _, _) -> (
    src :: (match pos with Rtl.Reg r -> [ r ] | Rtl.Imm _ -> []))

let is_load_key = function ALoad _ -> true | _ -> false

let gen_fact (i : Rtl.inst) =
  let ok d key = not (List.exists (Reg.equal d) (akey_regs key)) in
  match i.kind with
  | Rtl.Move (d, o) ->
    let k = AMove o in
    if ok d k then Some (d, k) else None
  | Rtl.Binop (op, d, a, b) ->
    let k = ABin (op, a, b) in
    if ok d k then Some (d, k) else None
  | Rtl.Unop (op, d, a) ->
    let k = AUn (op, a) in
    if ok d k then Some (d, k) else None
  | Rtl.Load { dst; src; sign } ->
    let k = ALoad (src, sign) in
    if ok dst k then Some (dst, k) else None
  | Rtl.Extract { dst; src; pos; width; sign } ->
    let k = AExt (src, pos, width, sign) in
    if ok dst k then Some (dst, k) else None
  | _ -> None

(* Facts are numbered in ascending [Stdlib.compare] order, so a set
   index walk lists a block's facts in the order a set of facts would. *)
type t = { facts : fact array; inb : Bitv.t array }

let solve (cfg : Cfg.t) =
  let facts =
    List.filter_map
      (fun i -> Option.map (fun (d, k) -> (Reg.id d, k)) (gen_fact i))
      cfg.func.Func.body
    |> List.sort_uniq Stdlib.compare |> Array.of_list
  in
  let nf = Array.length facts in
  let index = Hashtbl.create (max 16 nf) in
  let touch = Hashtbl.create 16 in
  let loads = Bitv.create nf in
  let mask_of r =
    match Hashtbl.find_opt touch (Reg.id r) with
    | Some m -> m
    | None ->
      let m = Bitv.create nf in
      Hashtbl.replace touch (Reg.id r) m;
      m
  in
  Array.iteri
    (fun j ((d, k) as fact) ->
      Hashtbl.replace index fact j;
      Bitv.set (mask_of (Reg.make d)) j;
      List.iter (fun r -> Bitv.set (mask_of r) j) (akey_regs k);
      if is_load_key k then Bitv.set loads j)
    facts;
  (* A block's transfer, instruction by instruction: a store kills the
     load facts, a call kills everything, a definition kills the facts
     held in or computed from its register, then the instruction's own
     fact is generated. The composition is a gen/kill pair:
     out = (in - kill) ∪ gen. *)
  let n = Array.length cfg.blocks in
  let gen = Array.init n (fun _ -> Bitv.create nf)
  and kill = Array.init n (fun _ -> Bitv.create nf) in
  let all = Bitv.full nf in
  let kill_with b m =
    ignore (Bitv.diff_into ~into:gen.(b) m);
    ignore (Bitv.union_into ~into:kill.(b) m)
  in
  Array.iter
    (fun (blk : Cfg.block) ->
      let b = blk.index in
      List.iter
        (fun (i : Rtl.inst) ->
          (match i.kind with
          | Rtl.Store _ -> kill_with b loads
          | Rtl.Call _ -> kill_with b all
          | _ -> ());
          List.iter
            (fun r ->
              match Hashtbl.find_opt touch (Reg.id r) with
              | Some m -> kill_with b m
              | None -> ())
            (Rtl.defs i.kind);
          match gen_fact i with
          | Some (d, k) -> Bitv.set gen.(b) (Hashtbl.find index (Reg.id d, k))
          | None -> ())
        blk.insts)
    cfg.blocks;
  (* forward must-analysis, round-robin over every block (unreachable
     ones included) from out = everything: in = ∩ preds out *)
  let empty = Bitv.create nf in
  let inb = Array.init n (fun _ -> Bitv.create nf) in
  let outb = Array.init n (fun _ -> Bitv.full nf) in
  let in_ = Bitv.create nf and out = Bitv.create nf in
  let entry = Cfg.entry cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      (match cfg.pred.(b) with
      | p :: ps when b <> entry ->
        Bitv.blit ~into:in_ outb.(p);
        List.iter (fun q -> ignore (Bitv.inter_into ~into:in_ outb.(q))) ps
      | _ -> Bitv.blit ~into:in_ empty);
      Bitv.blit ~into:out in_;
      ignore (Bitv.diff_into ~into:out kill.(b));
      ignore (Bitv.union_into ~into:out gen.(b));
      if not (Bitv.equal in_ inb.(b) && Bitv.equal out outb.(b)) then begin
        Bitv.blit ~into:inb.(b) in_;
        Bitv.blit ~into:outb.(b) out;
        changed := true
      end
    done
  done;
  { facts; inb }

let entry_facts t b =
  List.rev (Bitv.fold_set (fun j acc -> t.facts.(j) :: acc) t.inb.(b) [])
