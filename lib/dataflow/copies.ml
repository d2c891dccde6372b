open Mac_rtl

(* The lattice element is Top (unreached: all copies hold vacuously) or a
   finite map dst -> operand; meet is map intersection on agreeing
   entries.

   The distinct copy *facts* — each [(dst, src)] pair some qualifying
   Move establishes — are numbered densely and solved with the
   must-variant of the packed gen/kill solver (Top = the solver's
   [None], meet = intersection). A fact is killed by any definition of
   its destination or source register. At a valid program point at most
   one fact per destination is available, so converting a fact set back
   to a map is unambiguous. *)

type t = {
  cfg : Mac_cfg.Cfg.t;
  sol : Bitv.t option Dataflow.solution;
  fact_dst : Reg.t array;
  fact_op : Rtl.operand array;
  facts_of_reg : Bitv.t Reg.Tbl.t;  (* facts mentioning the register *)
  fact_index : (int * Rtl.operand, int) Hashtbl.t;
      (* (dst id, operand) -> fact *)
}

(* The copy fact an instruction establishes, if any. *)
let copy_of_inst (i : Rtl.inst) =
  match i.kind with
  | Rtl.Move (d, Rtl.Reg s) when not (Reg.equal d s) -> Some (d, Rtl.Reg s)
  | Rtl.Move (d, (Rtl.Imm _ as imm)) -> Some (d, imm)
  | _ -> None

let compute (cfg : Mac_cfg.Cfg.t) =
  (* Enumerate the distinct facts in body order. *)
  let fact_index = Hashtbl.create 32 in
  let rev_facts = ref [] and nfacts = ref 0 in
  Array.iter
    (fun (b : Mac_cfg.Cfg.block) ->
      List.iter
        (fun (i : Rtl.inst) ->
          match copy_of_inst i with
          | Some (d, op) ->
            let key = (Reg.id d, op) in
            if not (Hashtbl.mem fact_index key) then begin
              Hashtbl.add fact_index key !nfacts;
              rev_facts := (d, op) :: !rev_facts;
              incr nfacts
            end
          | None -> ())
        b.insts)
    cfg.blocks;
  let nfacts = !nfacts in
  let facts = Array.make nfacts None in
  List.iteri
    (fun i f -> facts.(nfacts - 1 - i) <- Some f)
    !rev_facts;
  let fact_dst = Array.map (fun f -> fst (Option.get f)) facts in
  let fact_op = Array.map (fun f -> snd (Option.get f)) facts in
  let facts_of_reg = Reg.Tbl.create 16 in
  let mask_of r =
    match Reg.Tbl.find_opt facts_of_reg r with
    | Some m -> m
    | None ->
      let m = Bitv.create nfacts in
      Reg.Tbl.replace facts_of_reg r m;
      m
  in
  Array.iteri
    (fun fi (d : Reg.t) ->
      Bitv.set (mask_of d) fi;
      match fact_op.(fi) with
      | Rtl.Reg s -> Bitv.set (mask_of s) fi
      | Rtl.Imm _ -> ())
    fact_dst;
  let n = Array.length cfg.blocks in
  let gen = Array.init n (fun _ -> Bitv.create nfacts)
  and kill = Array.init n (fun _ -> Bitv.create nfacts) in
  for b = 0 to n - 1 do
    List.iter
      (fun (i : Rtl.inst) ->
        List.iter
          (fun r ->
            match Reg.Tbl.find_opt facts_of_reg r with
            | Some m ->
              ignore (Bitv.union_into ~into:kill.(b) m);
              ignore (Bitv.diff_into ~into:gen.(b) m)
            | None -> ())
          (Rtl.defs i.kind);
        match copy_of_inst i with
        | Some (d, op) ->
          let fi = Hashtbl.find fact_index (Reg.id d, op) in
          Bitv.set gen.(b) fi;
          Bitv.clear kill.(b) fi
        | None -> ())
      cfg.blocks.(b).insts
  done;
  let sol =
    Dataflow.solve_bits cfg ~direction:Dataflow.Forward ~meet:Dataflow.Inter
      ~gen ~kill ~boundary:(Bitv.create nfacts)
  in
  { cfg; sol; fact_dst; fact_op; facts_of_reg; fact_index }

(* One instruction's forward transfer on a fresh copy; Top is a transfer
   fixed point. *)
let transfer_bits t (i : Rtl.inst) = function
  | None -> None
  | Some bv ->
    let bv = Bitv.copy bv in
    List.iter
      (fun r ->
        match Reg.Tbl.find_opt t.facts_of_reg r with
        | Some m -> ignore (Bitv.diff_into ~into:bv m)
        | None -> ())
      (Rtl.defs i.kind);
    (match copy_of_inst i with
    | Some (d, op) -> Bitv.set bv (Hashtbl.find t.fact_index (Reg.id d, op))
    | None -> ());
    Some bv

(* Pair each instruction of block [b] with [view] of the facts holding
   before it. *)
let walk t b view =
  let _, acc =
    List.fold_left
      (fun (v, acc) i -> (transfer_bits t i v, (i, view v) :: acc))
      (t.sol.Dataflow.inb.(b), [])
      t.cfg.blocks.(b).insts
  in
  List.rev acc

let copies_before_each t b =
  walk t b (function
    | None -> Reg.Map.empty (* Top renders as the empty map *)
    | Some bv ->
      Bitv.fold_set
        (fun fi m -> Reg.Map.add t.fact_dst.(fi) t.fact_op.(fi) m)
        bv Reg.Map.empty)

(* Same walk as {!copies_before_each} but handing out lookup closures
   instead of materialized maps. A lookup scans only the facts that
   mention the queried register (at most one per destination is
   available at a valid point), so no per-instruction [Reg.Map] is ever
   built. *)
let copies_query t b =
  walk t b (function
    | None -> fun _ -> None (* Top renders as the empty map *)
    | Some bv ->
      fun r -> (
        match Reg.Tbl.find_opt t.facts_of_reg r with
        | None -> None
        | Some mask ->
          Bitv.fold_set
            (fun fi acc ->
              match acc with
              | Some _ -> acc
              | None ->
                if Bitv.get bv fi && Reg.equal t.fact_dst.(fi) r then
                  Some t.fact_op.(fi)
                else None)
            mask None))
