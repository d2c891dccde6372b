(* Set reference for the translation validator's available-equality
   analysis ({!Mac_verify.Avail}): the round-robin must-fixpoint over
   functional fact sets, with the instruction-by-instruction transfer
   written straight from the definition. test_verify.ml pins the
   bitvector solver's per-block entry facts to it on random control
   flow. *)

open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Avail = Mac_verify.Avail

module FactSet = Set.Make (struct
  type t = Avail.fact

  let compare = Stdlib.compare
end)

let fact_step s (i : Rtl.inst) =
  let s =
    match i.kind with
    | Rtl.Store _ -> FactSet.filter (fun (_, k) -> not (Avail.is_load_key k)) s
    | Rtl.Call _ -> FactSet.empty
    | _ -> s
  in
  let ds = Rtl.defs i.kind in
  let s =
    if ds = [] then s
    else
      FactSet.filter
        (fun (d, k) ->
          not
            (List.exists
               (fun r ->
                 Reg.id r = d || List.exists (Reg.equal r) (Avail.akey_regs k))
               ds))
        s
  in
  match Avail.gen_fact i with
  | Some (d, k) -> FactSet.add (Reg.id d, k) s
  | None -> s

(* forward must-analysis: in = ∩ preds out, out = transfer (in) *)
let solve_avail (cfg : Cfg.t) =
  let n = Array.length cfg.blocks in
  let universe =
    List.fold_left
      (fun s i ->
        match Avail.gen_fact i with
        | Some (d, k) -> FactSet.add (Reg.id d, k) s
        | None -> s)
      FactSet.empty cfg.func.Func.body
  in
  let inb = Array.make n FactSet.empty in
  let outb = Array.make n universe in
  let entry = Cfg.entry cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (b : Cfg.block) ->
        let i = b.index in
        let in_ =
          if i = entry then FactSet.empty
          else
            match cfg.pred.(i) with
            | [] -> FactSet.empty
            | p :: ps ->
              List.fold_left
                (fun acc q -> FactSet.inter acc outb.(q))
                outb.(p) ps
        in
        let out = List.fold_left fact_step in_ b.insts in
        if
          (not (FactSet.equal in_ inb.(i)))
          || not (FactSet.equal out outb.(i))
        then begin
          inb.(i) <- in_;
          outb.(i) <- out;
          changed := true
        end)
      cfg.blocks
  done;
  inb
