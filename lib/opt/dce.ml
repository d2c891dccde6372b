open Mac_rtl
module Liveness = Mac_dataflow.Liveness

let removable (i : Rtl.inst) live_after =
  match i.kind with
  | Rtl.Nop -> true
  | k when Rtl.has_side_effect k -> false
  | k -> (
    match Rtl.defs k with
    | [] -> true (* no side effect, defines nothing: dead *)
    | defs -> not (List.exists live_after defs))

let once am (f : Func.t) =
  let cfg = Mac_dataflow.Analysis.cfg am in
  let live = Mac_dataflow.Analysis.liveness am in
  let reach = Mac_cfg.Cfg.reachable cfg in
  let changed = ref false in
  let dropped_block = ref false in
  let body =
    Array.to_list cfg.blocks
    |> List.concat_map (fun (b : Mac_cfg.Cfg.block) ->
           if not reach.(b.index) then begin
             (* Unreachable block: drop it entirely, label included. *)
             if b.insts <> [] then begin
               changed := true;
               dropped_block := true
             end;
             []
           end
           else
             (* Reverse-order fold; consing builds the forward order. *)
             Liveness.fold_live_after live b.index ~init:[]
               ~f:(fun acc (i : Rtl.inst) after ->
                 if removable i after then begin
                   changed := true;
                   acc
                 end
                 else i :: acc))
  in
  if !changed then begin
    Func.set_body f body;
    (* Removed instructions are never labels or terminators (both have
       side effects), so block structure survives unless a whole
       unreachable block went away (shifting the indices). *)
    Mac_dataflow.Analysis.invalidate am
      ~preserves:
        (Mac_dataflow.Analysis.Tvalid
        ::
        (if !dropped_block then []
         else [ Mac_dataflow.Analysis.Dom; Mac_dataflow.Analysis.Loops ]))
  end;
  !changed

(* Liveness cannot retire a register that keeps itself alive around a
   back edge ([i = i + 1] with no other use — a "faint" variable, e.g. a
   loop counter left behind by induction-variable elimination). A register
   is faint when every instruction that uses it is a pure instruction
   whose only definition is the register itself; all such instructions can
   go at once. *)
let remove_faint (f : Func.t) =
  (* One scan marks every register that is not faint: a parameter, or
     one used by an instruction other than a pure definition of itself.
     Register ids are dense below [next_reg]. *)
  let kept = Array.make f.next_reg false in
  List.iter (fun r -> if Reg.id r < f.next_reg then kept.(Reg.id r) <- true)
    f.params;
  let self_def (i : Rtl.inst) =
    if Rtl.has_side_effect i.kind then None
    else match Rtl.defs i.kind with [ d ] -> Some d | _ -> None
  in
  List.iter
    (fun (i : Rtl.inst) ->
      let d = self_def i in
      List.iter
        (fun r ->
          match d with
          | Some d when Reg.equal d r -> ()
          | _ -> kept.(Reg.id r) <- true)
        (Rtl.uses i.kind))
    f.body;
  let is_dead_inst i =
    match self_def i with Some d -> not kept.(Reg.id d) | None -> false
  in
  if List.exists is_dead_inst f.body then begin
    Func.set_body f (List.filter (fun i -> not (is_dead_inst i)) f.body);
    true
  end
  else false

let run ?am (f : Func.t) =
  let am =
    match am with Some am -> am | None -> Mac_dataflow.Analysis.create f
  in
  let changed = ref false in
  (* Both removals are monotone (removing an instruction only ever makes
     more instructions dead or faint), so the joint fixpoint is the same
     whatever the interleaving; running the faint scan only once the
     liveness-based pass is quiescent reaches it with far fewer
     whole-body scans. *)
  let rec go () =
    if once am f then begin
      changed := true;
      go ()
    end
    else if remove_faint f then begin
      (* Faint instructions are pure single-def bodies: plain
         instructions only, so block structure survives. *)
      Mac_dataflow.Analysis.invalidate am
        ~preserves:
          [ Mac_dataflow.Analysis.Dom; Mac_dataflow.Analysis.Loops;
            Mac_dataflow.Analysis.Tvalid ];
      changed := true;
      go ()
    end
  in
  go ();
  !changed
