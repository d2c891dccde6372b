(* Tests for the dataflow framework instances: liveness, reaching
   definitions, available copies. *)

open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Liveness = Mac_dataflow.Liveness
module Reaching = Mac_dataflow.Reaching
module Copies = Mac_dataflow.Copies

let reg = Reg.make

let func_of ?(params = [ reg 0; reg 1 ]) kinds =
  let f = Func.create ~name:"t" ~params in
  List.iter (Func.append f) kinds;
  f

let regs_of set = List.map Reg.id (Reg.Set.elements set)

let test_liveness_straightline () =
  (* r2 = r0 + 1; r3 = r2 + r1; ret r3 *)
  let f =
    func_of
      [
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 2), Rtl.Reg (reg 1));
        Rtl.Ret (Some (Rtl.Reg (reg 3)));
      ]
  in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg in
  Alcotest.(check (list int)) "live-in is params" [ 0; 1 ]
    (regs_of (Liveness.live_in live 0));
  Alcotest.(check (list int)) "live-out empty at exit" []
    (regs_of (Liveness.live_out live 0));
  match Liveness.live_after_each live 0 with
  | [ (_, after0); (_, after1); (_, after2) ] ->
    Alcotest.(check (list int)) "after first" [ 1; 2 ] (regs_of after0);
    Alcotest.(check (list int)) "after second" [ 3 ] (regs_of after1);
    Alcotest.(check (list int)) "after ret" [] (regs_of after2)
  | _ -> Alcotest.fail "expected three instructions"

let test_liveness_through_loop () =
  (* the accumulator must stay live around the back edge *)
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 0L);
        Rtl.Label "L";
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Reg (reg 0));
        Rtl.Binop (Rtl.Sub, reg 1, Rtl.Reg (reg 1), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Gt; l = Rtl.Reg (reg 1); r = Rtl.Imm 0L; target = "L" };
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg in
  let loop_block = Option.get (Cfg.block_of_label cfg "L") in
  Alcotest.(check bool) "accumulator live into loop" true
    (Reg.Set.mem (reg 2) (Liveness.live_in live loop_block));
  Alcotest.(check bool) "accumulator live out of loop" true
    (Reg.Set.mem (reg 2) (Liveness.live_out live loop_block))

let test_dead_def_not_live () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 42L);
        Rtl.Ret (Some (Rtl.Reg (reg 0)));
      ]
  in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg in
  match Liveness.live_after_each live 0 with
  | (_, after0) :: _ ->
    Alcotest.(check bool) "dead def not live after" false
      (Reg.Set.mem (reg 2) after0)
  | [] -> Alcotest.fail "empty block"

let test_reaching_defs () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L;
            target = "Lj" };
        Rtl.Move (reg 2, Rtl.Imm 2L);
        Rtl.Label "Lj";
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let r = Reaching.compute cfg in
  let join = Option.get (Cfg.block_of_label cfg "Lj") in
  let ret_inst = List.hd (List.rev f.body) in
  let defs =
    Reaching.defs_of_reg_reaching r ~block:join ~before:ret_inst (reg 2)
  in
  Alcotest.(check int) "both definitions of r2 reach the join" 2
    (Reaching.IntSet.cardinal defs);
  (* each reaching def is a Move *)
  Reaching.IntSet.iter
    (fun uid ->
      match Reaching.def_inst r uid with
      | Some { Rtl.kind = Rtl.Move (d, Rtl.Imm _); _ } ->
        Alcotest.(check int) "defines r2" 2 (Reg.id d)
      | _ -> Alcotest.fail "expected immediate moves")
    defs

let test_reaching_params () =
  let f = func_of [ Rtl.Ret (Some (Rtl.Reg (reg 0))) ] in
  let cfg = Cfg.build f in
  let r = Reaching.compute cfg in
  let ret_inst = List.hd f.body in
  let defs = Reaching.defs_of_reg_reaching r ~block:0 ~before:ret_inst (reg 0) in
  Alcotest.(check (list int)) "parameter pseudo-def" [ Reaching.param_uid (reg 0) ]
    (Reaching.IntSet.elements defs)

let test_reaching_loop_carried () =
  (* inside a loop both the initialisation and the loop's own definition
     reach the top of the body *)
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 0L);
        Rtl.Label "L";
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 0);
            target = "L" };
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let r = Reaching.compute cfg in
  let loop_block = Option.get (Cfg.block_of_label cfg "L") in
  let first_inst =
    List.find
      (fun (i : Mac_rtl.Rtl.inst) ->
        match i.kind with Mac_rtl.Rtl.Binop _ -> true | _ -> false)
      cfg.blocks.(loop_block).insts
  in
  let defs =
    Reaching.defs_of_reg_reaching r ~block:loop_block ~before:first_inst
      (reg 2)
  in
  Alcotest.(check int) "init + loop def both reach" 2
    (Reaching.IntSet.cardinal defs)

let test_copies_straightline () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Reg (reg 0));
        Rtl.Move (reg 3, Rtl.Imm 7L);
        Rtl.Binop (Rtl.Add, reg 4, Rtl.Reg (reg 2), Rtl.Reg (reg 3));
        Rtl.Ret (Some (Rtl.Reg (reg 4)));
      ]
  in
  let cfg = Cfg.build f in
  let copies = Copies.compute cfg in
  match Copies.copies_before_each copies 0 with
  | [ _; _; (_, before_add); _ ] ->
    (match Reg.Map.find_opt (reg 2) before_add with
    | Some (Rtl.Reg s) -> Alcotest.(check int) "r2 copies r0" 0 (Reg.id s)
    | _ -> Alcotest.fail "expected copy r2 <- r0");
    (match Reg.Map.find_opt (reg 3) before_add with
    | Some (Rtl.Imm 7L) -> ()
    | _ -> Alcotest.fail "expected constant copy r3 <- 7")
  | _ -> Alcotest.fail "expected four instructions"

let test_copies_killed_by_redef () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Reg (reg 0));
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let copies = Copies.compute cfg in
  match List.rev (Copies.copies_before_each copies 0) with
  | (_, before_ret) :: _ ->
    Alcotest.(check bool) "copy killed when source redefined" true
      (Reg.Map.find_opt (reg 2) before_ret = None)
  | [] -> Alcotest.fail "empty"

let test_copies_meet_is_intersection () =
  (* r2 <- r0 on one path only: not available at the join *)
  let f =
    func_of
      [
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L;
            target = "Lj" };
        Rtl.Move (reg 2, Rtl.Reg (reg 0));
        Rtl.Label "Lj";
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let copies = Copies.compute cfg in
  let join = Option.get (Cfg.block_of_label cfg "Lj") in
  match Copies.copies_before_each copies join with
  | (_, before) :: _ ->
    Alcotest.(check bool) "copy not available at join" true
      (Reg.Map.find_opt (reg 2) before = None)
  | [] -> Alcotest.fail "empty block"

let test_copies_available_at_join_when_on_both_paths () =
  let f =
    func_of
      [
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L;
            target = "Lb" };
        Rtl.Move (reg 2, Rtl.Imm 5L);
        Rtl.Jump "Lj";
        Rtl.Label "Lb";
        Rtl.Move (reg 2, Rtl.Imm 5L);
        Rtl.Label "Lj";
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let copies = Copies.compute cfg in
  let join = Option.get (Cfg.block_of_label cfg "Lj") in
  match Copies.copies_before_each copies join with
  | (_, before) :: _ -> (
    match Reg.Map.find_opt (reg 2) before with
    | Some (Rtl.Imm 5L) -> ()
    | _ -> Alcotest.fail "constant available from both paths")
  | [] -> Alcotest.fail "empty block"

(* --- oracle equivalence on random CFGs ------------------------------ *)

(* The bitvector analyses are pinned against the set/map reference
   solutions of Dataflow_oracle on randomly generated control flow:
   chains of blocks with random jumps, branches and fall-throughs, which
   naturally produce unreachable blocks (a block after a jump nobody
   targets), self-loops (a block branching to its own label) and empty
   blocks (a label that falls straight through to the next). Every public
   accessor — materialized sets, query closures and the eager fold — must
   agree exactly with the oracle. *)

module Oracle = Dataflow_oracle
module Dataflow = Mac_dataflow.Dataflow

type rand_block = {
  rb_insts : Rtl.kind list;  (* interior: moves and binops over r0..r7 *)
  rb_term : int option option;
      (* None: fall through; Some None: ret; Some (Some k): jump/branch *)
  rb_branchy : bool;  (* branch (falls through) vs jump when targeted *)
}

let gen_func =
  let open QCheck.Gen in
  let nregs = 8 in
  let gen_operand =
    oneof
      [
        map (fun r -> Rtl.Reg (Reg.make r)) (int_bound (nregs - 1));
        map (fun v -> Rtl.Imm (Int64.of_int v)) (int_bound 99);
      ]
  in
  let gen_inst =
    let* dst = int_bound (nregs - 1) in
    oneof
      [
        map (fun s -> Rtl.Move (Reg.make dst, s)) gen_operand;
        map2
          (fun a b -> Rtl.Binop (Rtl.Add, Reg.make dst, a, b))
          gen_operand gen_operand;
      ]
  in
  let gen_block nblocks =
    let* rb_insts = list_size (int_bound 3) gen_inst in
    let* rb_term =
      frequency
        [
          (2, return None); (* fall through — empty-block material *)
          (1, return (Some None)); (* ret *)
          (3, map (fun k -> Some (Some k)) (int_bound (nblocks - 1)));
        ]
    in
    let* rb_branchy = bool in
    return { rb_insts; rb_term; rb_branchy }
  in
  let* nblocks = int_range 1 6 in
  let* blocks = list_repeat nblocks (gen_block nblocks) in
  return (nblocks, blocks)

let func_of_rand (nblocks, blocks) =
  let f = Func.create ~name:"rand" ~params:[ Reg.make 0; Reg.make 1 ] in
  List.iteri
    (fun bi rb ->
      Func.append f (Rtl.Label (Printf.sprintf "L%d" bi));
      List.iter (Func.append f) rb.rb_insts;
      match rb.rb_term with
      | None -> () (* fall through (or off the end: patched below) *)
      | Some None -> Func.append f (Rtl.Ret (Some (Rtl.Reg (Reg.make 0))))
      | Some (Some k) ->
        let target = Printf.sprintf "L%d" (k mod nblocks) in
        if rb.rb_branchy then
          Func.append f
            (Rtl.Branch
               { cmp = Rtl.Gt; l = Rtl.Reg (Reg.make 1); r = Rtl.Imm 0L;
                 target })
        else Func.append f (Rtl.Jump target))
    blocks;
  (* The body must not fall off the end. *)
  (match List.rev f.Func.body with
  | { Rtl.kind = Rtl.Ret _ | Rtl.Jump _; _ } :: _ -> ()
  | _ -> Func.append f (Rtl.Ret (Some (Rtl.Reg (Reg.make 0)))));
  f

let arbitrary_func =
  QCheck.make
    ~print:(fun rand -> Fmt.str "%a" Func.pp (func_of_rand rand))
    gen_func

let all_regs f = List.init f.Func.next_reg Reg.make

let check_liveness_equal f cfg =
  let live = Liveness.compute cfg in
  let oracle = Oracle.liveness cfg in
  let regs = all_regs f in
  Array.iteri
    (fun b _ ->
      if not (Reg.Set.equal (Liveness.live_in live b) oracle.Dataflow.inb.(b))
      then QCheck.Test.fail_reportf "live_in differs at block %d" b;
      if
        not (Reg.Set.equal (Liveness.live_out live b) oracle.Dataflow.outb.(b))
      then QCheck.Test.fail_reportf "live_out differs at block %d" b;
      let expected = Oracle.live_after_each cfg oracle b in
      List.iter2
        (fun (i, got) (ie, want) ->
          if i.Rtl.uid <> ie.Rtl.uid || not (Reg.Set.equal got want) then
            QCheck.Test.fail_reportf "live_after_each differs at block %d" b)
        (Liveness.live_after_each live b)
        expected;
      (* query closures and the eager fold answer exactly the sets *)
      List.iter2
        (fun (i, set) (iq, q) ->
          if i.Rtl.uid <> iq.Rtl.uid then
            QCheck.Test.fail_reportf "query order differs at block %d" b;
          List.iter
            (fun r ->
              if Reg.Set.mem r set <> q r then
                QCheck.Test.fail_reportf
                  "live_after_query differs at block %d reg %d" b (Reg.id r))
            regs)
        expected
        (Liveness.live_after_query live b);
      (* reverse visit order: consing builds the forward order *)
      let folded =
        Liveness.fold_live_after live b ~init:[] ~f:(fun acc i q ->
            (i.Rtl.uid, List.filter q regs) :: acc)
      in
      List.iter2
        (fun (i, set) (uid, live_regs) ->
          if
            i.Rtl.uid <> uid
            || not (Reg.Set.equal set (Reg.Set.of_list live_regs))
          then QCheck.Test.fail_reportf "fold_live_after differs at block %d" b)
        expected folded)
    cfg.Cfg.blocks

let check_reaching_equal f cfg =
  let reach = Reaching.compute cfg in
  let oracle = Oracle.reaching cfg in
  let regs = all_regs f in
  Array.iteri
    (fun b (blk : Cfg.block) ->
      if
        not
          (Reaching.IntSet.equal (Reaching.reach_in reach b)
             oracle.Dataflow.inb.(b))
      then QCheck.Test.fail_reportf "reach_in differs at block %d" b;
      List.iter
        (fun i ->
          List.iter
            (fun r ->
              let got = Reaching.defs_of_reg_reaching reach ~block:b ~before:i r
              and want =
                Oracle.defs_of_reg_reaching cfg oracle ~block:b ~before:i r
              in
              if not (Reaching.IntSet.equal got want) then
                QCheck.Test.fail_reportf
                  "defs_of_reg_reaching differs at block %d reg %d" b
                  (Reg.id r))
            regs)
        blk.Cfg.insts)
    cfg.Cfg.blocks

let check_copies_equal f cfg =
  let copies = Copies.compute cfg in
  let oracle = Oracle.copies cfg in
  let regs = all_regs f in
  Array.iteri
    (fun b _ ->
      let expected = Oracle.copies_before_each cfg oracle b in
      List.iter2
        (fun (i, got) (ie, want) ->
          if i.Rtl.uid <> ie.Rtl.uid || not (Reg.Map.equal ( = ) got want) then
            QCheck.Test.fail_reportf "copies_before_each differs at block %d"
              b)
        (Copies.copies_before_each copies b)
        expected;
      List.iter2
        (fun (i, map) (iq, q) ->
          if i.Rtl.uid <> iq.Rtl.uid then
            QCheck.Test.fail_reportf "copies query order differs at block %d" b;
          List.iter
            (fun r ->
              if Reg.Map.find_opt r map <> q r then
                QCheck.Test.fail_reportf "copies_query differs at block %d reg %d"
                  b (Reg.id r))
            regs)
        expected
        (Copies.copies_query copies b))
    cfg.Cfg.blocks

let oracle_equivalence_tests =
  let mk name check =
    QCheck.Test.make ~count:300 ~name arbitrary_func (fun rand ->
        let f = func_of_rand rand in
        let cfg = Cfg.build f in
        check f cfg;
        true)
  in
  [
    mk "liveness: bitvec = reference on random CFGs" check_liveness_equal;
    mk "reaching: bitvec = reference on random CFGs" check_reaching_equal;
    mk "copies: bitvec = reference on random CFGs" check_copies_equal;
  ]

(* --- the analysis manager ------------------------------------------- *)

module Analysis = Mac_dataflow.Analysis

let manager_func () =
  func_of
    [
      Rtl.Move (reg 2, Rtl.Imm 0L);
      Rtl.Label "L";
      Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Reg (reg 0));
      Rtl.Binop (Rtl.Sub, reg 1, Rtl.Reg (reg 1), Rtl.Imm 1L);
      Rtl.Branch
        { cmp = Rtl.Gt; l = Rtl.Reg (reg 1); r = Rtl.Imm 0L; target = "L" };
      Rtl.Ret (Some (Rtl.Reg (reg 2)));
    ]

let test_manager_memoizes () =
  let f = manager_func () in
  let am = Analysis.create f in
  Alcotest.(check bool) "cfg memoised" true
    (Analysis.cfg am == Analysis.cfg am);
  Alcotest.(check bool) "liveness memoised" true
    (Analysis.liveness am == Analysis.liveness am);
  Alcotest.(check bool) "dom memoised" true (Analysis.dom am == Analysis.dom am);
  let hits, misses = Analysis.stats am in
  Alcotest.(check bool) "hits recorded" true (hits >= 3);
  Alcotest.(check bool) "misses recorded" true (misses >= 3)

let test_manager_invalidate_drops_and_keeps () =
  let f = manager_func () in
  let am = Analysis.create f in
  let cfg0 = Analysis.cfg am in
  let dom0 = Analysis.dom am in
  let live0 = Analysis.liveness am in
  (* an instruction-local rewrite: CFG facts die, Dom/Loops survive *)
  Analysis.invalidate am ~preserves:[ Analysis.Dom; Analysis.Loops ];
  Alcotest.(check bool) "dom survives" true (dom0 == Analysis.dom am);
  Alcotest.(check bool) "cfg recomputed" true (cfg0 != Analysis.cfg am);
  Alcotest.(check bool) "liveness recomputed" true
    (live0 != Analysis.liveness am);
  (* dependency closure: liveness cannot survive without the CFG *)
  let live1 = Analysis.liveness am in
  Analysis.invalidate am ~preserves:[ Analysis.Live ];
  Alcotest.(check bool) "liveness dropped without Cfg" true
    (live1 != Analysis.liveness am);
  let live2 = Analysis.liveness am in
  Analysis.invalidate am ~preserves:[ Analysis.Cfg; Analysis.Live ];
  Alcotest.(check bool) "liveness kept alongside Cfg" true
    (live2 == Analysis.liveness am)

let trivial_summary =
  {
    Mac_dataflow.Reuse.s_insts = 5;
    s_cycles = 12;
    s_loads = 1;
    s_stores = 0;
    s_misses = 1;
    s_icache_misses = 0;
    s_loops = [];
    s_approx = false;
  }

let test_manager_reuse_slot () =
  let f = manager_func () in
  let am = Analysis.create f in
  let calls = ref 0 in
  let compute _ =
    incr calls;
    { trivial_summary with Mac_dataflow.Reuse.s_insts = !calls }
  in
  let s1 = Analysis.reuse am ~key:"alpha:100" ~compute in
  let s2 = Analysis.reuse am ~key:"alpha:100" ~compute in
  Alcotest.(check bool) "same key memoised" true (s1 == s2);
  Alcotest.(check int) "computed once" 1 !calls;
  (* a different machine/size key is a different summary *)
  ignore (Analysis.reuse am ~key:"mc88100:100" ~compute);
  Alcotest.(check int) "distinct key recomputed" 2 !calls;
  (* survives an invalidation that preserves Cfg + Reuse... *)
  Analysis.invalidate am ~preserves:[ Analysis.Cfg; Analysis.Reuse ];
  Alcotest.(check bool) "kept alongside Cfg" true
    (s1 == Analysis.reuse am ~key:"alpha:100" ~compute);
  Alcotest.(check int) "no recompute after preserving pass" 2 !calls;
  (* ...but dependency closure drops it when Cfg is not preserved *)
  Analysis.invalidate am ~preserves:[ Analysis.Reuse ];
  Alcotest.(check bool) "dropped without Cfg" true
    (s1 != Analysis.reuse am ~key:"alpha:100" ~compute);
  Alcotest.(check int) "recomputed after closure drop" 3 !calls;
  (* and a pass that preserves nothing drops every key *)
  Analysis.invalidate am ~preserves:[];
  ignore (Analysis.reuse am ~key:"alpha:100" ~compute);
  ignore (Analysis.reuse am ~key:"mc88100:100" ~compute);
  Alcotest.(check int) "all keys dropped" 5 !calls

let test_manager_reuse_coherence () =
  (* a pass rewrites the stride of the loop's induction update but
     claims to preserve the reuse profile; the audit must notice *)
  let f = manager_func () in
  let am = Analysis.create f in
  (* the estimator pins the CFG view through the manager, then caches
     its profile under the Reuse slot *)
  ignore (Analysis.cfg am);
  ignore (Analysis.reuse am ~key:"alpha:100" ~compute:(fun _ -> trivial_summary));
  Alcotest.(check bool) "fresh reuse cache is coherent" true
    (Analysis.coherent am = Ok ());
  (match f.Func.body with
  | mv :: lbl :: add :: rest ->
    let add' =
      { add with
        Rtl.kind = Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 8L) }
    in
    Func.set_body f (mv :: lbl :: add' :: rest)
  | _ -> assert false);
  Alcotest.(check bool) "stride mutation detected" true
    (match Analysis.coherent am with Error _ -> true | Ok () -> false)

let test_manager_coherence () =
  let f = manager_func () in
  let am = Analysis.create f in
  ignore (Analysis.cfg am);
  Alcotest.(check bool) "fresh cache is coherent" true
    (Analysis.coherent am = Ok ());
  (* a pass rewrites an instruction but lies about what it preserved *)
  (match f.Func.body with
  | first :: rest ->
    Func.set_body f ({ first with Rtl.kind = Rtl.Move (reg 2, Rtl.Imm 7L) } :: rest)
  | [] -> assert false);
  Alcotest.(check bool) "stale cache detected" true
    (match Analysis.coherent am with Error _ -> true | Ok () -> false)

let manager_tests =
  [
    Alcotest.test_case "memoizes facts" `Quick test_manager_memoizes;
    Alcotest.test_case "invalidate honours preserves + closure" `Quick
      test_manager_invalidate_drops_and_keeps;
    Alcotest.test_case "coherence check" `Quick test_manager_coherence;
    Alcotest.test_case "reuse slot memoises per key" `Quick
      test_manager_reuse_slot;
    Alcotest.test_case "reuse slot under coherence audit" `Quick
      test_manager_reuse_coherence;
  ]

(* --- congruence ----------------------------------------------------- *)

module Congruence = Mac_dataflow.Congruence

let value = Alcotest.testable Congruence.pp_value Congruence.value_equal

let test_congruence_loop_counter () =
  (* i = 0; L: i += 8; if (r0 > i) goto L — at the header i ≡ 0 (mod 8)
     but its low 4 bits are unknown *)
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 0L);
        Rtl.Label "L";
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 8L);
        Rtl.Branch
          { cmp = Rtl.Gt; l = Rtl.Reg (reg 0); r = Rtl.Reg (reg 2);
            target = "L" };
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let t = Congruence.solve cfg in
  let header = Option.get (Cfg.block_of_label cfg "L") in
  let i = Congruence.value_of (Congruence.block_in t header) (reg 2) in
  Alcotest.(check (option int64)) "i mod 8 = 0" (Some 0L)
    (Congruence.residue i ~bits:3);
  Alcotest.(check (option int64)) "i mod 16 unknown" None
    (Congruence.residue i ~bits:4)

let test_congruence_affine_and_scaled () =
  (* r2 = r0 + 4 stays exact; r3 = r1 * 8 is 0 mod 8 whatever r1 is *)
  let f =
    func_of
      [
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 0), Rtl.Imm 4L);
        Rtl.Binop (Rtl.Mul, reg 3, Rtl.Reg (reg 1), Rtl.Imm 8L);
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let t = Congruence.solve cfg in
  let out = Congruence.block_out t 0 in
  Alcotest.(check (option (pair int int64))) "r2 = σ(r0) + 4"
    (Some (0, 4L))
    (Option.map
       (fun (r, off) -> (Reg.id r, off))
       (Congruence.exact_affine (Congruence.value_of out (reg 2))));
  Alcotest.(check (option int64)) "r3 mod 8 = 0" (Some 0L)
    (Congruence.residue (Congruence.value_of out (reg 3)) ~bits:3)

let test_congruence_join_and_implies () =
  (* r2 is 4 on one path and 12 on the other: 4 mod 8 on both *)
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 4L);
        Rtl.Branch
          { cmp = Rtl.Gt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L; target = "J" };
        Rtl.Move (reg 2, Rtl.Imm 12L);
        Rtl.Label "J";
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let t = Congruence.solve cfg in
  let j = Option.get (Cfg.block_of_label cfg "J") in
  let v = Congruence.value_of (Congruence.block_in t j) (reg 2) in
  Alcotest.(check (option int64)) "r2 mod 8 = 4" (Some 4L)
    (Congruence.residue v ~bits:3);
  Alcotest.(check bool) "12 implies the join" true
    (Congruence.implies ~actual:(Congruence.const 12L) ~claim:v);
  Alcotest.(check bool) "join does not imply 12" false
    (Congruence.implies ~actual:v ~claim:(Congruence.const 12L))

let test_congruence_consts_seed () =
  let f = func_of [ Rtl.Ret (Some (Rtl.Reg (reg 1))) ] in
  let cfg = Cfg.build f in
  let t = Congruence.solve ~consts:[ (reg 1, 16L) ] cfg in
  Alcotest.(check value) "seeded entry collapses to the constant"
    (Congruence.const 16L)
    (Congruence.value_of (Congruence.block_in t 0) (reg 1))

let congruence_tests =
  [
    Alcotest.test_case "loop counter mod step" `Quick
      test_congruence_loop_counter;
    Alcotest.test_case "affine and scaled" `Quick
      test_congruence_affine_and_scaled;
    Alcotest.test_case "join and implies" `Quick
      test_congruence_join_and_implies;
    Alcotest.test_case "seeded constants" `Quick test_congruence_consts_seed;
  ]

let () =
  Alcotest.run "dataflow"
    [
      ( "liveness",
        [
          Alcotest.test_case "straight line" `Quick test_liveness_straightline;
          Alcotest.test_case "through loop" `Quick test_liveness_through_loop;
          Alcotest.test_case "dead def" `Quick test_dead_def_not_live;
        ] );
      ( "reaching",
        [
          Alcotest.test_case "two defs reach join" `Quick test_reaching_defs;
          Alcotest.test_case "params" `Quick test_reaching_params;
          Alcotest.test_case "loop carried" `Quick
            test_reaching_loop_carried;
        ] );
      ( "copies",
        [
          Alcotest.test_case "straight line" `Quick test_copies_straightline;
          Alcotest.test_case "killed by redef" `Quick
            test_copies_killed_by_redef;
          Alcotest.test_case "meet is intersection" `Quick
            test_copies_meet_is_intersection;
          Alcotest.test_case "same copy on both paths" `Quick
            test_copies_available_at_join_when_on_both_paths;
        ] );
      ( "engine equivalence",
        List.map QCheck_alcotest.to_alcotest oracle_equivalence_tests );
      ("analysis manager", manager_tests);
      ("congruence", congruence_tests);
    ]
