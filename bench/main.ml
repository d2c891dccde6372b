(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (see DESIGN.md experiment index), runs the
   ablation experiments of DESIGN.md §5, and finishes with Bechamel
   microbenchmarks of the compiler and simulator themselves.

   Output sections are labelled with the experiment ids used in DESIGN.md
   and EXPERIMENTS.md: FIG1, TAB2, TAB3, TAB4, FIG5, PREH, ABL1..ABL4.

   The benchmark x machine x mode cells of each section are computed on a
   pool of domains (Pool.map) and joined in canonical order, so the
   printed output is byte-identical to a serial run; only the wall clock
   changes with MAC_JOBS. Alongside the human-readable sections the
   harness writes BENCH_sim.json, a machine-readable record of every
   TAB2/TAB3/TAB4/SCHED/FULL cell plus the sweep's wall-clock and the
   measured serial-reference vs parallel-jit speedup.

   Environment:
     MAC_SIZE   image edge length (default 500, the paper's size)
     MAC_QUICK  if set, size 64 and shorter Bechamel quotas
     MAC_JOBS   worker domains (default Domain.recommended_domain_count)
     MAC_JSON   where to write BENCH_sim.json (default ./BENCH_sim.json) *)

open Mac_rtl
module W = Mac_workloads.Workloads
module Tables = Mac_workloads.Tables
module Pool = Mac_parallel.Pool
module Sweep = Mac_workloads.Sweep
module Machine = Mac_machine.Machine
module Pipeline = Mac_vpo.Pipeline
module Coalesce = Mac_core.Coalesce

let quick = Sys.getenv_opt "MAC_QUICK" <> None

let size =
  match Sys.getenv_opt "MAC_SIZE" with
  | Some s -> int_of_string s
  | None -> if quick then 64 else 500

let jobs = Pool.jobs ()
let json_path = Option.value (Sys.getenv_opt "MAC_JSON") ~default:"BENCH_sim.json"
let now () = Unix.gettimeofday ()
let section id title = Fmt.pr "@.=== %s: %s ===@." id title

(* ------------------------------------------------------------------ *)
(* FIG1: the dot product of Fig. 1 — original vs coalesced RTL and the
   75% memory-reference reduction. *)

let fig1 () =
  section "FIG1" "dot product (paper Fig. 1), DEC Alpha";
  let show level label =
    let cfg = Pipeline.config ~level Machine.alpha in
    let compiled = Pipeline.compile_source cfg W.dotproduct_src in
    Fmt.pr "--- %s ---@.%a@." label Func.pp (List.hd compiled.funcs)
  in
  show Pipeline.O1 "rolled loop (O1, after legalization: LDQ_U + extract)";
  show Pipeline.O4 "unrolled x4 + coalesced (O4)";
  let refs =
    Pool.map ~jobs
      (fun level ->
        let m =
          (W.run ~size:4096 (Pipeline.config ~level Machine.alpha)
             W.dotproduct)
            .result.metrics
        in
        m.loads + m.stores)
      Pipeline.[ O2; O4 ]
  in
  let base, coal =
    match refs with [ b; c ] -> (b, c) | _ -> assert false
  in
  Fmt.pr
    "memory references for n=4096: unrolled baseline=%d coalesced=%d \
     (%.1f%% eliminated; paper: 75%%)@."
    base coal
    (100.0 *. float_of_int (base - coal) /. float_of_int base)

(* ------------------------------------------------------------------ *)
(* TAB2/TAB3/TAB4: the evaluation tables. Each table's benchmark x level
   cells run on the pool; the rows come back in canonical order and are
   rendered exactly as before. Returns the rows for the JSON record. *)

let table id machine note =
  section id (Printf.sprintf "%s (%dx%d images)" note size size);
  let rows = Tables.table ~size ~jobs (Tables.paper machine) in
  Fmt.pr "%a@." (fun ppf r -> Tables.pp_table ppf machine r) rows;
  rows

(* ------------------------------------------------------------------ *)
(* SCHED: the same forced-coalescing tables with the [-Osched] software
   pipeliner on and the Pipelined profitability oracle pricing the
   coalescer's versions. The harness gates on the headline cell: the
   scheduled mc88100 image_add16/O4 must beat its unscheduled TAB3
   counterpart, or the JSON is not written. *)

let sched_table machine note =
  section "SCHED"
    (Printf.sprintf "%s (%dx%d images, -Osched + Pipelined oracle)" note size
       size);
  let rows = Tables.table ~size ~jobs (Sweep.sched_config machine) in
  Fmt.pr "%a@." (fun ppf r -> Tables.pp_table ppf machine r) rows;
  rows

let o4_cycles bench rows =
  let r =
    List.find
      (fun (r : Tables.row) -> String.equal r.Tables.bench.W.name bench)
      rows
  in
  r.Tables.loads_stores

let sched_gate ~sched_rows ~tab3_rows =
  let scheduled = o4_cycles "image_add16" sched_rows in
  let unscheduled = o4_cycles "image_add16" tab3_rows in
  if scheduled >= unscheduled then
    failwith
      (Printf.sprintf
         "SCHED gate: mc88100 image_add16 O4 with -Osched is %d cycles, \
          not below the unscheduled TAB3 cell's %d"
         scheduled unscheduled);
  Fmt.pr
    "SCHED gate: mc88100 image_add16 O4 %d -> %d cycles (-%.1f%%) with \
     -Osched@."
    unscheduled scheduled
    (100.0
    *. float_of_int (unscheduled - scheduled)
    /. float_of_int unscheduled)

(* ------------------------------------------------------------------ *)
(* SPEEDUP: the Table II sweep under each engine, serially, vs the
   domain-parallel jit run. Both engines produce the same rows (the
   equivalence tests pin them to each other); only the clock differs. *)

let speedup_tab2 parallel_jit_seconds =
  section "SPEEDUP"
    "Table II sweep: serial reference vs serial jit vs parallel jit";
  let serial engine =
    let t0 = now () in
    ignore (Tables.table ~size ~jobs:1 ~engine (Tables.paper Machine.alpha));
    now () -. t0
  in
  let serial_reference = serial `Reference in
  let serial_jit = serial `Jit in
  let ratio =
    if parallel_jit_seconds > 0.0 then
      serial_reference /. parallel_jit_seconds
    else 0.0
  in
  Fmt.pr "28 cells at size %d, jobs=1: reference %.2fs, jit %.2fs@." size
    serial_reference serial_jit;
  Fmt.pr "parallel jit (%d job(s)): %.2fs -> %.1fx over serial reference@."
    jobs parallel_jit_seconds ratio;
  {
    Sweep.serial_reference_seconds = serial_reference;
    serial_jit_seconds = serial_jit;
    parallel_jit_seconds;
    ratio;
  }

(* ------------------------------------------------------------------ *)
(* ENGINES: the cross-engine equivalence gate the JSON record rides on.
   One Table II cell runs under both engines and every metric must agree
   bit for bit; then a deliberately trapping program must produce the
   identical trap string on both. A mismatch aborts the harness (and
   therefore CI) before an invalid BENCH_sim.json can be written. *)

let engines_check () =
  section "ENGINES" "cross-engine equivalence on one Table II cell";
  let bench = Option.get (W.find "image_add") in
  let outcomes =
    Pool.map ~jobs
      (fun engine ->
        W.run ~size:64 ~engine (Pipeline.config Machine.alpha) bench)
      [ `Reference; `Jit ]
  in
  let r, j = match outcomes with [ r; j ] -> (r, j) | _ -> assert false in
  let check name (o : W.outcome) =
    if not (Int64.equal o.result.value r.result.value) then
      failwith
        (Printf.sprintf "ENGINES: %s return value differs from reference"
           name);
    let m = o.result.metrics in
    if m <> r.result.metrics then
      failwith
        (Printf.sprintf "ENGINES: %s metrics differ from reference" name);
    if not o.correct then
      failwith (Printf.sprintf "ENGINES: %s output is wrong" name);
    Fmt.pr
      "%-9s cycles=%d insts=%d loads=%d stores=%d dcache=%d/%d ok@." name
      m.cycles m.insts m.loads m.stores m.dcache_hits m.dcache_misses
  in
  check "reference" r;
  check "jit" j;
  (* trap fidelity: out-of-fuel fires mid-run with the same message *)
  let trap_of engine =
    let cfg = Pipeline.config ~level:Pipeline.O4 Machine.alpha in
    let compiled = Pipeline.compile_source cfg bench.W.source in
    let mem = Mac_sim.Memory.create ~size:(1 lsl 16) in
    match
      Mac_sim.Interp.run ~machine:Machine.alpha ~memory:mem compiled.funcs
        ~entry:bench.W.entry
        ~args:[ 64L; 4096L; 8192L; 1024L ]
        ~fuel:100 ~engine ()
    with
    | _ -> "no trap"
    | exception Mac_sim.Interp.Trap msg -> msg
  in
  let tr = trap_of `Reference in
  let tj = trap_of `Jit in
  if not (String.equal tj tr) then
    failwith
      (Printf.sprintf "ENGINES: jit trap %S differs from reference %S" tj tr);
  Fmt.pr "trap fidelity: both engines trap with %S@." tr

(* ------------------------------------------------------------------ *)
(* FIG5: the run-time alignment and alias dispatch. *)

let count_labels (o : W.outcome) prefix =
  List.fold_left
    (fun acc (l, c) ->
      if
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix
      then acc + c
      else acc)
    0 o.result.metrics.label_counts

let fig5 () =
  section "FIG5" "run-time alignment/alias dispatch (paper Fig. 5)";
  let bench = Option.get (W.find "image_add") in
  let cases =
    [
      ("aligned, disjoint", W.default_layout);
      ("misaligned (skew 2)", { W.default_layout with skew = 2 });
      ("overlapping buffers", { W.default_layout with overlap = true });
    ]
  in
  let outcomes =
    Pool.map ~jobs
      (fun (_, layout) ->
        W.run ~layout ~size:64 (Pipeline.config Machine.alpha) bench)
      cases
  in
  List.iter2
    (fun (label, _) o ->
      Fmt.pr
        "%-22s -> coalesced-loop iterations=%-6d safe-loop iterations=%-6d \
         output %s@."
        label (count_labels o "Lmain") (count_labels o "Lsafe")
        (if o.W.correct then "correct" else "WRONG"))
    cases outcomes

(* ------------------------------------------------------------------ *)
(* PREH: preheader check cost (the paper: 10-15 instructions). *)

(* Count the final (post-optimization) instructions of a loop's dispatch
   region: everything between the dispatch label and the unrolled loop's
   own label. *)
let dispatch_insts (f : Func.t) header =
  let rec skip_to = function
    | { Rtl.kind = Rtl.Label l; _ } :: rest when String.equal l header ->
      rest
    | _ :: rest -> skip_to rest
    | [] -> []
  in
  let rec count acc = function
    | { Rtl.kind = Rtl.Label l; _ } :: _
      when String.length l >= 5 && String.sub l 0 5 = "Lmain" ->
      acc
    | { Rtl.kind = Rtl.Label _; _ } :: rest -> count acc rest
    | _ :: rest -> count (acc + 1) rest
    | [] -> acc
  in
  count 0 (skip_to f.Func.body)

let preh () =
  section "PREH" "run-time check instructions per coalesced loop (Alpha)";
  let compiled_of =
    Pool.map ~jobs
      (fun (bench : W.t) ->
        let cfg = Pipeline.config ~level:Pipeline.O4 Machine.alpha in
        (bench, Pipeline.compile_source cfg bench.source))
      (W.dotproduct :: W.all)
  in
  List.iter
    (fun ((bench : W.t), (compiled : Pipeline.compiled)) ->
      List.iter
        (fun (fname, reports) ->
          List.iter
            (fun (r : Coalesce.loop_report) ->
              if r.status = Coalesce.Coalesced then
                let final =
                  match
                    List.find_opt
                      (fun (f : Func.t) -> String.equal f.name fname)
                      compiled.funcs
                  with
                  | Some f -> dispatch_insts f r.header
                  | None -> r.check_insts
                in
                Fmt.pr
                  "%-12s %s/%s: %d check instruction(s) after cleanup \
                   (%d as emitted)@."
                  bench.name fname r.header final r.check_insts)
            reports)
        compiled.reports)
    compiled_of

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §5). *)

let abl1 () =
  section "ABL1"
    "coalesce-before-legalize vs legalize-first (decision 1): Alpha O4 \
     cycles";
  let cells =
    List.concat_map
      (fun (b : W.t) -> [ (b, false); (b, true) ])
      W.all
  in
  let cycles =
    Pool.map ~jobs
      (fun ((bench : W.t), legalize_first) ->
        (W.run ~size:64
           (Pipeline.config ~legalize_first Machine.alpha)
           bench)
          .result.metrics.cycles)
      cells
  in
  let res = Array.of_list cycles in
  List.iteri
    (fun i (bench : W.t) ->
      Fmt.pr "%-12s coalesce-first=%-9d legalize-first=%-9d@." bench.name
        res.(2 * i)
        res.((2 * i) + 1))
    W.all

let abl2 () =
  section "ABL2"
    "profitability by list scheduling vs naive cost sum (decision 2)";
  let benches =
    [ Option.get (W.find "image_add"); Option.get (W.find "image_add16") ]
  in
  let status (machine, (bench : W.t), mode) =
    let coalesce = { Coalesce.default with profit_mode = mode } in
    let cfg = Pipeline.config ~level:Pipeline.O4 ~coalesce machine in
    let compiled = Pipeline.compile_source cfg bench.source in
    let statuses =
      List.concat_map
        (fun (_, rs) ->
          List.map (fun (r : Coalesce.loop_report) -> r.status) rs)
        compiled.reports
    in
    if List.exists (( = ) Coalesce.Coalesced) statuses then "coalesced"
    else "rejected "
  in
  let cells =
    List.concat_map
      (fun machine ->
        List.concat_map
          (fun bench ->
            [
              (machine, bench, Mac_core.Profitability.Schedule);
              (machine, bench, Mac_core.Profitability.CostSum);
            ])
          benches)
      Machine.all
  in
  let res = Array.of_list (Pool.map ~jobs status cells) in
  List.iteri
    (fun mi machine ->
      List.iteri
        (fun bi (bench : W.t) ->
          let at k = res.((((mi * 2) + bi) * 2) + k) in
          Fmt.pr "%-8s %-12s schedule:%s  cost-sum:%s@."
            machine.Machine.name bench.name (at 0) (at 1))
        benches)
    Machine.all

let abl3 () =
  section "ABL3" "run-time checks vs static-only analysis (decision 3)";
  let count_coalesced runtime_checks =
    List.fold_left
      (fun acc (bench : W.t) ->
        let coalesce = { Coalesce.default with runtime_checks } in
        let cfg =
          Pipeline.config ~level:Pipeline.O4 ~coalesce Machine.alpha
        in
        let compiled = Pipeline.compile_source cfg bench.source in
        acc
        + List.length
            (List.concat_map
               (fun (_, rs) ->
                 List.filter
                   (fun (r : Coalesce.loop_report) ->
                     r.status = Coalesce.Coalesced)
                   rs)
               compiled.reports))
      0 (W.dotproduct :: W.all)
  in
  let counts = Pool.map ~jobs count_coalesced [ true; false ] in
  let with_checks, static_only =
    match counts with [ a; b ] -> (a, b) | _ -> assert false
  in
  Fmt.pr
    "loops coalesced across the suite (Alpha): with run-time checks=%d, \
     static-only=%d@."
    with_checks static_only;
  Fmt.pr
    "(the paper: static-only analysis \"would eliminate most \
     opportunities\")@."

let abl4 () =
  section "ABL4" "I-cache unrolling guard (decision 4): MC68030";
  let bench = Option.get (W.find "convolution") in
  let cycles =
    Pool.map ~jobs
      (fun icache_guard ->
        let coalesce = { Tables.forced with icache_guard } in
        (W.run ~size:64 (Pipeline.config ~coalesce Machine.mc68030) bench)
          .result.metrics.cycles)
      [ true; false ]
  in
  let on, off = match cycles with [ a; b ] -> (a, b) | _ -> assert false in
  Fmt.pr "convolution, forced coalescing: guard-on=%d guard-off=%d@." on off

let abl5 () =
  section "ABL5"
    "induction-variable elimination (paper Fig. 2 line 16) on/off";
  Fmt.pr
    "Alpha cycles; at O1 the pointer rewrite saves the per-iteration index      arithmetic, at O4 coalescing + DCE would have deleted that arithmetic      anyway and the replicated pointer updates cost a little:@.";
  let cells =
    List.concat_map
      (fun (b : W.t) ->
        List.map
          (fun (level, sr) -> (b, level, sr))
          [
            (Pipeline.O1, false); (Pipeline.O1, true);
            (Pipeline.O4, false); (Pipeline.O4, true);
          ])
      W.all
  in
  let res =
    Array.of_list
      (Pool.map ~jobs
         (fun ((bench : W.t), level, strength_reduce) ->
           (W.run ~size:64
              (Pipeline.config ~level ~strength_reduce Machine.alpha)
              bench)
             .result.metrics.cycles)
         cells)
  in
  List.iteri
    (fun i (bench : W.t) ->
      let at k = res.((i * 4) + k) in
      Fmt.pr "%-12s O1: off=%-9d on=%-9d   O4: off=%-9d on=%-9d@."
        bench.name (at 0) (at 1) (at 2) (at 3))
    W.all

let abl6 () =
  section "ABL6" "register pressure: linear-scan allocation";
  Fmt.pr
    "image_add16 on Alpha at O4, cycles by machine register count      (virtual = no allocation; 32 = the Alpha's real file; smaller files      force spilling):@.";
  let bench = Option.get (W.find "image_add16") in
  let configs = [ None; Some 32; Some 16; Some 10; Some 8 ] in
  let outcomes =
    Pool.map ~jobs
      (fun ra ->
        W.run ~size:64 (Pipeline.config ?regalloc:ra Machine.alpha) bench)
      configs
  in
  List.iter2
    (fun ra (o : W.outcome) ->
      Fmt.pr "%-10s %8d cycles%s@."
        (match ra with None -> "virtual" | Some k -> string_of_int k)
        o.result.metrics.cycles
        (if o.correct then "" else "  WRONG OUTPUT"))
    configs outcomes

let abl7 () =
  section "ABL7"
    "Fig. 5 remainder handling: epilogue vs divisibility bail-out";
  Fmt.pr
    "image_add on Alpha at O4 with a trip count that is NOT a multiple of      the widening factor (65x65 = 4225 = 8*528 + 1): the bail-out forfeits      the coalesced loop entirely, the remainder epilogue keeps it:@.";
  let cases = [ ("bail-out", false); ("epilogue", true) ] in
  let outcomes =
    Pool.map ~jobs
      (fun (_, remainder_loop) ->
        let coalesce = { Coalesce.default with remainder_loop } in
        W.run ~size:65
          (Pipeline.config ~coalesce Machine.alpha)
          (Option.get (W.find "image_add")))
      cases
  in
  List.iter2
    (fun (label, _) (o : W.outcome) ->
      Fmt.pr "%-10s %8d cycles  coalesced-loop=%-6d safe-loop=%-6d %s@."
        label o.result.metrics.cycles (count_labels o "Lmain")
        (count_labels o "Lsafe")
        (if o.correct then "output correct" else "WRONG OUTPUT"))
    cases outcomes

let abl8 () =
  section "ABL8"
    "unrolling vs instruction-cache pressure (the paper's motivation for      the unroll guard), I-fetch modelled";
  let run machine icache_guard =
    let coalesce = { Coalesce.default with icache_guard } in
    W.run ~size:64 ~model_icache:true
      (Pipeline.config ~level:Pipeline.O2 ~coalesce machine)
      (Option.get (W.find "convolution"))
  in
  let outcomes =
    Pool.map ~jobs
      (fun (machine, guard) -> run machine guard)
      [
        (Machine.mc68030, true); (Machine.mc68030, false);
        (Machine.alpha, true); (Machine.alpha, false);
      ]
  in
  let res = Array.of_list outcomes in
  Fmt.pr
    "convolution on the MC68030 (256-byte I-cache) at O2 — no coalescing,      just unrolling — with instruction fetch simulated:@.";
  List.iteri
    (fun i label ->
      let o : W.outcome = res.(i) in
      Fmt.pr "%-22s %9d cycles, %8d I-fetch miss(es) %s@." label
        o.result.metrics.cycles o.result.metrics.icache_misses
        (if o.correct then "" else "WRONG OUTPUT"))
    [ "guard on (stays rolled)"; "guard off (unrolled x4)" ];
  Fmt.pr
    "and the same comparison on the Alpha (8 KB I-cache), where the      unrolled loop still fits:@.";
  List.iteri
    (fun i label ->
      let o : W.outcome = res.(i + 2) in
      Fmt.pr "%-22s %9d cycles, %8d I-fetch miss(es) %s@." label
        o.result.metrics.cycles o.result.metrics.icache_misses
        (if o.correct then "" else "WRONG OUTPUT"))
    [ "guard on"; "guard off" ]

let full_pipeline () =
  section "FULL"
    "Table II with the complete vpo-style pipeline (strength reduction +      list scheduling + 32-register allocation)";
  let outs = Sweep.full_outcomes ~jobs ~size:64 () in
  let get (bench : W.t) level =
    let _, _, o =
      List.find
        (fun ((b : W.t), l, _) -> String.equal b.name bench.name && l = level)
        outs
    in
    (o.W.result.metrics.cycles, o.W.correct)
  in
  Fmt.pr "| %-12s | %10s | %10s | %10s | %6s |@." "program" "O2 unroll"
    "O3 loads" "O4 ld+st" "sv-all";
  List.iter
    (fun (bench : W.t) ->
      let o2, k2 = get bench Pipeline.O2 in
      let o3, k3 = get bench Pipeline.O3 in
      let o4, k4 = get bench Pipeline.O4 in
      Fmt.pr "| %-12s | %10d | %10d | %10d | %6.2f | %s@." bench.name o2 o3
        o4
        (100.0 *. float_of_int (o2 - o4) /. float_of_int o2)
        (if k2 && k3 && k4 then "ok" else "WRONG OUTPUT"))
    W.all;
  outs

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: compiler and simulator throughput. *)

let bechamel_benches () =
  section "BECH" "Bechamel microbenchmarks (wall-clock of this library)";
  let open Bechamel in
  let compile_test name source machine =
    Test.make ~name
      (Staged.stage (fun () ->
           let cfg = Pipeline.config ~level:Pipeline.O4 machine in
           ignore (Pipeline.compile_source cfg source)))
  in
  (* Simulation alone: the program is compiled and its memory prepared
     once, outside the timed closure. The kernels write only their output
     regions, so restoring those before each run starts every run from
     the freshly prepared image. *)
  let simulate_test ?engine name (bench : W.t) machine level =
    let cfg = Pipeline.config ~level machine in
    let compiled = Pipeline.compile_source cfg bench.source in
    (* the image size W.run allocates at size 24 *)
    let mem = Mac_sim.Memory.create ~size:(1 lsl 17) in
    let inst = bench.prepare W.default_layout ~size:24 mem in
    let pristine =
      List.map
        (fun (_, addr, len) ->
          (addr, Mac_sim.Memory.load_bytes mem ~addr ~len))
        inst.W.outputs
    in
    Test.make ~name
      (Staged.stage (fun () ->
           List.iter
             (fun (addr, b) -> Mac_sim.Memory.store_bytes mem ~addr b)
             pristine;
           ignore
             (Mac_sim.Interp.run ~machine ~memory:mem compiled.funcs
                ~entry:bench.entry ~args:inst.W.args ?engine ())))
  in
  let image_add_src = (Option.get (W.find "image_add")).W.source in
  let verify_test name source verify =
    Test.make ~name
      (Staged.stage (fun () ->
           let cfg = Pipeline.config ~level:Pipeline.O4 ~verify Machine.alpha in
           ignore (Pipeline.compile_source cfg source)))
  in
  (* engine microbenchmark: the same simulation on both engines, with
     the compile outside the timed region *)
  let engine_test name engine =
    simulate_test ~engine name
      (Option.get (W.find "image_add"))
      Machine.alpha Pipeline.O4
  in
  let tests =
    Test.make_grouped ~name:"mac"
      [
        Test.make_grouped ~name:"compile"
          (List.map
             (fun (b : W.t) ->
               compile_test ("tab2/" ^ b.name) b.source Machine.alpha)
             W.all);
        (* what --verify costs on top of an O4 compile *)
        Test.make_grouped ~name:"verify"
          [
            verify_test "image_add/none" image_add_src Pipeline.Vnone;
            verify_test "image_add/full" image_add_src Pipeline.Vfull;
          ];
        Test.make_grouped ~name:"engine"
          [
            engine_test "image_add/reference" `Reference;
            engine_test "image_add/jit" `Jit;
          ];
        Test.make_grouped ~name:"simulate"
          [
            simulate_test "table2_alpha"
              (Option.get (W.find "image_add"))
              Machine.alpha Pipeline.O4;
            simulate_test "table3_mc88100"
              (Option.get (W.find "image_add"))
              Machine.mc88100 Pipeline.O4;
            simulate_test "table4_mc68030"
              (Option.get (W.find "image_add"))
              Machine.mc68030 Pipeline.O4;
            simulate_test "fig1_dotproduct" W.dotproduct Machine.alpha
              Pipeline.O4;
            simulate_test "fig5_runtime_checks"
              (Option.get (W.find "mirror"))
              Machine.alpha Pipeline.O4;
          ];
      ]
  in
  let quota = Time.second (if quick then 0.1 else 0.5) in
  let cfg = Benchmark.cfg ~limit:500 ~quota ~kde:(Some 500) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | _ -> nan
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Fmt.pr "%-40s %12.0f ns/run@." name est)
    (List.sort compare !rows)

let () =
  Fmt.pr "memory-access-coalescing benchmark harness (size=%d%s, %d job(s))@."
    size
    (if quick then ", quick mode" else "")
    jobs;
  let t0 = now () in
  fig1 ();
  let tab_t0 = now () in
  let rows2 = table "TAB2" Machine.alpha "Table II: DEC Alpha" in
  let tab2_seconds = now () -. tab_t0 in
  let rows3 = table "TAB3" Machine.mc88100 "Table III: Motorola 88100" in
  let rows4 =
    table "TAB4" Machine.mc68030 "68030 result (in-text): slower everywhere"
  in
  let sched88 =
    sched_table Machine.mc88100 "Table III + software pipelining"
  in
  let sched68 =
    sched_table Machine.mc68030 "68030 + software pipelining"
  in
  sched_gate ~sched_rows:sched88 ~tab3_rows:rows3;
  let speedup = speedup_tab2 tab2_seconds in
  engines_check ();
  fig5 ();
  preh ();
  abl1 ();
  abl2 ();
  abl3 ();
  abl4 ();
  abl5 ();
  abl6 ();
  abl7 ();
  abl8 ();
  let full_outs = full_pipeline () in
  let cells =
    Sweep.cells_of_rows ~section:"TAB2" ~machine:Machine.alpha rows2
    @ Sweep.cells_of_rows ~section:"TAB3" ~machine:Machine.mc88100 rows3
    @ Sweep.cells_of_rows ~section:"TAB4" ~machine:Machine.mc68030 rows4
    @ Sweep.cells_of_rows ~section:"SCHED" ~machine:Machine.mc88100 sched88
    @ Sweep.cells_of_rows ~section:"SCHED" ~machine:Machine.mc68030 sched68
    @ Sweep.cells_of_full_outcomes full_outs
  in
  let wall = now () -. t0 in
  let json =
    Sweep.to_json ~size ~jobs_requested:jobs
      ~jobs_effective:(Pool.effective_jobs ~jobs 28)
      ~engine:"jit" ~wall_seconds:wall ~speedup cells
  in
  (match Sweep.validate json with
  | Ok n ->
    let oc = open_out json_path in
    output_string oc json;
    close_out oc;
    Fmt.pr "@.wrote %s (%d cells, validated)@." json_path n
  | Error msg -> failwith ("refusing to write invalid JSON: " ^ msg));
  bechamel_benches ();
  Fmt.pr "@.done.@."
