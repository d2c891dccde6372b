(* The estimation sweep behind BENCH_est.json: every paper-table cell
   predicted by the static estimator, optionally pinned against the
   simulator, plus the triage mode that uses the predictions to decide
   which cells are worth simulating at all. *)

module Machine = Mac_machine.Machine
module Pipeline = Mac_vpo.Pipeline
module Reuse = Mac_dataflow.Reuse

type ecell = {
  section : string;
  bench : string;
  machine : string;
  level : string;
  pred_cycles : int;
  pred_insts : int;
  pred_loads : int;
  pred_stores : int;
  pred_misses : int;
  pred_approx : bool;
  est_seconds : float;
  sim_cycles : int option;
  sim_misses : int option;
  sim_seconds : float option;
}

(* Acceptance grid: O0 (nothing moved), O2 (unrolled baseline) and O4
   (loads+stores coalesced) on each paper machine. O2/O4 pairs also feed
   the triage ranking. *)
let levels = Pipeline.[ O0; O2; O4 ]

(* The simulation sweep's section configs, so the two artifacts describe
   the same compiled code. *)
let sections = Tables.sections

let rel_err ~pred ~sim =
  if sim = 0 then if pred = 0 then 0.0 else 1.0
  else
    Float.abs (float_of_int (pred - sim)) /. float_of_int sim

let cycle_err c =
  Option.map (fun sim -> rel_err ~pred:c.pred_cycles ~sim) c.sim_cycles

let miss_err c =
  Option.map (fun sim -> rel_err ~pred:c.pred_misses ~sim) c.sim_misses

let predict ~section ~(cfg : Pipeline.config) ~size (b : Workloads.t) level =
  let p = Workloads.estimate ~size ~assume_layout:true { cfg with level } b in
  let s = p.Workloads.summary in
  {
    section;
    bench = b.Workloads.name;
    machine = cfg.machine.Machine.name;
    level = Pipeline.level_to_string level;
    pred_cycles = s.Reuse.s_cycles;
    pred_insts = s.Reuse.s_insts;
    pred_loads = s.Reuse.s_loads;
    pred_stores = s.Reuse.s_stores;
    pred_misses = s.Reuse.s_misses;
    pred_approx = s.Reuse.s_approx;
    est_seconds = p.Workloads.est_seconds;
    sim_cycles = None;
    sim_misses = None;
    sim_seconds = None;
  }

let grid =
  List.concat_map
    (fun (section, cfg) ->
      List.concat_map
        (fun (b : Workloads.t) ->
          List.map (fun level -> (section, cfg, b, level)) levels)
        Workloads.all)
    sections

let simulate ~(cfg : Pipeline.config) ~size ?engine (b : Workloads.t) level c
    =
  let o =
    Workloads.run ~size ~assume_layout:true ?engine { cfg with level } b
  in
  {
    c with
    sim_cycles = Some o.result.metrics.cycles;
    sim_misses = Some o.result.metrics.dcache_misses;
    sim_seconds = Some o.sim_seconds;
  }

let predictions ~size () =
  List.map
    (fun (section, cfg, b, level) -> predict ~section ~cfg ~size b level)
    grid

(* Every cell estimated AND simulated — the accuracy artifact. The
   simulations fan over domains; the estimates are cheap enough to run
   serially. *)
let run ?jobs ?engine ~size () =
  let preds = predictions ~size () in
  let sims =
    Mac_parallel.Pool.map ?jobs
      (fun ((_, cfg, b, level), c) -> simulate ~cfg ~size ?engine b level c)
      (List.combine grid preds)
  in
  sims

(* --- triage --------------------------------------------------------- *)

(* Predicted payoff of coalescing one (section, bench): relative cycle
   savings of the predicted O4 cell against the predicted O2 cell. *)
type ranked = {
  r_section : string;
  r_bench : string;
  r_pred_savings : float;
  r_sim_savings : float option;
}

type triage = {
  ranking : ranked list;  (** descending predicted savings *)
  simulated : int;  (** top-half cells that were simulated *)
  skipped : int;  (** predicted-boring cells never simulated *)
  agreement : float;
      (** pairwise order concordance between predicted and simulated
          savings over the simulated subset *)
  t_est_seconds : float;
  t_sim_seconds : float;
}

let pred_savings cells ~section ~bench =
  let cycles level =
    List.find_map
      (fun c ->
        if
          String.equal c.section section
          && String.equal c.bench bench
          && String.equal c.level (Pipeline.level_to_string level)
        then Some c.pred_cycles
        else None)
      cells
  in
  match (cycles Pipeline.O2, cycles Pipeline.O4) with
  | Some o2, Some o4 when o2 > 0 ->
    float_of_int (o2 - o4) /. float_of_int o2 *. 100.0
  | _ -> 0.0

(* Concordant-pair fraction (Kendall-style, ties count as half) between
   two savings orderings. *)
let concordance pairs =
  let n = List.length pairs in
  if n < 2 then 1.0
  else begin
    let num = ref 0.0 and den = ref 0 in
    List.iteri
      (fun i (p1, s1) ->
        List.iteri
          (fun j (p2, s2) ->
            if j > i then begin
              incr den;
              let cp = compare (p1 : float) p2
              and cs = compare (s1 : float) s2 in
              if cp = 0 || cs = 0 then num := !num +. 0.5
              else if (cp > 0) = (cs > 0) then num := !num +. 1.0
            end)
          pairs)
      pairs;
    !num /. float_of_int !den
  end

(* Rank every (section, bench) by predicted savings, simulate only the
   top half (both its O2 and O4 cells), and report how well the
   predicted order agrees with the simulated one on that subset. *)
let run_triage ?jobs ?engine ~size () =
  let preds = predictions ~size () in
  let t_est_seconds =
    List.fold_left (fun acc c -> acc +. c.est_seconds) 0.0 preds
  in
  let keys =
    List.concat_map
      (fun (section, machine) ->
        List.map
          (fun (b : Workloads.t) -> (section, machine, b))
          Workloads.all)
      sections
  in
  let ranked =
    keys
    |> List.map (fun (section, _, (b : Workloads.t)) ->
           ( (section, b),
             pred_savings preds ~section ~bench:b.Workloads.name ))
    |> List.sort (fun (_, a) (_, b) -> compare (b : float) a)
  in
  let top = (List.length ranked + 1) / 2 in
  let interesting = List.filteri (fun i _ -> i < top) ranked in
  let boring = List.filteri (fun i _ -> i >= top) ranked in
  (* simulate the interesting half: O2 and O4 per key *)
  let jobs_cells =
    List.concat_map
      (fun (((section, (b : Workloads.t)), pred) : (string * Workloads.t) * float)
           ->
        let cfg = List.assoc section sections in
        List.map
          (fun level -> (section, b, cfg, level, pred))
          Pipeline.[ O2; O4 ])
      interesting
  in
  let outs =
    Mac_parallel.Pool.map ?jobs
      (fun (_, (b : Workloads.t), (cfg : Pipeline.config), level, _) ->
        Workloads.run ~size ~assume_layout:true ?engine { cfg with level } b)
      jobs_cells
  in
  let t_sim_seconds =
    List.fold_left
      (fun acc (o : Workloads.outcome) -> acc +. o.Workloads.sim_seconds)
      0.0 outs
  in
  let sim_cycles =
    List.map2
      (fun (section, (b : Workloads.t), _, level, _) (o : Workloads.outcome)
           ->
        ((section, b.Workloads.name, level), o.result.metrics.cycles))
      jobs_cells outs
  in
  let sim_savings_for section bench =
    match
      ( List.assoc_opt (section, bench, Pipeline.O2) sim_cycles,
        List.assoc_opt (section, bench, Pipeline.O4) sim_cycles )
    with
    | Some o2, Some o4 when o2 > 0 ->
      Some (float_of_int (o2 - o4) /. float_of_int o2 *. 100.0)
    | _ -> None
  in
  let ranking =
    List.map
      (fun ((section, (b : Workloads.t)), pred) ->
        {
          r_section = section;
          r_bench = b.Workloads.name;
          r_pred_savings = pred;
          r_sim_savings = sim_savings_for section b.Workloads.name;
        })
      (interesting @ boring)
  in
  let pairs =
    List.filter_map
      (fun r ->
        Option.map (fun s -> (r.r_pred_savings, s)) r.r_sim_savings)
      ranking
  in
  {
    ranking;
    simulated = List.length interesting;
    skipped = List.length boring;
    agreement = concordance pairs;
    t_est_seconds;
    t_sim_seconds;
  }

(* --- JSON ----------------------------------------------------------- *)

(* Documented accuracy contract (DESIGN.md §13): median relative cycle
   error of the estimate against the simulator, over all cells that were
   simulated. CI fails when a sweep exceeds it. *)
let tolerance = 0.25

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let a = List.nth sorted ((n - 1) / 2) and b = List.nth sorted (n / 2) in
    (a +. b) /. 2.0

let median_cycle_err cells = median (List.filter_map cycle_err cells)
let median_miss_err cells = median (List.filter_map miss_err cells)

let opt_int = function None -> "null" | Some i -> string_of_int i
let opt_f ~decimals = function
  | None -> "null"
  | Some f -> Jsonio.fnum ~decimals f

let cell_to_json c =
  Printf.sprintf
    "{\"section\":\"%s\",\"bench\":\"%s\",\"machine\":\"%s\",\
     \"level\":\"%s\",\"pred_cycles\":%d,\"pred_insts\":%d,\
     \"pred_loads\":%d,\"pred_stores\":%d,\"pred_misses\":%d,\
     \"approx\":%b,\"est_seconds\":%s,\"sim_cycles\":%s,\
     \"sim_misses\":%s,\"sim_seconds\":%s,\"cycle_err\":%s,\
     \"miss_err\":%s}"
    (Jsonio.escape c.section) (Jsonio.escape c.bench)
    (Jsonio.escape c.machine) (Jsonio.escape c.level) c.pred_cycles
    c.pred_insts c.pred_loads c.pred_stores c.pred_misses c.pred_approx
    (Jsonio.fnum ~decimals:6 c.est_seconds)
    (opt_int c.sim_cycles) (opt_int c.sim_misses)
    (opt_f ~decimals:6 c.sim_seconds)
    (opt_f ~decimals:4 (cycle_err c))
    (opt_f ~decimals:4 (miss_err c))

let ranked_to_json r =
  Printf.sprintf
    "{\"section\":\"%s\",\"bench\":\"%s\",\"pred_savings_pct\":%s,\
     \"sim_savings_pct\":%s}"
    (Jsonio.escape r.r_section) (Jsonio.escape r.r_bench)
    (Jsonio.fnum ~decimals:4 r.r_pred_savings)
    (opt_f ~decimals:4 r.r_sim_savings)

let triage_to_json t =
  Printf.sprintf
    "{\"simulated\": %d, \"skipped\": %d, \"agreement\": %s, \
     \"est_seconds\": %s, \"sim_seconds\": %s, \"ranking\": [\n    %s\n  ]}"
    t.simulated t.skipped
    (Jsonio.fnum ~decimals:4 t.agreement)
    (Jsonio.fnum ~decimals:6 t.t_est_seconds)
    (Jsonio.fnum ~decimals:6 t.t_sim_seconds)
    (String.concat ",\n    " (List.map ranked_to_json t.ranking))

let to_json ~size ?triage cells =
  let est_seconds =
    List.fold_left (fun acc c -> acc +. c.est_seconds) 0.0 cells
  in
  let sim_seconds =
    List.fold_left
      (fun acc c -> acc +. Option.value c.sim_seconds ~default:0.0)
      0.0 cells
  in
  Printf.sprintf
    "{\n  \"schema\": \"mac-bench-est/1\",\n  \
     \"compiler_fingerprint\": \"%s\",\n  \"size\": %d,\n  \
     \"tolerance\": %s,\n  \"median_cycle_err\": %s,\n  \
     \"median_miss_err\": %s,\n  \"est_seconds\": %s,\n  \
     \"sim_seconds\": %s,\n%s  \"cells\": [\n    %s\n  ]\n}\n"
    (Jsonio.escape Mac_vpo.Version.compiler_fingerprint) size
    (Jsonio.fnum ~decimals:4 tolerance)
    (Jsonio.fnum ~decimals:4 (median_cycle_err cells))
    (Jsonio.fnum ~decimals:4 (median_miss_err cells))
    (Jsonio.fnum ~decimals:6 est_seconds)
    (Jsonio.fnum ~decimals:6 sim_seconds)
    (match triage with
    | None -> ""
    | Some t -> Printf.sprintf "  \"triage\": %s,\n" (triage_to_json t))
    (String.concat ",\n    " (List.map cell_to_json cells))

(* Independent re-parse for CI: the documented tolerance holds and every
   grid cell is present. *)
let validate text =
  match Jsonio.parse text with
  | Error msg -> Error ("BENCH_est.json does not parse: " ^ msg)
  | Ok doc -> (
    match Jsonio.member "schema" doc with
    | Some (Jsonio.Str "mac-bench-est/1") -> (
      let num key =
        match Jsonio.member key doc with
        | Some (Jsonio.Num f) -> Ok f
        | _ ->
          Error (Printf.sprintf "BENCH_est.json has no numeric %S" key)
      in
      let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
      let* () =
        match Jsonio.member "compiler_fingerprint" doc with
        | Some (Jsonio.Str s) when String.length s > 0 -> Ok ()
        | _ ->
          Error
            "BENCH_est.json has no non-empty \"compiler_fingerprint\" \
             string"
      in
      let* tol = num "tolerance" in
      let* med = num "median_cycle_err" in
      let* _ = num "median_miss_err" in
      if med > tol then
        Error
          (Printf.sprintf
             "BENCH_est.json median cycle error %.4f exceeds tolerance %.4f"
             med tol)
      else
        match Jsonio.member "cells" doc with
        | Some (Jsonio.Arr cells) ->
          let has section bench level =
            List.exists
              (fun c ->
                Jsonio.member "section" c = Some (Jsonio.Str section)
                && Jsonio.member "bench" c = Some (Jsonio.Str bench)
                && Jsonio.member "level" c = Some (Jsonio.Str level))
              cells
          in
          let missing =
            List.filter_map
              (fun (section, _, (b : Workloads.t), level) ->
                let level = Pipeline.level_to_string level in
                if has section b.Workloads.name level then None
                else
                  Some
                    (Printf.sprintf "%s/%s/%s" section b.Workloads.name
                       level))
              grid
          in
          let bad_pred =
            List.exists
              (fun c ->
                match Jsonio.member "pred_cycles" c with
                | Some (Jsonio.Num f) -> f <= 0.0
                | _ -> true)
              cells
          in
          if bad_pred then
            Error
              "BENCH_est.json has cell(s) without positive pred_cycles"
          else if missing = [] then Ok (List.length cells)
          else
            Error
              ("BENCH_est.json is missing cell(s): "
              ^ String.concat ", " missing)
        | _ -> Error "BENCH_est.json has no \"cells\" array")
    | Some (Jsonio.Str other) ->
      Error
        (Printf.sprintf
           "BENCH_est.json schema is %S, expected \"mac-bench-est/1\"" other)
    | _ -> Error "BENCH_est.json has no \"schema\" string")
