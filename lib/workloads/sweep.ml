module Machine = Mac_machine.Machine
module Pipeline = Mac_vpo.Pipeline

type cell = {
  section : string;
  bench : string;
  machine : string;
  level : string;
  cycles : int;
  insts : int;
  loads : int;
  stores : int;
  savings_pct : float option;
  correct : bool;
  guards_emitted : int;
  guards_elided : int;
  sched_mii : int;
  sched_ii : int;
  pipelined : int;
  compile_seconds : float;
  pass_seconds : (string * float) list;
  tvalid_seconds : (string * float) list;
  sim_seconds : float;
  sim_phases : (string * float) list;
}

type speedup = {
  serial_reference_seconds : float;
  serial_jit_seconds : float;
  parallel_jit_seconds : float;
  ratio : float;
}

let cell_of_outcome ~section ~machine ~bench ~level ~baseline
    (o : Workloads.outcome) =
  let m = o.result.metrics in
  let c = o.compiled in
  (* -Osched counters, summed over the function's committed loops (all
     zero when the pass was off and the report list is empty). *)
  let sum_sched f =
    List.fold_left
      (fun acc (_, rs) ->
        List.fold_left
          (fun acc ((r : Mac_opt.Pipeline_sched.report), _) ->
            match r.Mac_opt.Pipeline_sched.status with
            | Mac_opt.Pipeline_sched.Rejected _ -> acc
            | _ -> acc + f r)
          acc rs)
      0 c.sched_reports
  in
  {
    section;
    bench;
    machine;
    level = Pipeline.level_to_string level;
    cycles = m.cycles;
    insts = m.insts;
    loads = m.loads;
    stores = m.stores;
    savings_pct =
      (match level with
      | Pipeline.O3 | Pipeline.O4 -> Some (Tables.savings ~baseline m.cycles)
      | _ -> None);
    correct = o.correct;
    guards_emitted = c.guards_emitted;
    guards_elided = c.guards_elided;
    sched_mii =
      sum_sched (fun r ->
          Stdlib.max r.Mac_opt.Pipeline_sched.mii_rec
            r.Mac_opt.Pipeline_sched.mii_res);
    sched_ii = sum_sched (fun r -> r.Mac_opt.Pipeline_sched.ii);
    pipelined =
      sum_sched (fun r ->
          match r.Mac_opt.Pipeline_sched.status with
          | Mac_opt.Pipeline_sched.Pipelined -> 1
          | _ -> 0);
    compile_seconds = c.compile_seconds;
    pass_seconds = c.pass_seconds;
    tvalid_seconds =
      List.map
        (fun (p, (a : Mac_verify.Tvalid.agg)) ->
          (p, a.Mac_verify.Tvalid.seconds))
        c.tvalid_stats;
    sim_seconds = o.sim_seconds;
    sim_phases = o.result.phases;
  }

let cells_of_rows ~section ~machine rows =
  List.concat_map
    (fun (r : Tables.row) ->
      List.map
        (fun (level, o) ->
          cell_of_outcome ~section ~machine:machine.Machine.name
            ~bench:r.bench.Workloads.name ~level ~baseline:r.unrolled o)
        r.outcomes)
    rows

(* The FULL section: Table II through the complete vpo-style pipeline
   (strength reduction + list scheduling + 32-register allocation) on the
   Alpha, compiled at [--verify-level full] so the sweep also measures
   the per-pass translation-validation overhead it reports in the
   document's [tvalid_seconds] breakdown. *)
let full_levels = Pipeline.[ O2; O3; O4 ]

let full_config =
  Pipeline.config ~strength_reduce:true ~schedule:true ~regalloc:32
    ~verify:Pipeline.Vfull Machine.alpha

let full_outcomes ?jobs ?engine ~size () =
  let cells =
    List.concat_map
      (fun b -> List.map (fun l -> (b, l)) full_levels)
      Workloads.all
  in
  let outs =
    Mac_parallel.Pool.map ?jobs
      (fun ((b : Workloads.t), level) ->
        Workloads.run ~size ~assume_layout:true ?engine
          { full_config with level } b)
      cells
  in
  List.map2 (fun (b, l) o -> (b, l, o)) cells outs

let cells_of_full_outcomes outs =
  let baseline_of bench =
    List.find_map
      (fun ((b : Workloads.t), l, (o : Workloads.outcome)) ->
        if String.equal b.name bench && l = Pipeline.O2 then
          Some o.result.metrics.cycles
        else None)
      outs
    |> Option.value ~default:0
  in
  List.map
    (fun ((b : Workloads.t), level, o) ->
      cell_of_outcome ~section:"FULL" ~machine:"alpha" ~bench:b.name ~level
        ~baseline:(baseline_of b.name) o)
    outs

(* The SCHED section re-runs the two CISC-ish tables with the [-Osched]
   software pipeliner on and the [Pipelined] profitability oracle pricing
   the coalescer's versions — the configuration whose image_add16/O4 cell
   the bench harness gates against its TAB3 counterpart. *)
let sched_config machine =
  {
    (Tables.paper machine) with
    coalesce =
      { Tables.forced with profit_mode = Mac_core.Profitability.Pipelined };
    pipeline_sched = true;
  }

(* The sweep measures the static-disambiguation path: the per-benchmark
   layout facts are asserted ([assume_layout:true]), so provable guards
   are elided and the per-cell counters record how many. *)
let run ?jobs ?engine ~size ?(full_size = 64) () =
  let tab section cfg =
    cells_of_rows ~section ~machine:cfg.Pipeline.machine
      (Tables.table ~size ~assume_layout:true ?engine ?jobs cfg)
  in
  List.concat_map (fun (section, cfg) -> tab section cfg) Tables.sections
  @ List.concat_map
      (fun machine -> tab "SCHED" (sched_config machine))
      [ Machine.mc88100; Machine.mc68030 ]
  @ cells_of_full_outcomes (full_outcomes ?jobs ?engine ~size:full_size ())

(* --- JSON ----------------------------------------------------------- *)

(* Escaping, number formats and the re-parse all come from the shared
   kernel; this writer only owns the mac-bench-sim/7 document shape. *)
let json_escape = Jsonio.escape

(* Timing fields are measurements: they differ run to run, so the
   jobs-count determinism test compares the cells array with
   [~timing:false] while the emitted document keeps them. *)
let cell_to_json ~timing c =
  Printf.sprintf
    "{\"section\":\"%s\",\"bench\":\"%s\",\"machine\":\"%s\",\
     \"level\":\"%s\",\"cycles\":%d,\"insts\":%d,\"loads\":%d,\
     \"stores\":%d,\"savings_pct\":%s,\"correct\":%b,\
     \"guards_emitted\":%d,\"guards_elided\":%d,\
     \"sched_mii\":%d,\"sched_ii\":%d,\"pipelined\":%d%s}"
    (json_escape c.section) (json_escape c.bench) (json_escape c.machine)
    (json_escape c.level) c.cycles c.insts c.loads c.stores
    (match c.savings_pct with
    | None -> "null"
    | Some f -> Printf.sprintf "%.4f" f)
    c.correct c.guards_emitted c.guards_elided c.sched_mii c.sched_ii
    c.pipelined
    (if timing then
       Printf.sprintf
         ",\"compile_seconds\":%.6f,\"tvalid_seconds\":%.6f,\
          \"sim_seconds\":%.6f"
         c.compile_seconds
         (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 c.tvalid_seconds)
         c.sim_seconds
     else "")

let cells_to_json ?(timing = true) cells =
  "[\n    "
  ^ String.concat ",\n    " (List.map (cell_to_json ~timing) cells)
  ^ "\n  ]"

(* Per-pass compile time (or per-phase sim time) aggregated over every
   cell of the sweep, in descending order — the document-level
   breakdowns. *)
let aggregate_seconds select cells =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun (name, s) ->
          Hashtbl.replace tbl name
            (s +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0))
        (select c))
    cells;
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) tbl []
  |> List.sort (fun (na, a) (nb, b) ->
         match compare b a with 0 -> compare na nb | c -> c)

let aggregate_pass_seconds cells = aggregate_seconds (fun c -> c.pass_seconds) cells

let seconds_obj = Jsonio.seconds_obj

let to_json ~size ~jobs_requested ~jobs_effective ~engine ~wall_seconds
    ?speedup cells =
  let speedup_json =
    match speedup with
    | None -> ""
    | Some s ->
      Printf.sprintf
        "  \"tab2_speedup\": {\"serial_reference_seconds\": %.3f, \
         \"serial_jit_seconds\": %.3f, \"parallel_jit_seconds\": %.3f, \
         \"ratio\": %.2f},\n"
        s.serial_reference_seconds s.serial_jit_seconds
        s.parallel_jit_seconds s.ratio
  in
  let compile_seconds =
    List.fold_left (fun acc c -> acc +. c.compile_seconds) 0.0 cells
  in
  let sim_seconds =
    List.fold_left (fun acc c -> acc +. c.sim_seconds) 0.0 cells
  in
  let pass_json = seconds_obj (aggregate_pass_seconds cells) in
  let tvalid_json =
    seconds_obj (aggregate_seconds (fun c -> c.tvalid_seconds) cells)
  in
  let sim_phase_json =
    seconds_obj (aggregate_seconds (fun c -> c.sim_phases) cells)
  in
  Printf.sprintf
    "{\n  \"schema\": \"mac-bench-sim/7\",\n  \
     \"compiler_fingerprint\": \"%s\",\n  \"size\": %d,\n  \
     \"jobs_requested\": %d,\n  \"jobs_effective\": %d,\n  \
     \"engine\": \"%s\",\n  \"wall_seconds\": %.3f,\n  \
     \"compile_seconds\": %.6f,\n  \"pass_seconds\": {%s},\n  \
     \"tvalid_seconds\": {%s},\n  \
     \"sim_seconds\": %.6f,\n  \"sim_phase_seconds\": {%s},\n\
     %s  \"cells\": %s\n}\n"
    (json_escape Mac_vpo.Version.compiler_fingerprint) size jobs_requested
    jobs_effective (json_escape engine) wall_seconds compile_seconds
    pass_json tvalid_json sim_seconds sim_phase_json speedup_json
    (cells_to_json cells)

module Json = Jsonio

(* Independent check used by the CI smoke: the emitted file parses, and
   every Table II cell — all seven benchmarks at O1..O4 on the Alpha —
   is present exactly once. *)
let validate_cells doc =
  match Json.member "cells" doc with
    | Some (Json.Arr cells) ->
      let has section bench level =
        List.exists
          (fun c ->
            Json.member "section" c = Some (Json.Str section)
            && Json.member "bench" c = Some (Json.Str bench)
            && Json.member "level" c = Some (Json.Str level))
          cells
      in
      let missing =
        List.concat_map
          (fun (b : Workloads.t) ->
            List.filter_map
              (fun level ->
                let level = Pipeline.level_to_string level in
                if has "TAB2" b.name level then None
                else Some (Printf.sprintf "TAB2/%s/%s" b.name level))
              Tables.levels)
          Workloads.all
        @ List.filter_map
            (fun level ->
              let level = Pipeline.level_to_string level in
              if has "SCHED" "image_add16" level then None
              else Some (Printf.sprintf "SCHED/image_add16/%s" level))
            Tables.levels
      in
      let numeric key c =
        match Json.member key c with Some (Json.Num _) -> true | _ -> false
      in
      let bad_guards =
        List.exists
          (fun c -> not (numeric "guards_emitted" c && numeric "guards_elided" c))
          cells
      in
      let bad_sched =
        List.exists
          (fun c ->
            not
              (numeric "sched_mii" c && numeric "sched_ii" c
              && numeric "pipelined" c))
          cells
      in
      if bad_guards then
        Error
          "BENCH_sim.json has cell(s) without numeric \
           guards_emitted/guards_elided"
      else if bad_sched then
        Error
          "BENCH_sim.json has cell(s) without numeric \
           sched_mii/sched_ii/pipelined"
      else if missing = [] then Ok (List.length cells)
      else
        Error
          ("BENCH_sim.json is missing cell(s): " ^ String.concat ", " missing)
    | _ -> Error "BENCH_sim.json has no \"cells\" array"

let validate text =
  match Json.parse text with
  | Error msg -> Error ("BENCH_sim.json does not parse: " ^ msg)
  | Ok doc -> (
    match Json.member "schema" doc with
    | Some (Json.Str "mac-bench-sim/7") -> (
      let positive_num key =
        match Json.member key doc with
        | Some (Json.Num s) when s > 0.0 -> Ok ()
        | Some (Json.Num _) ->
          Error (Printf.sprintf "BENCH_sim.json %s is not positive" key)
        | _ ->
          Error (Printf.sprintf "BENCH_sim.json has no numeric %S" key)
      in
      let phase_obj () =
        match Json.member "sim_phase_seconds" doc with
        | Some (Json.Obj fields) ->
          let has k =
            List.exists
              (fun (n, v) ->
                String.equal n k
                && match v with Json.Num _ -> true | _ -> false)
              fields
          in
          if has "decode" && has "compile" && has "execute" then Ok ()
          else
            Error
              "BENCH_sim.json sim_phase_seconds lacks numeric \
               decode/compile/execute"
        | _ -> Error "BENCH_sim.json has no \"sim_phase_seconds\" object"
      in
      let fingerprint () =
        match Json.member "compiler_fingerprint" doc with
        | Some (Json.Str s) when String.length s > 0 -> Ok ()
        | _ ->
          Error
            "BENCH_sim.json has no non-empty \"compiler_fingerprint\" \
             string"
      in
      let tvalid_obj () =
        (* the FULL section compiles at Vfull, so the per-pass
           validation breakdown must be present and non-empty *)
        match Json.member "tvalid_seconds" doc with
        | Some (Json.Obj ((_ :: _) as fields))
          when List.for_all
                 (fun (_, v) ->
                   match v with Json.Num _ -> true | _ -> false)
                 fields ->
          Ok ()
        | Some (Json.Obj _) ->
          Error
            "BENCH_sim.json tvalid_seconds is empty or non-numeric \
             (no pass was translation-validated?)"
        | _ -> Error "BENCH_sim.json has no \"tvalid_seconds\" object"
      in
      let engine () =
        match Json.member "engine" doc with
        | Some (Json.Str ("jit" | "reference")) -> Ok ()
        | _ ->
          Error
            "BENCH_sim.json has no \"engine\" string naming jit or \
             reference"
      in
      let speedup_obj () =
        (* optional (only the full bench harness measures it), but when
           present it carries exactly the two-engine fields *)
        match Json.member "tab2_speedup" doc with
        | None -> Ok ()
        | Some (Json.Obj fields as s) ->
          let keys =
            [ "serial_reference_seconds"; "serial_jit_seconds";
              "parallel_jit_seconds"; "ratio" ]
          in
          if
            List.length fields = List.length keys
            && List.for_all
                 (fun k ->
                   match Json.member k s with
                   | Some (Json.Num _) -> true
                   | _ -> false)
                 keys
          then Ok ()
          else
            Error
              ("BENCH_sim.json tab2_speedup must hold exactly numeric "
              ^ String.concat "/" keys)
        | Some _ -> Error "BENCH_sim.json tab2_speedup is not an object"
      in
      let ( let* ) r f =
        match r with Ok () -> f () | Error msg -> Error msg
      in
      let* () = fingerprint () in
      let* () = engine () in
      let* () = positive_num "compile_seconds" in
      let* () = positive_num "sim_seconds" in
      let* () = positive_num "jobs_requested" in
      let* () = positive_num "jobs_effective" in
      let* () = phase_obj () in
      let* () = tvalid_obj () in
      let* () = speedup_obj () in
      validate_cells doc)
    | Some (Json.Str other) ->
      Error
        (Printf.sprintf
           "BENCH_sim.json schema is %S, expected \"mac-bench-sim/7\"" other)
    | _ -> Error "BENCH_sim.json has no \"schema\" string")
