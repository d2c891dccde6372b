(* The benchmark runner.

     main --workload W --seed N --seconds S --trace 0|1
     main --workload W --seed N --seconds S --trace 0|1 --steady K

   The first form sets the workload up (five times, reporting the
   median set-up time and keeping the last), runs whole epochs of timed
   operations, each followed by its untimed checks, for S seconds, and
   prints one JSON result line: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1. Times are calibrated to a
   reference host speed (see Stats). The metric names are checked
   against BENCHMARK.json in the working directory.

   The second form is steadiness mode: it runs the first form K times
   as child processes and prints, per metric, the median, quartiles and
   (max - min) / median; it fails when a run is incorrect or a
   behaviour count differs between runs of the one seed. *)

open Perfbench
module J = Mac_workloads.Jsonio

(* name, set-up, whether its operations keep both vCPUs busy at once
   (and so are calibrated on both) *)
let workloads =
  [
    ("compile-mix", Compile_mix.setup, false);
    ("simulate-grid", Simulate_grid.setup, false);
    ("serve-replay", Serve_replay.setup, true);
  ]

let setup_reps = 5

(* Counts that must repeat exactly between runs of one seed. *)
let behaviour =
  [ "code_insts"; "sim_cycles_geomean"; "sim_mem_refs"; "serve.hit_frac";
    "serve.compiles"; "serve.cache_entries"; "core.loops_coalesced";
    "core.guards_emitted"; "core.guards_elided"; "verify.pairs_checked";
    "verify.pairs_skipped"; "verify.fallbacks"; "vpo.code_insts"; "sim.insts" ]

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* The metric names BENCHMARK.json declares for a mode. *)
let declared ~trace =
  let text =
    match open_in_bin "BENCHMARK.json" with
    | exception Sys_error e -> die "%s" e
    | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
  in
  let name m = match J.member "name" m with Some (J.Str n) -> Some n | _ -> None in
  match J.parse text with
  | Error e -> die "BENCHMARK.json: %s" e
  | Ok doc -> (
    match J.member (if trace then "per_layer" else "end_to_end") doc with
    | Some (J.Arr ms) -> List.filter_map name ms
    | _ -> die "BENCHMARK.json has no metric list")

(* Set the workload up [setup_reps] times, each timed and calibrated;
   the median time and the last session. *)
let set_up ~both ~names setup =
  let times = ref [] and session = ref None in
  let close () = Option.iter (fun (s : Workload.session) -> s.close ()) !session in
  try
    for _ = 1 to setup_reps do
      close ();
      session := None;
      Gc.compact ();
      let before = List.init 5 (fun _ -> Stats.calibrate ~both ()) in
      let t0 = Stats.now () in
      session := Some (setup ());
      let dt = Stats.now () -. t0 in
      let after = List.init 5 (fun _ -> Stats.calibrate ~both ()) in
      times := (dt /. Stats.factor_of (before @ after)) :: !times
    done;
    (Stats.median !times, Option.get !session)
  with e ->
    (* a set-up the program under test breaks is a failed run, not a
       crash: one attempt, failed, every declared metric at 0 *)
    close ();
    prerr_endline ("perfbench: set-up failed: " ^ Printexc.to_string e);
    let m = Stats.metrics () in
    List.iter (fun n -> Stats.set m n "" 0.0) names;
    print_endline (Stats.result_line ~correct:false ~attempted:1 ~failed:1 m);
    exit 0

let run ~name ~seed ~seconds ~trace =
  let setup, both =
    match List.find_opt (fun (n, _, _) -> n = name) workloads with
    | Some (_, s, both) -> (s, both)
    | None -> die "unknown workload %s" name
  in
  let names = declared ~trace in
  let setup_s, s = set_up ~both ~names (fun () -> setup ~seed) in
  Gc.compact ();
  let a = Stats.acc ~both () and m = Stats.metrics () and layers = Layers.create () in
  (try
     if not trace then ignore (Stats.epochs a ~seconds (s.run_epoch a layers))
     else begin
       (* half untraced, half traced: the tracer's own overhead *)
       let a0 = Stats.acc ~both () in
       let half = seconds /. 2.0 in
       ignore (Stats.epochs a0 ~seconds:half (s.run_epoch a0 (Layers.create ())));
       Trace.enabled := true;
       ignore (Stats.epochs a ~seconds:half (s.run_epoch a layers));
       Trace.enabled := false;
       let rate = Stats.ops_per_s in
       Layers.set layers "trace.untraced_ops_per_s" (rate a0);
       Layers.set layers "trace.traced_ops_per_s" (rate a);
       Layers.set layers "trace.overhead_pct" (100.0 *. ((rate a0 /. rate a) -. 1.0));
       Layers.set layers "trace.spans" (float_of_int (Trace.count ()));
       Layers.set layers "bench.host_factor" (Stats.host_factor a);
       a.attempted <- a.attempted + a0.attempted;
       a.failed <- a.failed + a0.failed;
       if a.first_error = None then a.first_error <- a0.first_error
     end;
     (* a traced run reports per-layer metrics only *)
     s.finish a (if trace then Stats.metrics () else m);
     s.fill_layers layers
   with e ->
     a.attempted <- a.attempted + 1;
     Stats.fail a ("aborted: " ^ Printexc.to_string e));
  s.close ();
  if trace then begin
    let path = Printf.sprintf ".bench_build/perfbench/trace-%s-%d.jsonl" name seed in
    Serve_replay.mkdir_p (Filename.dirname path);
    Trace.write path;
    List.iter (fun (n, u, v) -> Stats.set m n u v) (Layers.metrics layers)
  end
  else begin
    let lat = Stats.latencies a in
    Stats.set m "setup_s" "s" setup_s;
    Stats.set m "ok_frac" "fraction"
      (float_of_int (a.attempted - a.failed) /. float_of_int (max 1 a.attempted));
    Stats.set m "ops_per_s" "1/s" (Stats.ops_per_s a);
    Stats.set m "op_ms_p50" "ms" (Stats.median lat);
    (* every epoch holds at least 264 operations, so at least ten
       samples lie beyond p90 *)
    if List.length lat < 100 then
      Stats.fail a "fewer than 100 operations: p90 is not reported";
    Stats.set m "op_ms_p90" "ms" (Stats.quantile 0.9 lat);
    Stats.set m "peak_rss_mb" "MiB" (s.peak_rss_mb ())
  end;
  (* exactly the declared metrics, no more and no fewer *)
  let emitted = List.map fst m.items in
  let missing = List.filter (fun n -> not (List.mem n emitted)) names in
  let extra = List.filter (fun n -> not (List.mem n names)) emitted in
  if missing <> [] || extra <> [] then begin
    a.attempted <- a.attempted + 1;
    Stats.fail a
      (Printf.sprintf "metrics differ from BENCHMARK.json: missing [%s], undeclared [%s]"
         (String.concat " " missing) (String.concat " " extra));
    m.items <- List.filter (fun (n, _) -> List.mem n names) m.items
  end;
  Printf.eprintf "perfbench: host factor %.3f (calibration kernel median / %.4f s)\n"
    (Stats.host_factor a) Stats.calib_ref;
  Option.iter (fun e -> prerr_endline ("perfbench: first failure: " ^ e)) a.first_error;
  print_endline
    (Stats.result_line ~correct:(a.failed = 0) ~attempted:(max 1 a.attempted)
       ~failed:a.failed m)

(* --- steadiness mode -------------------------------------------------- *)

let last_line s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.rev
  |> function l :: _ -> l | [] -> ""

let child_output args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> die "a child run failed"

let steady ~runs args =
  let results =
    List.init runs (fun i ->
        let out = child_output args in
        Printf.eprintf "run %d/%d done\n%!" (i + 1) runs;
        match J.parse (last_line out) with
        | Ok doc -> doc
        | Error e -> die "unparsable result line: %s" e)
  in
  let incorrect =
    List.exists (fun d -> J.member "correct" d <> Some (J.Bool true)) results
  in
  let value name d =
    match Option.bind (J.member "metrics" d) (J.member name) with
    | Some o -> ( match J.member "value" o with Some (J.Num v) -> Some v | _ -> None)
    | None -> None
  in
  let names =
    match J.member "metrics" (List.hd results) with
    | Some (J.Obj ms) -> List.map fst ms
    | _ -> []
  in
  Printf.printf "%-28s %14s %14s %14s %10s\n" "metric" "median" "q1" "q3" "range/med";
  let unsteady = ref [] in
  List.iter
    (fun n ->
      let vs = List.filter_map (value n) results in
      let med = Stats.median vs in
      let lo = List.fold_left Float.min infinity vs
      and hi = List.fold_left Float.max neg_infinity vs in
      Printf.printf "%-28s %14.6g %14.6g %14.6g %10.4f\n" n med (Stats.quantile 0.25 vs)
        (Stats.quantile 0.75 vs)
        (if med <> 0.0 then (hi -. lo) /. Float.abs med else 0.0);
      if List.mem n behaviour && lo <> hi then unsteady := n :: !unsteady)
    names;
  if incorrect then print_endline "FAIL: a run reported correct=false";
  if !unsteady <> [] then
    Printf.printf "FAIL: behaviour counts differ between runs: %s\n"
      (String.concat " " !unsteady);
  if incorrect || !unsteady <> [] then exit 1

let () =
  (match Sys.argv with
  | [| _; "--mccd"; dir; n |] ->
    Serve_replay.daemon_main ~dir ~max_requests:(int_of_string n);
    exit 0
  | _ -> ());
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and runs = ref 0 in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME compile-mix | simulate-grid | serve-replay" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--steady", Arg.Set_int runs, "K steadiness mode: K runs of this seed");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %s" a) "perfbench [options]";
  let names = List.map (fun (n, _, _) -> n) workloads in
  if not (List.mem !workload names) then
    die "--workload must be one of: %s" (String.concat ", " names);
  if !runs > 0 then
    steady ~runs:!runs
      [ "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds";
        Printf.sprintf "%g" !seconds; "--trace"; string_of_int !trace ]
  else run ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
