(* Compile-time microharness: times the *compiler* side of the Table II
   sweep (no simulation), the quantity the analysis manager and bitvector
   dataflow engine target. Prints per-benchmark O4 times and the summed
   O1-O4 sweep time; repetitions keep the numbers stable.

     dune exec bench/compile_time.exe [-- reps]

   The configuration is Tables' forced one (profitability gate and
   I-cache guard off) on the alpha. *)

module Pipeline = Mac_vpo.Pipeline
module Machine = Mac_machine.Machine

let levels = Pipeline.[ O1; O2; O3; O4 ]

let at level = { (Mac_workloads.Tables.paper Machine.alpha) with level }

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let () =
  let reps = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 5 in
  let benches = Mac_workloads.Workloads.all in
  (* warm up the minor heap / code paths once *)
  List.iter
    (fun (b : Mac_workloads.Workloads.t) ->
      ignore (Pipeline.compile_source (at O4) b.source))
    benches;
  let total = ref 0.0 in
  Format.printf "@[<v>compile time (alpha, forced coalescing, %d reps)@," reps;
  Format.printf "| %-12s | %10s |@," "program" "O4 ms";
  List.iter
    (fun (b : Mac_workloads.Workloads.t) ->
      let _, dt =
        time (fun () ->
            for _ = 1 to reps do
              ignore (Pipeline.compile_source (at O4) b.source)
            done)
      in
      Format.printf "| %-12s | %10.2f |@," b.name (dt /. float_of_int reps *. 1e3))
    benches;
  List.iter
    (fun level ->
      let _, dt =
        time (fun () ->
            for _ = 1 to reps do
              List.iter
                (fun (b : Mac_workloads.Workloads.t) ->
                  ignore (Pipeline.compile_source (at level) b.source))
                benches
            done)
      in
      let dt = dt /. float_of_int reps in
      total := !total +. dt;
      Format.printf "%s sweep compile: %.2f ms@,"
        (Pipeline.level_to_string level)
        (dt *. 1e3))
    levels;
  Format.printf "O1-O4 sweep compile total: %.2f ms@," (!total *. 1e3);
  (* Per-pass breakdown of one O4 sweep, from the pipeline's own
     profiling hooks. *)
  let agg : (string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Mac_workloads.Workloads.t) ->
      let c = Pipeline.compile_source (at O4) b.source in
      List.iter
        (fun (name, s) ->
          Hashtbl.replace agg name
            (s +. Option.value (Hashtbl.find_opt agg name) ~default:0.))
        c.Pipeline.pass_seconds)
    benches;
  Format.printf "O4 sweep per-pass breakdown:@,";
  Hashtbl.fold (fun n s acc -> (n, s) :: acc) agg []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (n, s) ->
         Format.printf "  %-10s %8.2f ms@," n (s *. 1e3));
  Format.printf "@]"
