(* Prints one line per Sweep.run cell — TAB2/TAB3/TAB4/SCHED at size 24
   and FULL at size 24 — with every deterministic counter the sweep
   records and no timing field. The output is a pure function of the
   compiler and simulator, so any diff against sweep_golden.expected is
   a behaviour change. *)

module Sweep = Mac_workloads.Sweep

let size = 24

let () =
  print_endline
    "section bench machine level cycles insts loads stores savings_pct \
     correct guards_emitted guards_elided sched_mii sched_ii pipelined";
  List.iter
    (fun (c : Sweep.cell) ->
      Printf.printf "%s %s %s %s %d %d %d %d %s %b %d %d %d %d %d\n"
        c.section c.bench c.machine c.level c.cycles c.insts c.loads c.stores
        (match c.savings_pct with
        | None -> "-"
        | Some f -> Printf.sprintf "%.4f" f)
        c.correct c.guards_emitted c.guards_elided c.sched_mii c.sched_ii
        c.pipelined)
    (Sweep.run ~jobs:2 ~size ~full_size:size ())
