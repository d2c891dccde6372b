(** Reproduction of the paper's evaluation tables.

    For each machine, every Table I benchmark is simulated at the paper's
    four configurations:

    - column 2 (["cc -O"]): our pipeline at O1 — classic optimizations,
      loop left rolled (stands in for the native compiler baseline);
    - column 3 (["vpcc/vpo -O"]): O2 — same plus unrolling by the widening
      factor, no coalescing (the paper unrolled the baseline to isolate
      coalescing);
    - column 4 (coalesce loads): O3;
    - column 5 (coalesce loads and stores): O4;
    - column 6 (percent savings): [(col3 - col5) / col3 * 100], which
      reproduces the printed Table II numbers (e.g. image add:
      [(17.71 - 10.44) / 17.71 = 41.05%]).

    The paper timed wall-clock seconds over ten runs, dropping the two
    highest and two lowest; the simulator is deterministic, so a single
    run yields the same statistic. *)

module Machine = Mac_machine.Machine

type row = {
  bench : Workloads.t;
  rolled : int;  (** O1 cycles *)
  unrolled : int;  (** O2 cycles — the baseline for savings *)
  loads : int;  (** O3 cycles *)
  loads_stores : int;  (** O4 cycles *)
  verified : bool;  (** every configuration produced correct output *)
  outcomes : (Mac_vpo.Pipeline.level * Workloads.outcome) list;
      (** the full per-level outcomes the summary columns were read off
          (used by {!Sweep} to emit per-cell metrics) *)
}

let savings ~baseline v =
  if baseline = 0 then 0.0
  else float_of_int (baseline - v) /. float_of_int baseline *. 100.0

let savings_loads r = savings ~baseline:r.unrolled r.loads
let savings_all r = savings ~baseline:r.unrolled r.loads_stores

let levels = Mac_vpo.Pipeline.[ O1; O2; O3; O4 ]

(* Forced mode reproduces the paper's measured columns: the
   transformation is applied wherever it is applicable, with both the
   profitability gate and the I-cache unrolling guard off (the paper
   measured *slower* code on the 68030, so its numbers cannot have been
   gated). *)
let forced =
  {
    Mac_core.Coalesce.default with
    respect_profitability = false;
    icache_guard = false;
  }

let paper machine = Mac_vpo.Pipeline.config ~coalesce:forced machine

(* The paper's three tables, one forced configuration per machine. *)
let sections =
  [ ("TAB2", paper Machine.alpha); ("TAB3", paper Machine.mc88100);
    ("TAB4", paper Machine.mc68030) ]

(* Every column compiles [cfg] with only its level replaced. *)
let cell ?size ?assume_layout ?engine (cfg : Mac_vpo.Pipeline.config) bench
    level =
  Workloads.run ?size ?assume_layout ?engine { cfg with level } bench

let row_of_outcomes bench outcomes =
  let cycles l =
    (List.assoc l outcomes : Workloads.outcome).result.metrics.cycles
  in
  {
    bench;
    rolled = cycles Mac_vpo.Pipeline.O1;
    unrolled = cycles Mac_vpo.Pipeline.O2;
    loads = cycles Mac_vpo.Pipeline.O3;
    loads_stores = cycles Mac_vpo.Pipeline.O4;
    verified = List.for_all (fun (_, o) -> o.Workloads.correct) outcomes;
    outcomes;
  }

let row ?size ?assume_layout ?engine cfg bench =
  row_of_outcomes bench
    (List.map
       (fun l -> (l, cell ?size ?assume_layout ?engine cfg bench l))
       levels)

(* The table fans its benchmark x level cells over domains ([?jobs],
   default {!Mac_parallel.Pool.jobs}); results come back in canonical
   order, so the rendered table is identical to a serial run. *)
let table ?size ?assume_layout ?engine ?jobs cfg =
  let cells =
    List.concat_map
      (fun b -> List.map (fun l -> (b, l)) levels)
      Workloads.all
  in
  let outcomes =
    Mac_parallel.Pool.map ?jobs
      (fun (b, l) -> (l, cell ?size ?assume_layout ?engine cfg b l))
      cells
    |> Array.of_list
  in
  let n = List.length levels in
  List.mapi
    (fun i b ->
      row_of_outcomes b (Array.to_list (Array.sub outcomes (i * n) n)))
    Workloads.all

let pp_row ppf r =
  Format.fprintf ppf "| %-12s | %10d | %10d | %10d | %10d | %6.2f | %6.2f | %s"
    r.bench.Workloads.name r.rolled r.unrolled r.loads r.loads_stores
    (savings_loads r) (savings_all r)
    (if r.verified then "ok" else "WRONG OUTPUT")

let pp_table ppf (machine : Machine.t) rows =
  Format.fprintf ppf
    "@[<v>%s (cycles; savings vs unrolled baseline, percent)@,\
     | %-12s | %10s | %10s | %10s | %10s | %6s | %6s |@,"
    machine.name "program" "O1 rolled" "O2 unroll" "O3 loads" "O4 ld+st"
    "sv-ld" "sv-all";
  List.iter (fun r -> Format.fprintf ppf "%a@," pp_row r) rows;
  Format.fprintf ppf "@]"
