(* simulate-grid: one operation prepares memory for a Table II cell at a
   given size and layout, runs it with Interp.run's default engine and
   checks the result.

   Set-up compiles the grid once — the eight paper programs on the
   three machines at O2 (unrolled baseline) and O4 (loads and stores
   coalesced), in the paper's forced-coalescing configuration, without
   layout facts so every guard is decided at run time — plus each
   program at O0 as the baseline for overlapping layouts. The epoch
   runs every cell at each of six sizes from 24 to the paper's 500,
   twice in each of the three layouts (aligned, skewed, overlapping),
   rotating which sizes get which layout and skew from cell to cell.
   The seed orders the epoch; its structure is the same for every
   seed, so its totals are comparable across seeds. *)

module Pipeline = Mac_vpo.Pipeline
module Machine = Mac_machine.Machine
module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp
module W = Mac_workloads.Workloads

let sizes = [| 24; 40; 72; 128; 232; 500 |]

type layout = Aligned | Skewed | Overlapping

let layout_name = function
  | Aligned -> "aligned"
  | Skewed -> "skewed"
  | Overlapping -> "overlapping"

type op = {
  bench : W.t;
  machine : Machine.t;
  level : Pipeline.level;
  size : int;
  layout : layout;
  w_layout : W.layout;
}

let forced =
  { Mac_core.Coalesce.default with respect_profitability = false; icache_guard = false }

let compile machine level (b : W.t) =
  Pipeline.compile_source
    (Pipeline.config ~level ~coalesce:forced ~verify:Pipeline.Vfull machine)
    b.source

let programs = W.dotproduct :: W.all

let epoch_ops ~seed =
  let ops =
    List.concat_map
      (fun (bench : W.t) ->
        List.concat
        @@ List.mapi
             (fun ci (machine, level) ->
               List.mapi
                 (fun si size ->
                   let layout = [| Aligned; Skewed; Overlapping |].((si + ci) mod 3) in
                   (* skews keep 16-bit elements 16-bit aligned, as C would;
                      4 is word-aligned on the 32-bit machines, 2 and 6 are not *)
                   let skew = 2 + (2 * ((ci + (si / 3)) mod 3)) in
                   let w_layout =
                     match layout with
                     | Aligned -> W.default_layout
                     | Skewed -> { W.default_layout with skew }
                     | Overlapping -> { W.default_layout with overlap = true }
                   in
                   { bench; machine; level; size; layout; w_layout })
                 (Array.to_list sizes))
             (List.concat_map
                (fun m -> [ (m, Pipeline.O2); (m, Pipeline.O4) ])
                Pop.machines))
      programs
  in
  let a = Array.of_list ops in
  Rng.shuffle (Rng.create (0x516 + seed)) a;
  a

let mem_for size = Memory.create ~size:(Pop.pow2_at_least ((size * size * 8) + 65536))

let setup ~seed : Workload.session =
  let ops = epoch_ops ~seed in
  let grid = Hashtbl.create 64 in
  List.iter
    (fun (b : W.t) ->
      List.iter
        (fun m ->
          List.iter
            (fun level ->
              let c = compile m level b in
              Hashtbl.replace grid (b.name, m.Machine.name, level) c.funcs)
            Pipeline.[ O0; O2; O4 ])
        Pop.machines)
    programs;
  let funcs b m level = Hashtbl.find grid (b.W.name, m.Machine.name, level) in
  let code_insts =
    Hashtbl.fold
      (fun (_, _, level) fs acc ->
        if level = Pipeline.O0 then acc else acc + Pop.code_insts fs)
      grid 0
  in
  (* warm-up: every grid cell once at the smallest size *)
  Array.iter
    (fun op ->
      if op.size = sizes.(0) then begin
        let mem = mem_for sizes.(0) in
        let inst = op.bench.prepare W.default_layout ~size:sizes.(0) mem in
        ignore
          (Interp.run ~machine:op.machine ~memory:mem (funcs op.bench op.machine op.level)
             ~entry:op.bench.entry ~args:inst.args ())
      end)
    ops;
  let baseline = Hashtbl.create 64 in
  let sims = Pop.sims () in
  let rss = ref 0.0 in
  let run_epoch (a : Stats.acc) layers epoch =
    Array.iteri
      (fun i op ->
        let fs = funcs op.bench op.machine op.level in
        let run () =
          let t0 = Stats.now () in
          let mem = mem_for op.size in
          let inst = op.bench.prepare op.w_layout ~size:op.size mem in
          let t1 = Stats.now () in
          let r =
            Interp.run ~machine:op.machine ~memory:mem fs ~entry:op.bench.entry
              ~args:inst.args ()
          in
          let t2 = Stats.now () in
          let err = Pop.check_instance mem inst r.value in
          let t3 = Stats.now () in
          Layers.add layers ~epoch "prepare" (t1 -. t0);
          Layers.add layers ~epoch "check" (t3 -. t2);
          Stats.op a i (t3 -. t0);
          (mem, r, err)
        in
        Trace.with_op "simulate" ~op:((epoch * Array.length ops) + i) (fun h ->
            match run () with
            | exception e ->
              Stats.attempt a false
                (lazy (op.bench.name ^ ": " ^ Printexc.to_string e))
            | mem, r, err ->
              Layers.sim layers ~epoch h r;
              let err =
                match (err, op.layout) with
                | None, Overlapping ->
                  (* the references assume disjoint buffers; an overlapping
                     run must agree with the O0 code heap-wide. Untimed,
                     and memoised: the O0 run is deterministic. *)
                  let k = (op.bench.name, op.machine.name, op.size) in
                  let expect =
                    match Hashtbl.find_opt baseline k with
                    | Some e -> e
                    | None ->
                      let mem0 = mem_for op.size in
                      let inst0 = op.bench.prepare op.w_layout ~size:op.size mem0 in
                      let r0 =
                        Interp.run ~machine:op.machine ~memory:mem0
                          (funcs op.bench op.machine Pipeline.O0)
                          ~entry:op.bench.entry ~args:inst0.args ()
                      in
                      let e = (r0.value, Digest.bytes (Memory.bytes mem0)) in
                      Hashtbl.replace baseline k e;
                      e
                  in
                  if expect = (r.value, Digest.bytes (Memory.bytes mem)) then None
                  else Some "overlapping layout disagrees with O0"
                | e, _ -> e
              in
              Stats.attempt a (err = None)
                (lazy
                  (Printf.sprintf "%s/%s/%s size %d %s: %s" op.bench.name
                     op.machine.name
                     (Pipeline.level_to_string op.level)
                     op.size (layout_name op.layout)
                     (Option.value err ~default:"")));
              Pop.record_sim sims a i r))
      ops;
    (* peak RSS as of the first epoch: later epochs only add GC noise *)
    if !rss = 0.0 then rss := Stats.vmhwm_mb 0
  in
  let finish (a : Stats.acc) m =
    Stats.set m "code_insts" "count" (float_of_int code_insts);
    Pop.sim_metrics sims a m
  in
  {
    Workload.run_epoch;
    finish;
    fill_layers = ignore;
    peak_rss_mb = (fun () -> !rss);
    close = ignore;
  }
