(* Per-layer accounting for the traced run.

   Every workload repeats a fixed, seed-determined epoch of operations,
   so per-layer totals are reported per epoch (the median over the
   epochs a run completed) and stay comparable between runs of
   different length. Counts repeat exactly from epoch to epoch; times
   do not. A layer a workload does not exercise reports 0. *)

type t = {
  sums : (int * string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  fixed : (string, float) Hashtbl.t;
  mutable epochs : int;
}

let create () =
  {
    sums = Hashtbl.create 64;
    samples = Hashtbl.create 8;
    fixed = Hashtbl.create 32;
    epochs = 0;
  }

let add t ~epoch key v =
  t.epochs <- max t.epochs (epoch + 1);
  Hashtbl.replace t.sums (epoch, key)
    (v +. Option.value (Hashtbl.find_opt t.sums (epoch, key)) ~default:0.0)

let sample t key v =
  Hashtbl.replace t.samples key
    (v :: Option.value (Hashtbl.find_opt t.samples key) ~default:[])

let set t key v = Hashtbl.replace t.fixed key v

let samples t key = Option.value (Hashtbl.find_opt t.samples key) ~default:[]

let per_epoch_list t key =
  List.init t.epochs (fun e ->
      Option.value (Hashtbl.find_opt t.sums (e, key)) ~default:0.0)

let per_epoch t key = Stats.median (per_epoch_list t key)

(* median over epochs of [num / den] *)
let ratio t num den =
  let n = per_epoch_list t num and d = per_epoch_list t den in
  Stats.median (List.map2 (fun a b -> if b > 0.0 then a /. b else 0.0) n d)

let opt_passes =
  [ "dce"; "cse"; "copyprop"; "combine"; "simplify"; "cleanflow"; "legalize";
    "schedule"; "pipeline-sched"; "regalloc" ]

(* --- recording ------------------------------------------------------ *)

type tvalid = { pass : string; blocks : int; skipped : int; fallbacks : int }

let compile t ~epoch (h : Trace.handle) ~pass_seconds ~compile_seconds
    ~(tvalid : tvalid list) ~loops_coalesced ~guards_emitted ~guards_elided
    ~code_insts ~tokens =
  let add = add t ~epoch in
  List.iter (fun (p, s) -> add ("pass." ^ p) s) pass_seconds;
  let passes = Stats.sum (List.map snd pass_seconds) in
  let glue = compile_seconds -. passes in
  add "compile" compile_seconds;
  add "glue" glue;
  add "opt"
    (Stats.sum
       (List.filter_map
          (fun (p, s) -> if List.mem p opt_passes then Some s else None)
          pass_seconds));
  (match List.assoc_opt "lower" pass_seconds with
  | Some s ->
    sample t "lower_ms" (s *. 1000.0);
    add "lower" s;
    add "tokens" (float_of_int tokens)
  | None -> ());
  let fi = float_of_int in
  List.iter
    (fun v ->
      add "pairs_checked" (fi v.blocks);
      add "pairs_skipped" (fi v.skipped);
      add "fallbacks" (fi v.fallbacks))
    tvalid;
  add "loops_coalesced" (fi loops_coalesced);
  add "guards_emitted" (fi guards_emitted);
  add "guards_elided" (fi guards_elided);
  add "code_insts" (fi code_insts);
  Trace.laid h (pass_seconds @ [ ("glue", glue) ]);
  Trace.counter h "code_insts" (fi code_insts);
  Trace.counter h "loops_coalesced" (fi loops_coalesced);
  Trace.counter h "guards_emitted" (fi guards_emitted);
  Trace.counter h "guards_elided" (fi guards_elided)

(* A compile seen through {!Mac_vpo.Pipeline.compiled}. *)
let compiled t ~epoch h ~tokens (c : Mac_vpo.Pipeline.compiled) =
  let reports = List.concat_map snd c.reports in
  compile t ~epoch h ~pass_seconds:c.pass_seconds
    ~compile_seconds:c.compile_seconds
    ~tvalid:
      (List.map
         (fun (pass, (a : Mac_verify.Tvalid.agg)) ->
           { pass; blocks = a.blocks; skipped = a.skipped; fallbacks = a.fallbacks })
         c.tvalid_stats)
    ~loops_coalesced:
      (List.length
         (List.filter
            (fun (r : Mac_core.Coalesce.loop_report) ->
              r.status = Mac_core.Coalesce.Coalesced)
            reports))
    ~guards_emitted:c.guards_emitted ~guards_elided:c.guards_elided
    ~code_insts:(Pop.code_insts c.funcs) ~tokens

let sim t ~epoch (h : Trace.handle) (r : Mac_sim.Interp.result) =
  let add = add t ~epoch in
  List.iter (fun (p, s) -> add ("sim." ^ p) s) r.phases;
  let m = r.metrics in
  add "sim.insts" (float_of_int m.insts);
  add "sim.dcache_hits" (float_of_int m.dcache_hits);
  add "sim.dcache_misses" (float_of_int m.dcache_misses);
  Trace.laid h r.phases;
  Trace.counter h "insts" (float_of_int m.insts);
  Trace.counter h "cycles" (float_of_int m.cycles)

let tokens source = List.length (Mac_minic.Lexer.tokenize source)

(* --- the per-layer metric set --------------------------------------- *)

let serve_names =
  [ ("serve.connect_ms_p50", "ms"); ("serve.hit_wait_ms_p50", "ms");
    ("serve.miss_wait_ms_p50", "ms"); ("serve.resolve_us_p50", "us");
    ("serve.service_ms_p50", "ms"); ("serve.overhead_ms_p50", "ms");
    ("serve.batches", "count"); ("serve.batch_size_mean", "requests");
    ("serve.compiles", "count"); ("serve.errors", "count");
    ("serve.cache_entries", "count"); ("serve.artifact_kb_p50", "KiB");
    ("serve.hit_ms_p50", "ms"); ("serve.miss_ms_p50", "ms");
    ("serve.hit_frac", "fraction") ]

let trace_names =
  [ ("trace.untraced_ops_per_s", "1/s"); ("trace.traced_ops_per_s", "1/s");
    ("trace.overhead_pct", "%"); ("trace.spans", "count");
    ("bench.host_factor", "ratio") ]

(* Name, unit and value of every per-layer metric; [fixed] values (the
   serve split, the tracing overhead) are filled in by the workload. *)
let metrics t =
  let pe = per_epoch t in
  let ms k = 1000.0 *. pe k in
  let checked = pe "pairs_checked" and skipped = pe "pairs_skipped" in
  let hits = pe "sim.dcache_hits" and misses = pe "sim.dcache_misses" in
  let fixed (n, u) = (n, u, Option.value (Hashtbl.find_opt t.fixed n) ~default:0.0) in
  [
    ("minic.lower_ms_p50", "ms", Stats.median (samples t "lower_ms"));
    ("minic.tokens_per_s", "1/s", ratio t "tokens" "lower");
  ]
  @ List.map (fun p -> ("opt." ^ p ^ "_s", "s", pe ("pass." ^ p))) opt_passes
  @ [
      ("opt.share", "fraction", ratio t "opt" "compile");
      ("core.coalesce_s", "s", pe "pass.coalesce");
      ("core.loops_coalesced", "count", pe "loops_coalesced");
      ("core.guards_emitted", "count", pe "guards_emitted");
      ("core.guards_elided", "count", pe "guards_elided");
      ("verify.tvalid_s", "s", pe "pass.tvalid");
      ("verify.check_s", "s", pe "pass.verify");
      ("verify.pairs_checked", "count", checked);
      ("verify.pairs_skipped", "count", skipped);
      ( "verify.skip_ratio", "fraction",
        if checked +. skipped > 0.0 then skipped /. (checked +. skipped) else 0.0 );
      ("verify.fallbacks", "count", pe "fallbacks");
      ("vpo.glue_s", "s", pe "glue");
      ("vpo.code_insts", "count", pe "code_insts");
      ("sim.decode_ms", "ms", ms "sim.decode");
      ("sim.jit_compile_ms", "ms", ms "sim.compile");
      ("sim.execute_ms", "ms", ms "sim.execute");
      ( "sim.ns_per_inst", "ns",
        let i = pe "sim.insts" in
        if i > 0.0 then 1e9 *. pe "sim.execute" /. i else 0.0 );
      ("sim.insts", "count", pe "sim.insts");
      ( "sim.dcache_miss_ratio", "fraction",
        if hits +. misses > 0.0 then misses /. (hits +. misses) else 0.0 );
      ("workloads.prepare_ms", "ms", ms "prepare");
      ("workloads.check_ms", "ms", ms "check");
    ]
  @ List.map fixed serve_names
  @ List.map fixed trace_names
