(* compile-mix: one operation is one Pipeline.compile_source at Vfull.

   The epoch crosses every program of the population with all twelve
   (machine, level O1..O4) pairs; the pass configuration (plain, list
   schedule, modulo schedule, register allocation) rotates with the
   program, machine and level. The seed picks the generated kernels'
   operators and names and the order of the epoch; the structure of
   the epoch is the same for every seed, so its totals are comparable
   across seeds. *)

module Pipeline = Mac_vpo.Pipeline
module Machine = Mac_machine.Machine

type variant = Plain | Schedule | Pipeline_sched | Regalloc

(* Register allocation runs on the Alpha only: on the 32-bit machines
   it spills 64-bit values with stores they cannot execute, which Vfull
   rejects (a known compiler defect; see README.md). *)
let variants (m : Machine.t) =
  if m.name = "alpha" then [| Plain; Schedule; Pipeline_sched; Regalloc |]
  else [| Plain; Schedule; Pipeline_sched |]
let levels = Pipeline.[| O1; O2; O3; O4 |]

type op = {
  prog : Pop.program;
  tokens : int;
  machine : Machine.t;
  cfg : Pipeline.config;
  checked : bool;  (** in the reference-engine sample *)
}

let config machine level = function
  | Plain -> Pipeline.config ~level ~verify:Pipeline.Vfull machine
  | Schedule -> Pipeline.config ~level ~schedule:true ~verify:Pipeline.Vfull machine
  | Pipeline_sched ->
    Pipeline.config ~level ~pipeline_sched:true ~verify:Pipeline.Vfull machine
  | Regalloc -> Pipeline.config ~level ~regalloc:16 ~verify:Pipeline.Vfull machine

let epoch_ops ~seed =
  let rng = Rng.create (0xC0 + seed) in
  let ops =
    List.concat
      (List.mapi
         (fun pi (prog : Pop.program) ->
           let tokens = Layers.tokens prog.source in
           List.concat
             (List.mapi
                (fun mi machine ->
                  List.init 4 (fun li ->
                      let vs = variants machine in
                      let v = vs.((pi + mi + li) mod Array.length vs) in
                      (* a fixed stratified sample: every program once
                         per machine, the level and (so) the configuration
                         rotating *)
                      let checked = ((2 * pi) + mi + li) mod 4 = 0 in
                      let cfg = config machine levels.(li) v in
                      { prog; tokens; machine; cfg; checked }))
                Pop.machines))
         (Pop.population ~seed))
  in
  let a = Array.of_list ops in
  Rng.shuffle rng a;
  a

let setup ~seed : Workload.session =
  let ops = epoch_ops ~seed in
  (* warm-up: every program through the front end and the full
     pipeline once per machine, under its first configuration there *)
  let warmed = Hashtbl.create 32 in
  Array.iter
    (fun op ->
      let k = (op.prog.name, op.machine.name) in
      if not (Hashtbl.mem warmed k) then begin
        Hashtbl.add warmed k ();
        ignore (Pipeline.compile_source op.cfg op.prog.source)
      end)
    ops;
  let kept = Array.make (Array.length ops) None in
  let code_insts = ref 0 in
  let sims = Pop.sims () in
  let rss = ref 0.0 in
  (* behaviour is recorded from the first epoch a session runs *)
  let first = ref true in
  let run_epoch (a : Stats.acc) layers epoch =
    Array.iteri
      (fun i op ->
        Trace.with_op "compile" ~op:((epoch * Array.length ops) + i) (fun h ->
            let t0 = Stats.now () in
            let res =
              try Ok (Pipeline.compile_source op.cfg op.prog.source) with
              | Pipeline.Verification_failed d ->
                Error (Fmt.str "verification failed: %a" Mac_verify.Diagnostic.pp d)
              | e -> Error (Printexc.to_string e)
            in
            Stats.op a i (Stats.now () -. t0);
            match res with
            | Error e -> Stats.attempt a false (lazy (op.prog.name ^ ": " ^ e))
            | Ok c ->
              Stats.attempt a true (lazy "");
              Layers.compiled layers ~epoch h ~tokens:op.tokens c;
              if !first then begin
                code_insts := !code_insts + Pop.code_insts c.funcs;
                if op.checked then kept.(i) <- Some c.funcs
              end))
      ops;
    (* peak RSS as of the first epoch: later epochs only add GC noise *)
    if !first then rss := Stats.vmhwm_mb 0;
    first := false;
    (* untimed: the checked sample on the reference engine against the
       OCaml references, once per epoch *)
    Array.iteri
      (fun i op ->
        Option.iter
          (Pop.check sims a i ~engine:`Reference ~machine:op.machine op.prog)
          kept.(i))
      ops
  in
  let finish (a : Stats.acc) m =
    Stats.set m "code_insts" "count" (float_of_int !code_insts);
    Pop.sim_metrics sims a m
  in
  {
    Workload.run_epoch;
    finish;
    fill_layers = ignore;
    peak_rss_mb = (fun () -> !rss);
    close = ignore;
  }
