(* The program population shared by compile-mix and serve-replay: the
   eight paper programs (Table I plus the Fig. 1 dot product) and the
   seeded generated kernels, each runnable against its OCaml reference. *)

module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp
module W = Mac_workloads.Workloads

type program = {
  name : string;
  source : string;
  entry : string;
  check_mem : int;  (** memory image bytes for {!prepare} *)
  prepare : Memory.t -> W.instance;
      (** the check instance: a small run with a known answer *)
}

let pow2_at_least n =
  let rec go p = if p >= n then p else go (2 * p) in
  go (1 lsl 16)

(* Paper programs are checked at a small image edge; generated kernels
   over a few hundred elements. Both stay well inside the fuel limit on
   the reference engine. *)
let paper_check_size = 32
let gen_check_n = 1024

let of_paper (b : W.t) =
  {
    name = b.name;
    source = b.source;
    entry = b.entry;
    check_mem = pow2_at_least ((paper_check_size * paper_check_size * 8) + 65536);
    prepare = b.prepare W.default_layout ~size:paper_check_size;
  }

let of_kernel ~seed (k : Gen.kernel) =
  {
    name = k.name;
    source = Gen.source k;
    entry = k.name;
    check_mem = pow2_at_least ((16 * gen_check_n) + 65536);
    prepare = Gen.prepare k ~n:gen_check_n ~seed;
  }

let paper = List.map of_paper (W.dotproduct :: W.all)

let population ~seed =
  paper @ List.map (of_kernel ~seed) (Gen.population ~seed)

(* [None] when the run matched the reference, else what differed. *)
let check_instance mem (inst : W.instance) value =
  let value_err =
    match inst.expected_value with
    | Some e when not (Int64.equal e value) ->
      [ Printf.sprintf "return value %Ld, expected %Ld" value e ]
    | _ -> []
  in
  let region_errs =
    List.filter_map
      (fun (name, expected) ->
        match List.find_opt (fun (n, _, _) -> n = name) inst.outputs with
        | None -> Some (Printf.sprintf "no output region %s" name)
        | Some (_, addr, len) ->
          if Bytes.equal (Memory.load_bytes mem ~addr ~len) expected then None
          else Some (Printf.sprintf "output %s differs" name))
      inst.expected
  in
  match value_err @ region_errs with [] -> None | es -> Some (String.concat "; " es)

(* Run compiled code on a fresh check instance. *)
let run_check ?engine ~machine p (funcs : Mac_rtl.Func.t list) =
  let mem = Memory.create ~size:p.check_mem in
  let inst = p.prepare mem in
  let r =
    Interp.run ~machine ~memory:mem funcs ~entry:p.entry ~args:inst.args
      ?engine ()
  in
  (r, check_instance mem inst r.value)

(* --- simulated behaviour and simulator speed ------------------------ *)

(* Cycles and memory references per simulated program (by index),
   from its first run; its speed, execute seconds per simulated
   instruction, is a calibrated sample of every run ({!Stats.timed}). *)
type sims = (int, float * float) Hashtbl.t

let sims () : sims = Hashtbl.create 256

let record_sim (t : sims) (a : Stats.acc) i (r : Interp.result) =
  let m = r.metrics in
  if not (Hashtbl.mem t i) then
    Hashtbl.replace t i (float_of_int m.cycles, float_of_int (m.loads + m.stores));
  let ex = List.assoc "execute" r.phases in
  if ex > 0.0 && m.insts > 0 then Stats.timed a "sim" i (ex /. float_of_int m.insts)

(* One untimed reference check of program [i], counted as an attempt. *)
let check t (a : Stats.acc) i ?engine ~machine p funcs =
  let err =
    match run_check ?engine ~machine p funcs with
    | r, None -> record_sim t a i r; None
    | _, Some e -> Some e
    | exception e -> Some (Printexc.to_string e)
  in
  Stats.attempt a (err = None)
    (lazy (Printf.sprintf "%s on %s: %s" p.name machine.Mac_machine.Machine.name
             (Option.value err ~default:"")))

let sim_metrics (t : sims) (a : Stats.acc) m =
  let counts = Hashtbl.fold (fun _ c acc -> c :: acc) t [] in
  Stats.set m "sim_cycles_geomean" "cycles" (Stats.geomean (List.map fst counts));
  Stats.set m "sim_mem_refs" "count" (Stats.geomean (List.map snd counts));
  Stats.set m "sim_minsts_per_s" "Minst/s"
    (Stats.median (List.map (fun s -> 1e-6 /. s) (Stats.per_index a "sim")))

let code_insts (funcs : Mac_rtl.Func.t list) =
  List.fold_left
    (fun acc (f : Mac_rtl.Func.t) ->
      List.fold_left
        (fun acc (i : Mac_rtl.Rtl.inst) ->
          match i.kind with Mac_rtl.Rtl.Label _ -> acc | _ -> acc + 1)
        acc f.body)
    0 funcs

let machines = Mac_machine.Machine.[ alpha; mc88100; mc68030 ]
