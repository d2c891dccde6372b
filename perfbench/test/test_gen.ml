(* Every generated kernel must compute what its OCaml reference says, at
   O0 and at O4, on all three paper machines, for trip counts that do
   and do not divide the coalescing factor. *)

open Perfbench
module Pipeline = Mac_vpo.Pipeline
module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp

let seeds = [ 1; 2; 3 ]
let trip_counts = [ 64; 37 ]

let check_kernel (k : Gen.kernel) () =
  List.iter
    (fun machine ->
      List.iter
        (fun level ->
          let cfg = Pipeline.config ~level ~verify:Pipeline.Vfull machine in
          let c = Pipeline.compile_source cfg (Gen.source k) in
          List.iter
            (fun n ->
              let mem = Memory.create ~size:(1 lsl 16) in
              let inst = Gen.prepare k ~n ~seed:n mem in
              let r =
                Interp.run ~machine ~memory:mem c.Pipeline.funcs ~entry:k.name
                  ~args:inst.args ()
              in
              match Pop.check_instance mem inst r.value with
              | None -> ()
              | Some e ->
                Alcotest.failf "%s on %s at %s, n=%d: %s\n%s" k.name
                  machine.Mac_machine.Machine.name
                  (Pipeline.level_to_string level) n e (Gen.source k))
            trip_counts)
        Pipeline.[ O0; O4 ])
    Pop.machines

let () =
  Alcotest.run "perfbench-gen"
    (List.map
       (fun seed ->
         ( Printf.sprintf "seed %d" seed,
           List.map
             (fun (k : Gen.kernel) ->
               Alcotest.test_case k.name `Quick (check_kernel k))
             (Gen.population ~seed) ))
       seeds)
