(* The heavyweight correctness property: random array kernels, random
   buffer layouts (including misaligned and overlapping ones), compiled at
   every optimization level for every machine, must leave memory in exactly
   the state the unoptimized build does. This exercises the whole stack:
   lowering, the classic optimizations, unrolling with its divisibility
   dispatch, coalescing with its alignment and alias checks, legalization
   and the simulator. *)

open Mac_rtl
module Machine = Mac_machine.Machine
module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp
module Pipeline = Mac_vpo.Pipeline

(* --- random kernel specification --- *)

type elem = Echar | Euchar | Eshort | Eushort | Eint

let elem_src = function
  | Echar -> "char"
  | Euchar -> "unsigned char"
  | Eshort -> "short"
  | Eushort -> "unsigned short"
  | Eint -> "int"

let elem_bytes = function
  | Echar | Euchar -> 1
  | Eshort | Eushort -> 2
  | Eint -> 4

(* Expressions over the loop index and the three arrays. *)
type expr =
  | Load of int * int  (* array index 0..2, element offset 0..2 *)
  | Index  (* the loop variable *)
  | Lit of int
  | Bin of string * expr * expr

type stmt = {
  dst : int;  (* array written *)
  dst_off : int;
  rhs : expr;
  in_place_op : string option;  (* Some "+" for c[i] += rhs *)
}

type kernel = {
  elems : elem array;  (* element type of each of the three arrays *)
  stmts : stmt list;
  n : int;  (* trip count *)
  skews : int array;  (* byte offset of each buffer from 8-alignment *)
  bases : int array;  (* buffer base addresses (may overlap) *)
}

let expr_src elems e =
  let rec go = function
    | Load (a, off) ->
      Printf.sprintf "%c[i + %d]" (Char.chr (Char.code 'a' + a)) off
    | Index -> "i"
    | Lit v -> Printf.sprintf "%d" v
    | Bin (op, x, y) -> Printf.sprintf "(%s %s %s)" (go x) op (go y)
  in
  ignore elems;
  go e

let kernel_src k =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "void kernel(";
  Array.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf "%s %c[], " (elem_src e) (Char.chr (Char.code 'a' + i))))
    k.elems;
  Buffer.add_string buf "int n) {\n  int i;\n  for (i = 0; i < n; i++) {\n";
  List.iter
    (fun s ->
      let lhs =
        Printf.sprintf "%c[i + %d]" (Char.chr (Char.code 'a' + s.dst))
          s.dst_off
      in
      match s.in_place_op with
      | Some op ->
        Buffer.add_string buf
          (Printf.sprintf "    %s %s= %s;\n" lhs op (expr_src k.elems s.rhs))
      | None ->
        Buffer.add_string buf
          (Printf.sprintf "    %s = %s;\n" lhs (expr_src k.elems s.rhs)))
    k.stmts;
  Buffer.add_string buf "  }\n}\n";
  Buffer.contents buf

(* --- generation --- *)

let gen_kernel =
  let open QCheck.Gen in
  let gen_expr =
    let rec go depth =
      if depth = 0 then
        oneof
          [
            map2 (fun a off -> Load (a, off)) (int_bound 2) (int_bound 2);
            return Index;
            map (fun v -> Lit (v - 32)) (int_bound 64);
          ]
      else
        frequency
          [
            (2, go 0);
            ( 3,
              let* op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
              let* x = go (depth - 1) in
              let* y = go (depth - 1) in
              return (Bin (op, x, y)) );
          ]
    in
    go 2
  in
  let gen_stmt =
    let* dst = int_bound 2 in
    let* dst_off = int_bound 2 in
    let* rhs = gen_expr in
    let* in_place =
      frequency
        [ (3, return None); (1, map Option.some (oneofl [ "+"; "^"; "&" ])) ]
    in
    return { dst; dst_off; rhs; in_place_op = in_place }
  in
  let* elems =
    array_repeat 3 (oneofl [ Echar; Euchar; Eshort; Eushort; Eint ])
  in
  let* stmts = list_size (int_range 1 4) gen_stmt in
  let* n = int_range 1 40 in
  (* skew each buffer by a multiple of its element size so the element
     accesses themselves stay aligned, while wide windows often are not *)
  let* skew_units = array_repeat 3 (int_bound 7) in
  let skews =
    Array.mapi (fun i u -> u * elem_bytes elems.(i) mod 8) skew_units
  in
  (* buffers at close, possibly overlapping positions *)
  let* raw_bases = array_repeat 3 (int_range 0 2) in
  let* spread = oneofl [ 512; 64 ] (* 64: likely overlap *) in
  let bases =
    Array.mapi (fun i r -> 1024 + (r * spread) + skews.(i)) raw_bases
  in
  return { elems; stmts; n; skews; bases }

let arbitrary_kernel =
  QCheck.make ~print:(fun k ->
      Printf.sprintf "%s\nn=%d bases=%s" (kernel_src k) k.n
        (String.concat ","
           (Array.to_list (Array.map string_of_int k.bases))))
    gen_kernel

(* --- execution --- *)

let mem_size = 8192

let fresh_memory k =
  let mem = Memory.create ~size:mem_size in
  (* deterministic pseudo-random fill derived from the kernel shape *)
  let seed = ref (Hashtbl.hash (kernel_src k, k.n, k.bases)) in
  for addr = 8 to mem_size - 1 do
    seed := (!seed * 1103515245) + 12345;
    Memory.store mem ~addr:(Int64.of_int addr) ~width:Width.W8
      (Int64.of_int (!seed lsr 16 land 0xFF))
  done;
  mem

let run_kernel k ~machine ~level =
  let cfg = Pipeline.config ~level machine in
  let compiled = Pipeline.compile_source cfg (kernel_src k) in
  let mem = fresh_memory k in
  let args =
    Array.to_list (Array.map Int64.of_int k.bases) @ [ Int64.of_int k.n ]
  in
  match
    Interp.run ~machine ~memory:mem compiled.funcs ~entry:"kernel" ~args ()
  with
  | _ -> Ok (Memory.load_bytes mem ~addr:8L ~len:(mem_size - 9))
  | exception Interp.Trap msg -> Error msg

let prop_levels_agree machine =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "all levels leave identical memory on %s"
         machine.Machine.name)
    ~count:60 arbitrary_kernel
    (fun k ->
      let reference = run_kernel k ~machine:Machine.test32 ~level:Pipeline.O0 in
      match reference with
      | Error _ -> QCheck.assume_fail () (* UB-ish input; skip *)
      | Ok expected ->
        List.for_all
          (fun level ->
            match run_kernel k ~machine ~level with
            | Ok got -> Bytes.equal got expected
            | Error _ -> false)
          Pipeline.[ O0; O1; O2; O3; O4 ])

(* Forced coalescing (no profitability gate, no i-cache guard) must also
   preserve semantics everywhere. *)
let prop_forced_coalescing_correct machine =
  let coalesce = Mac_workloads.Tables.forced in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "forced coalescing preserves memory on %s"
         machine.Machine.name)
    ~count:40 arbitrary_kernel
    (fun k ->
      match run_kernel k ~machine:Machine.test32 ~level:Pipeline.O0 with
      | Error _ -> QCheck.assume_fail ()
      | Ok expected -> (
        let cfg = Pipeline.config ~level:Pipeline.O4 ~coalesce machine in
        let compiled = Pipeline.compile_source cfg (kernel_src k) in
        let mem = fresh_memory k in
        let args =
          Array.to_list (Array.map Int64.of_int k.bases)
          @ [ Int64.of_int k.n ]
        in
        match
          Interp.run ~machine ~memory:mem compiled.funcs ~entry:"kernel"
            ~args ()
        with
        | _ ->
          Bytes.equal (Memory.load_bytes mem ~addr:8L ~len:(mem_size - 9))
            expected
        | exception Interp.Trap _ -> false))

(* Strength reduction and tight register allocation layered on top of the
   full pipeline must also preserve memory exactly. *)
let prop_strength_and_regalloc_correct machine =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "remainder loops + strength reduction + 9-register allocation on \
          %s"
         machine.Machine.name)
    ~count:40 arbitrary_kernel
    (fun k ->
      match run_kernel k ~machine:Machine.test32 ~level:Pipeline.O0 with
      | Error _ -> QCheck.assume_fail ()
      | Ok expected -> (
        let coalesce =
          { Mac_core.Coalesce.default with remainder_loop = true }
        in
        let cfg =
          Pipeline.config ~level:Pipeline.O4 ~coalesce ~strength_reduce:true
            ~regalloc:9 machine
        in
        let compiled = Pipeline.compile_source cfg (kernel_src k) in
        let mem = fresh_memory k in
        let args =
          Array.to_list (Array.map Int64.of_int k.bases)
          @ [ Int64.of_int k.n ]
        in
        match
          Interp.run ~machine ~memory:mem compiled.funcs ~entry:"kernel"
            ~args ()
        with
        | _ ->
          (* Spill slots live in a stack frame at the top of memory, which
             the unallocated reference build never touches — compare only
             below the stack area. *)
          let data_len = mem_size - 1024 in
          Bytes.equal
            (Memory.load_bytes mem ~addr:8L ~len:data_len)
            (Bytes.sub expected 0 data_len)
        | exception Interp.Trap _ -> false))

(* Certified guard elision must be invisible. Whenever the layout facts
   are sound by construction — alignment asserted only for unskewed
   buffers, provenance only for actually disjoint ones — the statically
   elided build must leave memory bit-identical to the fully guarded
   (--force-guards) build, and trap exactly when it does. Verification is
   at Vfull, so the audit also re-checks every certificate per kernel. *)
let kernel_facts k =
  let module Linform = Mac_opt.Linform in
  let reg = Reg.make in
  let eb i = elem_bytes k.elems.(i) in
  let len i = (k.n + 2) * eb i in
  let disjoint i j =
    k.bases.(i) + len i <= k.bases.(j) || k.bases.(j) + len j <= k.bases.(i)
  in
  let aligns =
    List.filter_map
      (fun i -> if k.skews.(i) = 0 then Some (reg i, 3) else None)
      [ 0; 1; 2 ]
  in
  let allocs =
    List.filter_map
      (fun i ->
        if List.for_all (fun j -> j = i || disjoint i j) [ 0; 1; 2 ] then
          Some
            ( reg i,
              i,
              Linform.add
                (Linform.const (Int64.of_int (2 * eb i)))
                (Linform.mul_const
                   (Linform.entry (reg 3))
                   (Int64.of_int (eb i))) )
        else None)
      [ 0; 1; 2 ]
  in
  { Mac_core.Disambig.aligns; allocs; values = []; nonnegs = [ reg 3 ] }

let prop_elision_invisible machine =
  let coalesce = Mac_workloads.Tables.forced in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "elided and guarded builds leave identical memory on %s"
         machine.Machine.name)
    ~count:40 arbitrary_kernel
    (fun k ->
      let facts = [ ("kernel", kernel_facts k) ] in
      let build force_guards =
        let cfg =
          Pipeline.config ~level:Pipeline.O4
            ~coalesce:{ coalesce with Mac_core.Coalesce.force_guards }
            ~facts ~verify:Pipeline.Vfull machine
        in
        let compiled = Pipeline.compile_source cfg (kernel_src k) in
        let mem = fresh_memory k in
        let args =
          Array.to_list (Array.map Int64.of_int k.bases)
          @ [ Int64.of_int k.n ]
        in
        match
          Interp.run ~machine ~memory:mem compiled.funcs ~entry:"kernel"
            ~args ()
        with
        | r ->
          Ok (r.Interp.value, Memory.load_bytes mem ~addr:8L ~len:(mem_size - 9))
        | exception Interp.Trap msg -> Error msg
      in
      match (build false, build true) with
      | Ok (va, ha), Ok (vb, hb) -> Int64.equal va vb && Bytes.equal ha hb
      | Error _, Error _ -> true
      | _ -> false)

let () =
  Alcotest.run "props"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_levels_agree (Machine.all @ [ Machine.test32 ])) );
      ( "forced",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_forced_coalescing_correct Machine.all) );
      ( "extensions",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_strength_and_regalloc_correct
             [ Machine.alpha; Machine.test32 ]) );
      ( "elision",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_elision_invisible Machine.all) );
    ]
