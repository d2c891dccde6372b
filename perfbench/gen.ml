(* Seeded kernel generator for the compile-mix and serve-replay
   populations.

   A kernel is one counted loop over narrow arrays — the shape the
   coalescer exists for — varied along the axes that change what it
   does: element width and signedness, the combining operator, how many
   input arrays, how many stencil taps on the first array, whether the
   loop stores an output array or reduces into a returned sum, and
   whether the parameters carry [aligned]/[noalias]/[extent]/[nonneg]
   attributes. Every kernel comes with an OCaml reference computed from
   the same input bytes, so a compiled kernel can be checked on any
   machine at any level. *)

module Memory = Mac_sim.Memory
module W = Mac_workloads.Workloads

type width = W8 | W16 | W32
type op = Add | Sub | Xor | And | Or

type kernel = {
  name : string;
  width : width;
  unsigned : bool;
  op : op;
  arrays : int;  (** input arrays, 1..3 *)
  taps : int;  (** stencil taps on the first array, 1..3 *)
  reduce : bool;  (** sum into a returned int instead of storing [c] *)
  attrs : bool;  (** aligned(8) noalias extent(..) / nonneg parameters *)
}

let bytes_of = function W8 -> 1 | W16 -> 2 | W32 -> 4

let ctype k =
  (if k.unsigned then "unsigned " else "")
  ^ match k.width with W8 -> "char" | W16 -> "short" | W32 -> "int"

let op_string = function
  | Add -> "+"
  | Sub -> "-"
  | Xor -> "^"
  | And -> "&"
  | Or -> "|"

let op_fun = function
  | Add -> ( + )
  | Sub -> ( - )
  | Xor -> ( lxor )
  | And -> ( land )
  | Or -> ( lor )

(* Terms in source order: taps on a0, then a1.. at [i]. *)
let terms k =
  List.init k.taps (fun t -> (0, t))
  @ List.init (k.arrays - 1) (fun j -> (j + 1, 0))

(* Byte length of input array [j] for [n] iterations. *)
let in_bytes k j ~n = bytes_of k.width * (if j = 0 then n + k.taps - 1 else n)

let source k =
  let b = bytes_of k.width in
  let param name extra =
    if not k.attrs then Printf.sprintf "%s %s[]" (ctype k) name
    else
      Printf.sprintf "%s %s[] aligned(8) noalias extent(%d * n + %d)"
        (ctype k) name b (b * extra)
  in
  let ins =
    List.init k.arrays (fun j ->
        param (Printf.sprintf "a%d" j) (if j = 0 then k.taps - 1 else 0))
  in
  let outs = if k.reduce then [] else [ param "c" 0 ] in
  let n = if k.attrs then "int n nonneg" else "int n" in
  let expr =
    terms k
    |> List.map (fun (j, t) ->
           if t = 0 then Printf.sprintf "a%d[i]" j
           else Printf.sprintf "a%d[i + %d]" j t)
    |> String.concat (Printf.sprintf " %s " (op_string k.op))
  in
  let params = String.concat ", " (ins @ outs @ [ n ]) in
  if k.reduce then
    Printf.sprintf
      "int %s(%s) {\n\
      \  int s = 0;\n\
      \  int i;\n\
      \  for (i = 0; i < n; i++)\n\
      \    s += %s;\n\
      \  return s;\n\
       }\n"
      k.name params expr
  else
    Printf.sprintf
      "void %s(%s) {\n  int i;\n  for (i = 0; i < n; i++)\n    c[i] = %s;\n}\n"
      k.name params expr

(* --- reference ---------------------------------------------------- *)

let load k (buf : Bytes.t) idx =
  match (k.width, k.unsigned) with
  | W8, false -> Bytes.get_int8 buf idx
  | W8, true -> Bytes.get_uint8 buf idx
  | W16, false -> Bytes.get_int16_le buf (2 * idx)
  | W16, true -> Bytes.get_uint16_le buf (2 * idx)
  | W32, _ -> Int32.to_int (Bytes.get_int32_le buf (4 * idx))

let wrap32 v = Int32.to_int (Int32.of_int v)

(* [(expected c bytes, expected return value)] for inputs [ins]. *)
let reference k (ins : Bytes.t array) ~n =
  let f = op_fun k.op in
  let expr i =
    match terms k with
    | [] -> 0
    | (j, t) :: rest ->
      List.fold_left
        (fun acc (j, t) -> f acc (load k ins.(j) (i + t)))
        (load k ins.(j) (i + t)) rest
  in
  if k.reduce then begin
    let s = ref 0 in
    for i = 0 to n - 1 do
      s := wrap32 (!s + expr i)
    done;
    (None, Some (Int64.of_int !s))
  end
  else begin
    let out = Bytes.create (bytes_of k.width * n) in
    for i = 0 to n - 1 do
      let v = expr i in
      match k.width with
      | W8 -> Bytes.set_uint8 out i (v land 0xFF)
      | W16 -> Bytes.set_uint16_le out (2 * i) (v land 0xFFFF)
      | W32 -> Bytes.set_int32_le out (4 * i) (Int32.of_int v)
    done;
    (Some out, None)
  end

(* Random element values small enough that a reduction over [n <= 4096]
   iterations of up to five terms never leaves 32-bit range. *)
let random_input k rng ~n j =
  let len = in_bytes k j ~n in
  let b = Bytes.create len in
  (match k.width with
  | W8 -> for i = 0 to len - 1 do Bytes.set_uint8 b i (Rng.int rng 256) done
  | W16 ->
    for i = 0 to (len / 2) - 1 do
      Bytes.set_uint16_le b (2 * i) (Rng.int rng 0x10000)
    done
  | W32 ->
    for i = 0 to (len / 4) - 1 do
      Bytes.set_int32_le b (4 * i) (Int32.of_int (Rng.int rng 0x8000 - 0x4000))
    done);
  b

let max_n = 4096

(* Lay the kernel's buffers out disjoint and 8-byte aligned (what the
   attributes promise), fill them from [seed] and compute the expected
   outputs. *)
let prepare k ~n ~seed mem : W.instance =
  if n > max_n then invalid_arg "Gen.prepare: n too large";
  let rng = Rng.create seed in
  let alloc = Memory.allocator mem in
  let ins = Array.init k.arrays (fun j -> random_input k rng ~n j) in
  let addrs =
    Array.map
      (fun b ->
        let a = Memory.alloc alloc ~align:8 (Bytes.length b) in
        Memory.store_bytes mem ~addr:a b;
        a)
      ins
  in
  let out_bytes, value = reference k ins ~n in
  match out_bytes with
  | None ->
    {
      W.args = Array.to_list addrs @ [ Int64.of_int n ];
      outputs = [];
      expected = [];
      expected_value = value;
    }
  | Some expected ->
    let len = Bytes.length expected in
    let c = Memory.alloc alloc ~align:8 len in
    {
      W.args = Array.to_list addrs @ [ c; Int64.of_int n ];
      outputs = [ ("c", c, len) ];
      expected = [ ("c", expected) ];
      expected_value = value;
    }

(* --- the population ----------------------------------------------- *)

(* The structural mix is fixed so every seed draws a population of the
   same shape (and so comparable aggregate code size and compile cost);
   the seed picks each shape's operator among the single-instruction
   ALU operators, and the kernel names. Signedness follows the shape:
   it changes how a narrow load is extended, which is code-size
   relevant on the Alpha. *)
let shapes =
  (* width, unsigned, arrays, taps, reduce, attrs *)
  [
    (W8, false, 2, 1, false, false);
    (W8, true, 2, 1, false, true);
    (W8, false, 1, 3, false, false);
    (W8, true, 1, 2, false, true);
    (W8, false, 3, 1, false, true);
    (W8, true, 2, 2, false, false);
    (W8, false, 1, 1, true, false);
    (W8, true, 2, 1, true, true);
    (W16, false, 2, 1, false, false);
    (W16, true, 2, 1, false, true);
    (W16, false, 1, 3, false, true);
    (W16, true, 3, 1, false, false);
    (W16, false, 2, 1, true, false);
    (W16, true, 1, 2, true, true);
    (W32, false, 2, 1, false, true);
    (W32, false, 1, 2, false, false);
  ]

let population ~seed =
  let rng = Rng.create (0x6E6 + seed) in
  List.mapi
    (fun i (width, unsigned, arrays, taps, reduce, attrs) ->
      let op = [| Add; Sub; Xor; And; Or |].(Rng.int rng 5) in
      {
        name = Printf.sprintf "k%d_%04x" i (Rng.int rng 0x10000);
        width;
        unsigned;
        op;
        arrays;
        taps;
        reduce;
        attrs;
      })
    shapes
