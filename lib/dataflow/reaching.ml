open Mac_rtl
module IntSet = Set.Make (Int)

let param_uid r = -1 - Reg.id r

(* Definition *sites* are numbered densely: one index per
   (defining instruction, defined register) in body order, preceded by
   one pseudo-site per function parameter. [site_uid] maps a site back to
   the uid the public API speaks in; [sites_of_reg] is the per-register
   kill/filter mask; [block_base.(b)] is block [b]'s first site. *)
type bits = {
  sol : Bitv.t Dataflow.solution;
  site_uid : int array;
  block_base : int array;
  sites_of_reg : Bitv.t Reg.Tbl.t;
}

type t = { cfg : Mac_cfg.Cfg.t; bits : bits; by_uid : (int, Rtl.inst) Hashtbl.t }

let compute_bits (cfg : Mac_cfg.Cfg.t) =
  (* Number the sites: parameters first, then body defs in order. *)
  let sites = ref [] and nsites = ref 0 in
  let new_site uid =
    let s = !nsites in
    incr nsites;
    sites := uid :: !sites;
    s
  in
  (* Explicit in-order numbering (no reliance on map evaluation order):
     parameters first, then every block's defs in body order. *)
  let param_sites =
    List.fold_left
      (fun acc r -> (r, new_site (param_uid r)) :: acc)
      [] cfg.func.params
    |> List.rev
  in
  let block_sites =
    Array.make (Array.length cfg.blocks) ([] : (Reg.t * int) list)
  in
  let block_base = Array.make (Array.length cfg.blocks) 0 in
  Array.iteri
    (fun bi (b : Mac_cfg.Cfg.block) ->
      block_base.(bi) <- !nsites;
      let acc = ref [] in
      List.iter
        (fun (i : Rtl.inst) ->
          List.iter
            (fun r -> acc := (r, new_site i.uid) :: !acc)
            (Rtl.defs i.kind))
        b.insts;
      block_sites.(bi) <- List.rev !acc)
    cfg.blocks;
  let nsites = !nsites in
  let site_uid = Array.make nsites 0 in
  List.iteri
    (fun i uid -> site_uid.(nsites - 1 - i) <- uid)
    !sites;
  let sites_of_reg = Reg.Tbl.create 32 in
  let mask_of r =
    match Reg.Tbl.find_opt sites_of_reg r with
    | Some m -> m
    | None ->
      let m = Bitv.create nsites in
      Reg.Tbl.replace sites_of_reg r m;
      m
  in
  List.iter (fun (r, s) -> Bitv.set (mask_of r) s) param_sites;
  Array.iter
    (fun sites -> List.iter (fun (r, s) -> Bitv.set (mask_of r) s) sites)
    block_sites;
  let n = Array.length cfg.blocks in
  let gen = Array.init n (fun _ -> Bitv.create nsites)
  and kill = Array.init n (fun _ -> Bitv.create nsites) in
  for b = 0 to n - 1 do
    List.iter
      (fun (r, s) ->
        let m = mask_of r in
        ignore (Bitv.diff_into ~into:gen.(b) m);
        ignore (Bitv.union_into ~into:kill.(b) m);
        Bitv.set gen.(b) s)
      block_sites.(b)
  done;
  let boundary = Bitv.create nsites in
  List.iter (fun (_, s) -> Bitv.set boundary s) param_sites;
  let sol =
    Dataflow.solve_bits cfg ~direction:Dataflow.Forward ~meet:Dataflow.Union
      ~gen ~kill ~boundary
  in
  let force = function Some v -> v | None -> Bitv.create nsites in
  {
    sol =
      {
        Dataflow.inb = Array.map force sol.Dataflow.inb;
        outb = Array.map force sol.Dataflow.outb;
      };
    site_uid;
    block_base;
    sites_of_reg;
  }

let compute (cfg : Mac_cfg.Cfg.t) =
  let by_uid = Hashtbl.create 64 in
  Array.iter
    (fun (b : Mac_cfg.Cfg.block) ->
      List.iter (fun (i : Rtl.inst) -> Hashtbl.replace by_uid i.uid i) b.insts)
    cfg.blocks;
  { cfg; bits = compute_bits cfg; by_uid }

let uids_of_bits bits bv =
  Bitv.fold_set
    (fun s acc -> IntSet.add bits.site_uid.(s) acc)
    bv IntSet.empty

let reach_in t b = uids_of_bits t.bits t.bits.sol.Dataflow.inb.(b)

(* A program point inside {!fold_block}'s walk: the working reach
   vector, valid only during the callback it is handed to. *)
type point = { pbits : bits; reach : Bitv.t }

let reaches p r =
  match Reg.Tbl.find_opt p.pbits.sites_of_reg r with
  | Some m -> Bitv.intersects p.reach m
  | None -> false

let defs_at p r =
  match Reg.Tbl.find_opt p.pbits.sites_of_reg r with
  | Some m ->
    let v = Bitv.copy p.reach in
    ignore (Bitv.inter_into ~into:v m);
    uids_of_bits p.pbits v
  | None -> IntSet.empty

(* One forward walk per block on a single working vector. Site numbering
   is in body order, so the per-instruction transfer is: kill the
   defined registers' sites, set the instruction's own. *)
let fold_block t b ~init ~f =
  let bits = t.bits in
  let p = { pbits = bits; reach = Bitv.copy bits.sol.Dataflow.inb.(b) } in
  let site = ref bits.block_base.(b) in
  List.fold_left
    (fun acc (i : Rtl.inst) ->
      let acc = f acc i p in
      List.iter
        (fun dr ->
          (match Reg.Tbl.find_opt bits.sites_of_reg dr with
          | Some m -> ignore (Bitv.diff_into ~into:p.reach m)
          | None -> ());
          Bitv.set p.reach !site;
          incr site)
        (Rtl.defs i.kind);
      acc)
    init t.cfg.blocks.(b).insts

let def_inst t uid = Hashtbl.find_opt t.by_uid uid
