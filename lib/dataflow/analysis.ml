(* The per-function analysis manager: memoises the CFG view, dominators,
   natural loops and the dataflow facts, with explicit pass-driven
   invalidation. A pass that reports a change drops everything except the
   facts it declares preserved; a pass that reports no change preserves
   everything by construction.

   Dependency rules enforced here rather than trusted from callers:
   - [Live]/[Reach]/[Copies] embed the CFG view they were computed on, so
     dropping [Cfg] always drops them too (declaring them preserved
     without [Cfg] is meaningless and ignored).
   - [Dom]/[Loops] are pure block-index structures: a pass that rewrites
     instructions 1:1 without touching labels, terminators or block
     boundaries may preserve them across a CFG rebuild — that is the
     case the manager exists for, since dominators are the costly
     recomputation in the coalescer's per-loop iteration.
   - [Loops] needs [Dom]; preserving [Loops] without [Dom] is ignored. *)

open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Dom = Mac_cfg.Dom
module Loop = Mac_cfg.Loop

type fact = Cfg | Dom | Loops | Live | Reach | Copies | Reuse | Tvalid

let fact_to_string = function
  | Cfg -> "cfg"
  | Dom -> "dom"
  | Loops -> "loops"
  | Live -> "live"
  | Reach -> "reach"
  | Copies -> "copies"
  | Reuse -> "reuse"
  | Tvalid -> "tvalid"

(* The translation validator's cross-pass memo lives above this library
   (lib/verify/tvalid.ml) — the manager stores it as an opaque extension
   together with a self-audit the owner supplies, so {!coherent} can
   probe it without a dependency inversion. *)
type tvalid_cache = ..

type t = {
  func : Func.t;
  mutable cfg : Cfg.t option;
  mutable dom : Dom.t option;
  mutable loops : Loop.t list option;
  mutable live : Liveness.t option;
  mutable reach : Reaching.t option;
  mutable copies : Copies.t option;
  (* Reuse summaries are keyed: the same body yields a different profile
     per machine and per concrete argument binding, so the slot is a
     small table rather than a single value. The computation itself
     lives above this library (lib/core/estimate.ml) and is passed in as
     a closure; the manager owns memoisation and invalidation only. *)
  mutable reuse : (string, Reuse.summary) Hashtbl.t option;
  (* The validator's term/summary cache plus its self-audit. Entries are
     content-addressed (keyed by RTL digests recomputed from the live
     body on every lookup), so unlike the facts above the slot has no
     Cfg dependency: a pass may preserve [Tvalid] across any rewrite.
     The audit closure re-derives every stored key from the stored
     content — a poisoned or corrupted mapping is a verification error,
     surfaced by {!coherent} like a stale CFG view. *)
  mutable tvalid :
    (tvalid_cache * (tvalid_cache -> (unit, string) result)) option;
  mutable hits : int;
  mutable misses : int;
}

let create func =
  {
    func;
    cfg = None;
    dom = None;
    loops = None;
    live = None;
    reach = None;
    copies = None;
    reuse = None;
    tvalid = None;
    hits = 0;
    misses = 0;
  }

let func t = t.func

let memo t get set compute =
  match get t with
  | Some v ->
    t.hits <- t.hits + 1;
    v
  | None ->
    t.misses <- t.misses + 1;
    let v = compute () in
    set t (Some v);
    v

let cfg t =
  memo t
    (fun t -> t.cfg)
    (fun t v -> t.cfg <- v)
    (fun () -> Cfg.build t.func)

let dom t =
  let c = cfg t in
  memo t
    (fun t -> t.dom)
    (fun t v -> t.dom <- v)
    (fun () -> Dom.compute c)

let loops t =
  let c = cfg t in
  let d = dom t in
  memo t
    (fun t -> t.loops)
    (fun t v -> t.loops <- v)
    (fun () -> Loop.natural_loops c d)

let liveness t =
  let c = cfg t in
  memo t
    (fun t -> t.live)
    (fun t v -> t.live <- v)
    (fun () -> Liveness.compute c)

let reaching t =
  let c = cfg t in
  memo t
    (fun t -> t.reach)
    (fun t v -> t.reach <- v)
    (fun () -> Reaching.compute c)

let copies t =
  let c = cfg t in
  memo t
    (fun t -> t.copies)
    (fun t v -> t.copies <- v)
    (fun () -> Copies.compute c)

let reuse t ~key ~compute =
  let tbl =
    match t.reuse with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 4 in
      t.reuse <- Some tbl;
      tbl
  in
  match Hashtbl.find_opt tbl key with
  | Some s ->
    t.hits <- t.hits + 1;
    s
  | None ->
    t.misses <- t.misses + 1;
    let s = compute t.func in
    Hashtbl.add tbl key s;
    s

let tvalid_slot t = Option.map fst t.tvalid
let set_tvalid t ~audit cache = t.tvalid <- Some (cache, audit)

let invalidate t ~preserves =
  let keep f = List.mem f preserves in
  let cfg_kept = keep Cfg in
  if not cfg_kept then t.cfg <- None;
  (* Dom/Loops are block-index structures; they survive without the CFG
     view when declared preserved. *)
  if not (keep Dom) then t.dom <- None;
  if not (keep Loops && keep Dom) then t.loops <- None;
  (* Dataflow facts embed the CFG view: preserved only alongside it. *)
  if not (cfg_kept && keep Live) then t.live <- None;
  if not (cfg_kept && keep Reach) then t.reach <- None;
  if not (cfg_kept && keep Copies) then t.copies <- None;
  (* Reuse profiles read strides straight off the body, so they are only
     preserved alongside [Cfg] — which also means the {!coherent} audit
     catches a pass that kept them while mutating instructions. *)
  if not (cfg_kept && keep Reuse) then t.reuse <- None;
  (* The validator cache is content-addressed (see the field comment):
     preserving it needs no Cfg, but it still answers to {!coherent}'s
     audit, which re-derives its keys from its contents. *)
  if not (keep Tvalid) then t.tvalid <- None

let invalidate_all t = invalidate t ~preserves:[]
let stats t = (t.hits, t.misses)

(* Cache-coherence probe for the verifier: the memoised CFG view must
   still describe [func]'s body — same instructions (by uid and kind) in
   the same order. A stale view here means some pass declared a [preserves]
   set it did not honour. *)
let coherent t =
  match
    match t.tvalid with
    | None -> Ok ()
    | Some (cache, audit) -> audit cache
  with
  | Error e -> Error ("translation-validation cache: " ^ e)
  | Ok () -> (
  match t.cfg with
  | None -> Ok ()
  | Some c ->
    let viewed =
      Array.to_list c.Cfg.blocks
      |> List.concat_map (fun (b : Cfg.block) -> b.Cfg.insts)
    in
    let rec cmp i (xs : Rtl.inst list) (ys : Rtl.inst list) =
      match (xs, ys) with
      | [], [] -> Ok ()
      | x :: xs, y :: ys ->
        if x.Rtl.uid = y.Rtl.uid && x.Rtl.kind = y.Rtl.kind then
          cmp (i + 1) xs ys
        else
          Error
            (Printf.sprintf
               "cached CFG diverges from the function body at instruction \
                %d (body uid %d, cached uid %d)"
               i x.Rtl.uid y.Rtl.uid)
      | _ ->
        Error
          (Printf.sprintf
             "cached CFG has %s instructions than the function body"
             (if ys = [] then "fewer" else "more"))
    in
    cmp 0 t.func.Func.body viewed)
