(* In-memory span recorder for the traced run (--trace 1).

   A span has a name, start and end (seconds since the epoch), a parent
   span id (-1 at the root) and the id of the operation it belongs to.
   Layer splits the program only returns as result fields — per-pass
   seconds of a compile, simulator phases — are recorded as child spans
   laid end to end from the parent's start ([synthetic]: the durations
   are measured, the positions are not), and counts as counters on the
   span. Nothing is written until {!write}. When tracing is off every
   entry point is a no-op apart from running the wrapped function. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  op : int;
  synthetic : bool;
  counters : (string * float) list;
}

type handle = { h_id : int; h_start : float; h_op : int }

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let parents : int list ref = ref []
let current_op = ref (-1)

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let parent () = match !parents with p :: _ -> p | [] -> -1

let counters : (int, (string * float) list) Hashtbl.t = Hashtbl.create 64

let record ?(synthetic = false) ~id ~parent ~op name start stop =
  spans := { id; name; start; stop; parent; op; synthetic; counters = [] } :: !spans

let dummy = { h_id = -1; h_start = 0.0; h_op = -1 }

let with_span name f =
  if not !enabled then f dummy
  else begin
    let h = { h_id = fresh (); h_start = Stats.now (); h_op = !current_op } in
    let p = parent () in
    parents := h.h_id :: !parents;
    let finish () =
      parents := List.tl !parents;
      record ~id:h.h_id ~parent:p ~op:h.h_op name h.h_start (Stats.now ())
    in
    match f h with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* One operation: a root span whose id tags every span inside it. *)
let with_op name ~op f =
  if not !enabled then f dummy
  else begin
    current_op := op;
    Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> with_span name f)
  end

(* An operation that has already happened (a request whose end the
   client saw before it could attribute it). *)
let op_at name ~op ~start ~stop =
  if not !enabled then dummy
  else begin
    let h = { h_id = fresh (); h_start = start; h_op = op } in
    record ~id:h.h_id ~parent:(parent ()) ~op name start stop;
    h
  end

let laid h parts =
  if !enabled && h.h_id >= 0 then
    ignore
      (List.fold_left
         (fun t (name, dur) ->
           record ~synthetic:true ~id:(fresh ()) ~parent:h.h_id ~op:h.h_op name t
             (t +. dur);
           t +. dur)
         h.h_start parts)

let counter h name v =
  if !enabled && h.h_id >= 0 then
    Hashtbl.replace counters h.h_id
      ((name, v) :: Option.value (Hashtbl.find_opt counters h.h_id) ~default:[])

let count () = List.length !spans

module J = Mac_workloads.Jsonio

(* One JSON object per line, in recording order. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (J.render
           (J.Obj
              ([
                 ("id", J.Num (float_of_int s.id));
                 ("name", J.Str s.name);
                 ("start", J.Num s.start);
                 ("end", J.Num s.stop);
                 ("parent", J.Num (float_of_int s.parent));
                 ("op", J.Num (float_of_int s.op));
                 ("synthetic", J.Bool s.synthetic);
               ]
              @
              match s.counters with
              | [] -> []
              | cs ->
                [ ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) cs)) ])));
      output_char oc '\n')
    (List.rev_map
       (fun s ->
         let cs = Option.value (Hashtbl.find_opt counters s.id) ~default:[] in
         { s with counters = List.rev cs })
       !spans);
  close_out oc
