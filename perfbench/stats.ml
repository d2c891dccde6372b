(* Order statistics, process memory and the result line. *)

let now = Unix.gettimeofday

let sorted xs = List.sort compare xs

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = quantile 0.5 xs

let geomean = function
  | [] -> 0.0
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log (Float.max x 1.0)) 0.0 xs
      /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Peak resident set of a live process, MiB ([VmHWM] in /proc). *)
let vmhwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
      | _ -> go ()
    in
    let v = go () in
    close_in_noerr ic;
    v

(* --- metrics and the result line ------------------------------------ *)

type metrics = { mutable items : (string * (float * string)) list }

let metrics () = { items = [] }
let set m name unit v = m.items <- (name, (v, unit)) :: List.remove_assoc name m.items

module J = Mac_workloads.Jsonio

let result_line ~correct ~attempted ~failed m =
  J.render
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Num (float_of_int attempted));
         ("failed", J.Num (float_of_int failed));
         ( "metrics",
           J.Obj
             (List.rev_map
                (fun (name, (v, unit)) ->
                  ( name,
                    J.Obj
                      [
                        ("value", J.Num (if Float.is_finite v then v else 0.0));
                        ("unit", J.Str unit);
                      ] ))
                m.items) );
       ])

(* --- one run's operations ------------------------------------------- *)

(* The host's speed drifts by up to about 2x over seconds and minutes,
   whole runs included. Every run therefore interleaves a fixed
   calibration kernel (pure OCaml, no code from the system under test)
   with its operations, every {!calib_every} seconds and outside every
   timed interval, and divides each timed value by the host factor
   around it: the median time of the nearby kernel runs over
   {!calib_ref}. Reported times are thus times on a host as fast as the
   reference one; the run's factor is reported per layer
   (bench.host_factor) and on stderr. Every operation is timed once per
   epoch; its time is the median over epochs. Latency percentiles are
   taken over operations, and throughput divides the operations of an
   epoch by the summed times of the slots they ran in (a slot is one
   operation, or one pair of overlapping requests). *)

let calib_kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 6_000 do
    Hashtbl.replace h ((i * 7919) land 0x3FFF) (string_of_int i)
  done;
  let l = List.init 800 (fun i -> (i * 31337) land 0xFFFF) in
  Hashtbl.length h + List.length (List.sort compare l)

(* the kernel's time on the reference host (2-vCPU VM, fast phase) *)
let calib_ref = 0.0012

let time_kernel () =
  let t0 = now () in
  ignore (Sys.opaque_identity (calib_kernel ()));
  now () -. t0

(* The kernel's time; with [~both] it runs on both vCPUs at once (a
   second domain beside this one) and the mean of the two times is
   taken — for a workload whose processes use both vCPUs at once. *)
let calibrate ?(both = false) () =
  if not both then time_kernel ()
  else begin
    let other = Domain.spawn time_kernel in
    let mine = time_kernel () in
    (mine +. Domain.join other) /. 2.0
  end

(* the host factor: median kernel time over the reference *)
let factor_of times = median times /. calib_ref

type acc = {
  both : bool;  (** calibrate on both vCPUs *)
  samples : (string * int, float list) Hashtbl.t;
      (** (family, index) -> per-epoch calibrated values *)
  mutable pending : (string * int * float * float) list;
      (** this epoch: family, index, raw value, when *)
  mutable calib : (float * float) list;  (** this epoch: when, kernel time *)
  mutable last_calib : float;
  mutable factors : float list;
  mutable attempted : int;  (** operations plus their checks *)
  mutable failed : int;
  mutable first_error : string option;
}

let acc ?(both = false) () =
  {
    both;
    samples = Hashtbl.create 1024;
    pending = [];
    calib = [];
    last_calib = 0.0;
    factors = [];
    attempted = 0;
    failed = 0;
    first_error = None;
  }

let calib_every = 0.05

let maybe_calibrate a =
  let t = now () in
  if t -. a.last_calib >= calib_every then begin
    a.calib <- (t, calibrate ~both:a.both ()) :: a.calib;
    a.last_calib <- now ()
  end

(* A host-speed-dependent value of this epoch (seconds, or seconds per
   unit of work), calibrated when the epoch closes. *)
let timed a family i v =
  a.pending <- (family, i, v, now ()) :: a.pending;
  maybe_calibrate a

(* one operation's latency, seconds *)
let latency a i dt = timed a "lat" i dt

let slot a i dt = timed a "slot" i dt

(* a sequential operation is its own slot *)
let op a i dt =
  latency a i dt;
  slot a i dt

(* Each value is divided by the host factor of the [local] calibration
   samples nearest to it in time: the host's speed changes within an
   epoch too. *)
let local = 5

let close_epoch a =
  for _ = 1 to local do
    a.calib <- (now (), calibrate ~both:a.both ()) :: a.calib
  done;
  let cal = Array.of_list (List.rev a.calib) (* by time *) in
  let n = Array.length cal in
  let factor_at t =
    (* first sample at or after t, then the window around it *)
    let rec find lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if fst cal.(mid) < t then find (mid + 1) hi else find lo mid in
    let j = find 0 n in
    let lo = max 0 (min (n - local) (j - (local / 2))) in
    factor_of (List.init (min local n) (fun k -> snd cal.(lo + k)))
  in
  a.factors <- factor_of (List.map snd a.calib) :: a.factors;
  List.iter
    (fun (family, i, v, t) ->
      let k = (family, i) in
      let earlier = Option.value (Hashtbl.find_opt a.samples k) ~default:[] in
      Hashtbl.replace a.samples k ((v /. factor_at t) :: earlier))
    a.pending;
  a.pending <- [];
  a.calib <- []

(* per index of a family: the median over epochs *)
let per_index a family =
  Hashtbl.fold
    (fun (f, _) vs acc -> if f = family then median vs :: acc else acc)
    a.samples []

let latencies a = List.map (fun s -> s *. 1000.0) (per_index a "lat")

let ops_per_s a =
  let t = sum (per_index a "slot") in
  if t > 0.0 then float_of_int (List.length (per_index a "lat")) /. t else 0.0

let host_factor a = median a.factors

(* every failure is counted; the first few are also told on stderr *)
let fail a msg =
  a.failed <- a.failed + 1;
  if a.failed <= 20 then prerr_endline ("perfbench: failure: " ^ msg);
  if a.first_error = None then a.first_error <- Some msg

let attempt a ok msg =
  a.attempted <- a.attempted + 1;
  if not ok then fail a (Lazy.force msg)

let min_epochs = 3

(* Run whole epochs until [seconds] have passed and at least
   [min_epochs] ran. Housekeeping
   between epochs (a full major collection, so every epoch starts from
   a comparable heap, and calibration) is outside every timed slot.
   Returns the number
   of epochs run. *)
let epochs a ~seconds run_epoch =
  let t0 = now () in
  let rec go e =
    if e < min_epochs || now () -. t0 < seconds then begin
      Gc.full_major ();
      run_epoch e;
      close_epoch a;
      go (e + 1)
    end
    else e
  in
  go 0
