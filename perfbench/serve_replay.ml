(* serve-replay: a forked mccd (Server.serve in a child process, this
   executable's daemon mode) with a fresh cache whose capacity is below
   the number of distinct keys, driven closed-loop by this process with
   two requests in flight.

   The population's programs on the three machines at the protocol
   default (O4, Vfull) give the distinct keys. An epoch is a fresh
   daemon over an empty cache (artifacts and verdicts) answering a fixed
   stream: every key once (the cold start), then a skewed, Zipf-like
   replay in which evicted keys come back as verdict-spliced
   recompiles. Requests go out in lockstep pairs, and the stream is
   built against a model of the cache's LRU-by-mtime eviction that
   refuses any pair whose hit or miss outcome would depend on the order
   the daemon happens to process the two requests in — so the hit
   fraction repeats exactly, while the daemon still sees concurrent
   connections, batches and single-flight duplicates. *)

module Pipeline = Mac_vpo.Pipeline
module Machine = Mac_machine.Machine
module S = Mac_serve
module Protocol = S.Protocol
module J = Mac_workloads.Jsonio

let capacity = 48
let zipf_pairs = 150
let zipf_s = 1.1

type key = {
  prog : Pop.program;
  machine : Machine.t;
  req : Protocol.request;
  digest : string;
  served : string;  (** the in-process Service.run body *)
  expected : string;  (** [served] without its wall-clock fields *)
  insts : int;
}

(* --- bodies ---------------------------------------------------------- *)

(* Everything but the wall-clock fields: the per-pass seconds, the
   compile seconds and each validator pass's seconds. *)
let untimed body =
  match J.parse body with
  | Error e -> Error e
  | Ok (J.Obj fields) ->
    let drop_seconds = function
      | J.Obj fs -> J.Obj (List.filter (fun (k, _) -> k <> "seconds") fs)
      | v -> v
    in
    Ok
      (J.render
         (J.Obj
            (List.filter_map
               (fun (k, v) ->
                 match (k, v) with
                 | ("pass_seconds" | "compile_seconds"), _ -> None
                 | "tvalid", J.Obj ps ->
                   Some (k, J.Obj (List.map (fun (p, o) -> (p, drop_seconds o)) ps))
                 | _ -> Some (k, v))
               fields)))
  | Ok _ -> Error "artifact body is not an object"

let rtl_of body =
  match J.parse body with
  | Ok doc -> (
    match J.member "funcs" doc with
    | Some (J.Arr fs) ->
      List.filter_map
        (fun f -> match J.member "rtl" f with Some (J.Str s) -> Some s | _ -> None)
        fs
    | _ -> [])
  | Error _ -> []

let body_insts body =
  List.fold_left
    (fun acc rtl ->
      List.fold_left
        (fun acc line ->
          if String.length line > 2 && String.sub line 0 2 = "  " then acc + 1 else acc)
        acc (String.split_on_char '\n' rtl))
    0 (rtl_of body)

(* Per-layer fields of a miss body (the daemon's own compile). *)
let record_body layers ~epoch h ~tokens body =
  match J.parse body with
  | Error _ -> ()
  | Ok doc ->
    let num = function Some (J.Num f) -> f | _ -> 0.0 in
    let obj k = match J.member k doc with Some (J.Obj fs) -> fs | _ -> [] in
    let pass_seconds =
      List.map
        (fun (k, v) -> (k, match v with J.Num f -> f | _ -> 0.0))
        (obj "pass_seconds")
    in
    let tvalid =
      List.map
        (fun (pass, o) ->
          let n k = int_of_float (num (J.member k o)) in
          {
            Layers.pass;
            blocks = n "blocks";
            skipped = n "skipped";
            fallbacks = n "fallbacks";
          })
        (obj "tvalid")
    in
    let coalesced =
      match J.member "reports" doc with
      | Some (J.Arr rs) ->
        List.length
          (List.filter (fun r -> J.member "status" r = Some (J.Str "coalesced")) rs)
      | _ -> 0
    in
    Layers.compile layers ~epoch h ~pass_seconds
      ~compile_seconds:(num (J.member "compile_seconds" doc))
      ~tvalid ~loops_coalesced:coalesced
      ~guards_emitted:(int_of_float (num (J.member "guards_emitted" doc)))
      ~guards_elided:(int_of_float (num (J.member "guards_elided" doc)))
      ~code_insts:(body_insts body) ~tokens

(* --- the stream ------------------------------------------------------ *)

(* The cache model: entries oldest first, each stamped with the pair
   that last touched it. Two entries of one pair tie; evicting one of a
   tie leaves a [Ghost] — one unknown survivor — whose keys may not be
   requested until the next eviction removes it. *)
type entry = Key of int * int (* key, stamp *) | Ghost of int list * int

let stamp = function Key (_, s) | Ghost (_, s) -> s

(* The model runs over popularity ranks with a fixed generator, and a
   fixed map takes ranks to keys, so the hit/miss pattern and which
   programs it hits are the same for every seed (the seed varies the
   programs' operators and names, hence every key's digest). *)
let stream ~nkeys =
  let rng = Rng.create 0x5E7 in
  let cdf =
    let w = Array.init nkeys (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
    let tot = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map (fun x -> acc := !acc +. (x /. tot); !acc) w
  in
  let zipf () =
    let u = Rng.float rng in
    let r = ref 0 in
    while !r < nkeys - 1 && cdf.(!r) < u do incr r done;
    !r
  in
  let entries = ref [] (* oldest first *) in
  let present k =
    List.exists (function Key (k', _) -> k' = k | Ghost _ -> false) !entries
  in
  let uncertain k =
    List.exists (function Ghost (ks, _) -> List.mem k ks | Key _ -> false) !entries
  in
  let evict_one () =
    match !entries with
    | [] -> ()
    | (Ghost _) :: rest -> entries := rest
    | first :: _ ->
      let s = stamp first in
      let group, rest = List.partition (fun e -> stamp e = s) !entries in
      if List.length group = 1 then entries := rest
      else
        entries :=
          Ghost
            (List.filter_map (function Key (k, _) -> Some k | Ghost _ -> None) group, s)
          :: rest
  in
  (* keys the evictions of a pair with [misses] stores could reach, in
     any processing order *)
  let reach misses =
    let ev = max 0 (List.length !entries + misses - capacity) in
    if ev = 0 then []
    else
      let a = Array.of_list !entries in
      let last = stamp a.(min (Array.length a - 1) (ev - 1)) in
      List.filter_map
        (fun e -> match e with Key (k, s) when s <= last -> Some k | _ -> None)
        !entries
  in
  let ok_pair ks =
    let ks = List.sort_uniq compare ks in
    (not (List.exists uncertain ks))
    &&
    let misses = List.length (List.filter (fun k -> not (present k)) ks) in
    let r = reach misses in
    not (List.exists (fun k -> present k && List.mem k r) ks)
  in
  let apply t ks =
    let ks = List.sort_uniq compare ks in
    let hits = List.filter present ks in
    entries :=
      List.filter
        (function Key (k, _) -> not (List.mem k hits) | Ghost _ -> true)
        !entries;
    entries := !entries @ List.map (fun k -> Key (k, t)) ks;
    while List.length !entries > capacity do evict_one () done
  in
  let cold = Array.init nkeys Fun.id in
  Rng.shuffle rng cold;
  let pairs = ref [] in
  let t = ref 0 in
  let emit ks =
    apply !t ks;
    incr t;
    pairs := ks :: !pairs
  in
  for i = 0 to (nkeys / 2) - 1 do
    emit [ cold.(2 * i); cold.((2 * i) + 1) ]
  done;
  if nkeys mod 2 = 1 then emit [ cold.(nkeys - 1) ];
  for _ = 1 to zipf_pairs do
    let rec draw tries =
      let ks = [ zipf (); zipf () ] in
      if ok_pair ks then ks
      else if tries > 10_000 then failwith "serve-replay: no admissible pair"
      else draw (tries + 1)
    in
    emit (draw 0)
  done;
  let perm = Array.init nkeys Fun.id in
  Rng.shuffle (Rng.create 0x7A) perm;
  List.rev_map (List.map (fun r -> perm.(r))) !pairs

(* --- the daemon ------------------------------------------------------ *)


let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type daemon = { pid : int; socket : string }

(* The daemon process: serve one epoch's requests, then leave its
   counters, its peak RSS and the cache's final size in [dir/stats]. *)
let daemon_main ~dir ~max_requests =
  (* an epoch takes seconds; a daemon whose client died must not linger *)
  ignore (Unix.alarm 170);
  let cache = S.Cache.open_dir ~max_entries:capacity (Filename.concat dir "cache") in
  let socket = Filename.concat dir "mccd.sock" in
  let st = S.Server.serve ~jobs:2 ~max_requests ~socket ~cache () in
  let oc = open_out (Filename.concat dir "stats") in
  Printf.fprintf oc "%d %d %d %d %d %f %d\n" st.batches st.requests st.hits st.misses
    st.errors (Stats.vmhwm_mb 0) (S.Cache.entries cache);
  close_out oc

(* A fresh process (this executable in its daemon mode), so its peak
   RSS is the daemon's own. *)
let start_daemon ~dir ~max_requests =
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "mccd.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--mccd"; dir; string_of_int max_requests |]
      Unix.stdin null Unix.stderr
  in
  Unix.close null;
  (* wait for the listening socket: a fine-grained poll on its path,
     no probe connections (they would count as requests) *)
  let deadline = Stats.now () +. 30.0 in
  while not (Sys.file_exists socket) do
    if Stats.now () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
      failwith "mccd did not come up";
    Unix.sleepf 0.0002
  done;
  { pid; socket }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())

(* connect, retrying while the daemon is between bind and listen *)
let rec connect socket tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0 ->
    Unix.close fd;
    Unix.sleepf 0.0002;
    connect socket (tries - 1)
  | exception e -> Unix.close fd; raise e

(* --- the workload ----------------------------------------------------- *)

(* one request of a pair, from connect to reply *)
type flight = {
  idx : int;  (** position in the epoch's stream *)
  k : int;
  fd : Unix.file_descr;
  t0 : float;  (** before connect *)
  t1 : float;  (** connected *)
  tw : float;  (** request written *)
  mutable reply : (Protocol.reply, string) result;
  mutable t3 : float;  (** reply read *)
}

let setup ~seed : Workload.session =
  let pop = Pop.population ~seed in
  let resolve_us = ref [] and service_ms = ref [] in
  let keys =
    Array.of_list
      (List.concat_map
         (fun (prog : Pop.program) ->
           List.map
             (fun (machine : Machine.t) ->
               let req = Protocol.request ~machine:machine.name (`Source prog.source) in
               let t0 = Stats.now () in
               let digest =
                 match S.Digest_key.of_request req with Ok k -> k | Error e -> failwith e
               in
               let t1 = Stats.now () in
               let ok, body = S.Service.run req in
               let t2 = Stats.now () in
               resolve_us := ((t1 -. t0) *. 1e6) :: !resolve_us;
               service_ms := ((t2 -. t1) *. 1000.0) :: !service_ms;
               if not ok then failwith ("in-process compile failed: " ^ body);
               let expected = match untimed body with Ok b -> b | Error e -> failwith e in
               let insts = body_insts body in
               { prog; machine; req; digest; served = body; expected; insts })
             Pop.machines)
         pop)
  in
  let nkeys = Array.length keys in
  let pairs = Array.of_list (stream ~nkeys) in
  let max_requests = Array.fold_left (fun n ks -> n + List.length ks) 0 pairs in
  let tokens = Array.map (fun k -> Layers.tokens k.prog.source) keys in
  let dir = Printf.sprintf ".bench_build/perfbench/serve-%d" (Unix.getpid ()) in
  let daemon = ref (Some (start_daemon ~dir ~max_requests)) in
  let hit_ms = ref [] and miss_ms = ref [] and connect_ms = ref [] in
  let hit_wait = ref [] and miss_wait = ref [] in
  let rss = ref [] and hits = ref 0 and answered = ref 0 in
  let artifact_kb = Array.make nkeys 0.0 in
  let first = ref true in
  let next_op = ref 0 in
  let sims = Pop.sims () in
  let local = Array.make nkeys None in
  let run_epoch (a : Stats.acc) layers epoch =
    let d =
      match !daemon with
      | Some d -> d
      | None ->
        let d = start_daemon ~dir ~max_requests in
        daemon := Some d;
        d
    in
    let last_body = Hashtbl.create 64 in
    Array.iteri
      (fun pi ks ->
        (* both connections first, then both requests: the daemon's
           accept-queue drain then sees the pair together, rather than
           racing the second connect *)
        let conns =
          List.mapi
            (fun j k ->
              let t0 = Stats.now () in
              let fd = connect d.socket 5000 in
              (j, k, fd, t0, Stats.now ()))
            ks
        in
        let sent =
          List.map
            (fun (j, k, fd, t0, t1) ->
              Protocol.write_frame fd (Protocol.request_to_json keys.(k).req);
              let tw = Stats.now () in
              { idx = (2 * pi) + j; k; fd; t0; t1; tw; reply = Error ""; t3 = 0.0 })
            conns
        in
        (* collect replies in arrival order *)
        let pending = ref sent in
        while !pending <> [] do
          let ready, _, _ = Unix.select (List.map (fun f -> f.fd) !pending) [] [] 60.0 in
          if ready = [] then failwith "mccd stopped answering";
          let mine, rest = List.partition (fun f -> List.mem f.fd ready) !pending in
          pending := rest;
          List.iter
            (fun f ->
              f.reply <-
                (match Protocol.read_frame f.fd with
                | Error e -> Error e
                | Ok _hello -> (
                  match Protocol.read_frame f.fd with
                  | Error e -> Error e
                  | Ok r -> Protocol.reply_of_json r));
              f.t3 <- Stats.now ();
              Unix.close f.fd)
            mine
        done;
        let first_sent = List.fold_left (fun m f -> Float.min m f.t0) infinity sent in
        let last_reply = List.fold_left (fun m f -> Float.max m f.t3) 0.0 sent in
        Stats.slot a pi (last_reply -. first_sent);
        (* misses first, so a deduplicated twin is checked against the
           body its compile produced *)
        let is_hit f =
          match f.reply with Ok r -> r.Protocol.r_cached | Error _ -> false
        in
        let hits_, misses = List.partition is_hit sent in
        List.iter
          (fun f ->
            let key = keys.(f.k) in
            let lat = (f.t3 -. f.t0) *. 1000.0 and wait = (f.t3 -. f.tw) *. 1000.0 in
            Stats.latency a f.idx (f.t3 -. f.t0);
            connect_ms := ((f.t1 -. f.t0) *. 1000.0) :: !connect_ms;
            let h = Trace.op_at "request" ~op:!next_op ~start:f.t0 ~stop:f.t3 in
            incr next_op;
            Trace.laid h
              [ ("connect", f.t1 -. f.t0); ("write", f.tw -. f.t1); ("wait", f.t3 -. f.tw) ];
            let err =
              match f.reply with
              | Error e -> Some ("protocol: " ^ e)
              | Ok r when not r.Protocol.r_ok -> Some ("ok:false: " ^ r.r_body)
              | Ok r when r.r_key <> key.digest -> Some "reply names another key"
              | Ok r when r.r_cached -> (
                incr hits;
                hit_ms := lat :: !hit_ms;
                hit_wait := wait :: !hit_wait;
                match Hashtbl.find_opt last_body f.k with
                | Some b when String.equal b r.r_body -> None
                | Some _ -> Some "hit body differs from the body its miss returned"
                | None -> Some "hit before any miss of its key")
              | Ok r -> (
                miss_ms := lat :: !miss_ms;
                miss_wait := wait :: !miss_wait;
                Hashtbl.replace last_body f.k r.r_body;
                if !first then
                  artifact_kb.(f.k) <- float_of_int (String.length r.r_body) /. 1024.0;
                record_body layers ~epoch h ~tokens:tokens.(f.k) r.r_body;
                match untimed r.r_body with
                | Ok b when String.equal b key.expected -> None
                | Ok _ -> Some "body differs from the in-process Service.run body"
                | Error e -> Some ("unparsable body: " ^ e))
            in
            incr answered;
            Stats.attempt a (err = None)
              (lazy
                (Printf.sprintf "%s on %s: %s" key.prog.name key.machine.name
                   (Option.value err ~default:""))))
          (misses @ hits_))
      pairs;
    (* the daemon exits after answering the epoch's last request *)
    ignore (Unix.waitpid [] d.pid);
    daemon := None;
    (match open_in (Filename.concat dir "stats") with
    | exception Sys_error _ -> Stats.fail a "mccd left no stats"
    | ic ->
      Scanf.sscanf (input_line ic) "%d %d %d %d %d %f %d"
        (fun batches requests _hits misses errors hwm entries ->
          Layers.add layers ~epoch "serve.batches" (float_of_int batches);
          Layers.add layers ~epoch "serve.requests" (float_of_int requests);
          Layers.add layers ~epoch "serve.compiles" (float_of_int misses);
          Layers.add layers ~epoch "serve.errors" (float_of_int errors);
          Layers.add layers ~epoch "serve.cache_entries" (float_of_int entries);
          rss := hwm :: !rss);
      close_in ic);
    first := false;
    (* untimed: every key compiled in-process (once) must print exactly
       the RTL the daemon served, and compute its reference result *)
    Array.iteri
      (fun i key ->
        if local.(i) = None then
          local.(i) <-
            Some
              (match
                 Pipeline.compile_source
                   (Pipeline.config ~verify:Pipeline.Vfull key.machine)
                   key.prog.source
               with
              | c ->
                if List.map (Fmt.str "%a" Mac_rtl.Func.pp) c.funcs = rtl_of key.served
                then Ok c.funcs
                else Error "served RTL differs from the in-process compile"
              | exception e -> Error (Printexc.to_string e));
        match local.(i) with
        | Some (Ok funcs) ->
          Pop.check sims a i ~engine:`Reference ~machine:key.machine key.prog funcs
        | Some (Error e) -> Stats.attempt a false (lazy (key.prog.name ^ ": " ^ e))
        | None -> ())
      keys
  in
  let finish (a : Stats.acc) m =
    Stats.set m "code_insts" "count"
      (float_of_int (Array.fold_left (fun n k -> n + k.insts) 0 keys));
    Pop.sim_metrics sims a m
  in
  let fill_layers layers =
    let ms l = Stats.median !l in
    let set = Layers.set layers in
    set "serve.connect_ms_p50" (ms connect_ms);
    set "serve.hit_wait_ms_p50" (ms hit_wait);
    set "serve.miss_wait_ms_p50" (ms miss_wait);
    set "serve.resolve_us_p50" (ms resolve_us);
    set "serve.service_ms_p50" (ms service_ms);
    set "serve.overhead_ms_p50" (ms miss_wait -. ms service_ms);
    set "serve.batches" (Layers.per_epoch layers "serve.batches");
    set "serve.batch_size_mean" (Layers.ratio layers "serve.requests" "serve.batches");
    set "serve.compiles" (Layers.per_epoch layers "serve.compiles");
    set "serve.errors" (Layers.per_epoch layers "serve.errors");
    set "serve.cache_entries" (Layers.per_epoch layers "serve.cache_entries");
    set "serve.artifact_kb_p50" (Stats.median (Array.to_list artifact_kb));
    set "serve.hit_ms_p50" (ms hit_ms);
    set "serve.miss_ms_p50" (ms miss_ms);
    set "serve.hit_frac"
      (if !answered > 0 then float_of_int !hits /. float_of_int !answered else 0.0)
  in
  {
    Workload.run_epoch;
    finish;
    fill_layers;
    peak_rss_mb = (fun () -> Stats.median !rss);
    close =
      (fun () ->
        Option.iter stop_daemon !daemon;
        daemon := None;
        rm_rf dir);
  }
