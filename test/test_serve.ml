(* Tests for the compile service: cache-key canonicalization (qcheck
   properties), wire framing and codecs, the on-disk cache's LRU
   eviction, and fork-based end-to-end runs of the daemon — cache-hit
   byte-identity, single-key sharing between a named bench and its
   source text, and error isolation (a poisoned request fails its own
   reply without killing the daemon or its batch). *)

module Protocol = Mac_serve.Protocol
module Digest_key = Mac_serve.Digest_key
module Cache = Mac_serve.Cache
module Server = Mac_serve.Server
module Client = Mac_serve.Client
module Service = Mac_serve.Service
module W = Mac_workloads.Workloads
module Pipeline = Mac_vpo.Pipeline

let key_of_request req =
  match Digest_key.of_request req with
  | Ok k -> k
  | Error e -> Alcotest.failf "digest failed: %s" e

(* --- digest properties ------------------------------------------- *)

(* A token vocabulary that reconstitutes a plausible MiniC kernel; the
   exact program does not matter, only that tokens never glue into new
   tokens because a separator always stands between them. *)
let tokens =
  [ "int"; "main"; "("; ")"; "{"; "char"; "*"; "a"; ";"; "for"; "i"; "=";
    "0"; "<"; "16"; "+"; "]"; "["; "return"; "}" ]

let gen_token_source =
  QCheck.Gen.(
    map
      (fun picks -> String.concat " " (List.map (List.nth tokens) picks))
      (list_size (int_range 1 40) (int_range 0 (List.length tokens - 1))))

(* Random lexical noise between two tokens: whitespace runs, line and
   block comments — exactly the rewrites the canonicalizer claims the
   token stream is invariant under. *)
let separators =
  [| " "; "\t"; "\n"; "  \t  "; " \r\n "; " /* noise */ "; "/* x */ ";
     " /*multi\nline*/ "; " // to end of line\n"; "\n// comment\n" |]

let respace seps src =
  let toks = String.split_on_char ' ' src in
  let sep i = separators.(List.nth seps (i mod List.length seps)) in
  String.concat ""
    (List.mapi (fun i t -> if i = 0 then t else sep i ^ t) toks)

let prop_respace_same_key =
  QCheck.Test.make ~count:200 ~name:"respaced source hashes equal"
    QCheck.(
      pair
        (make ~print:Fun.id gen_token_source)
        (list_of_size Gen.(int_range 1 8) (int_bound (Array.length separators - 1))))
    (fun (src, seps) ->
      let seps = if seps = [] then [ 0 ] else seps in
      let key s =
        Digest_key.of_fields ~source:s ~machine:"alpha" ~level:"O4"
          ~verify:"none" ()
      in
      key src = key (respace seps src))

(* Optional request fields reordered, defaulted or spelled out must
   resolve to the same cache key: the digest hashes fields in a fixed
   sequence, never in wire order. *)
let prop_field_order_same_key =
  QCheck.Test.make ~count:200 ~name:"reordered request fields hash equal"
    QCheck.(
      pair (make ~print:Fun.id gen_token_source) (int_bound 5))
    (fun (src, shuffle) ->
      let fields =
        [ ("source", src); ("machine", "alpha"); ("level", "O4");
          ("verify", "full") ]
      in
      let a, b, c, d =
        match fields with
        | [ a; b; c; d ] -> (a, b, c, d)
        | _ -> assert false
      in
      let perm =
        (* six fixed permutations indexed by [shuffle] *)
        match shuffle with
        | 0 -> [ a; b; c; d ]
        | 1 -> [ d; c; b; a ]
        | 2 -> [ b; a; d; c ]
        | 3 -> [ c; d; a; b ]
        | 4 -> [ d; a; b ] (* level omitted: defaults O4 *)
        | _ -> [ c; b; a ] (* verify omitted: defaults full *)
      in
      let json fs =
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "\"%s\":%s" k (Mac_workloads.Jsonio.str v))
               fs)
        ^ "}"
      in
      match
        (Protocol.request_of_json (json fields),
         Protocol.request_of_json (json perm))
      with
      | Ok a, Ok b -> key_of_request a = key_of_request b
      | _ -> false)

(* Distinct programs must not collide: the canonicalizer only erases
   comments and whitespace, never program text. *)
let prop_distinct_sources_distinct_keys =
  QCheck.Test.make ~count:300 ~name:"distinct sources never collide"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let src v = Printf.sprintf "int main() { return %d; }" v in
      let key v =
        Digest_key.of_fields ~source:(src v) ~machine:"alpha" ~level:"O4"
          ~verify:"none" ()
      in
      key a <> key b)

let test_corpus_collision_free () =
  (* a denser sweep than the pairwise property: 512 distinct programs,
     512 distinct keys *)
  let keys = Hashtbl.create 512 in
  for v = 0 to 511 do
    let src = Printf.sprintf "int f%d(int x) { return x + %d; }" v v in
    let k =
      Digest_key.of_fields ~source:src ~machine:"alpha" ~level:"O4"
        ~verify:"none" ()
    in
    if Hashtbl.mem keys k then Alcotest.failf "collision at %d" v;
    Hashtbl.add keys k ()
  done;
  Alcotest.(check int) "512 distinct keys" 512 (Hashtbl.length keys)

let test_key_dimensions () =
  (* every non-source field participates in the key, including the
     compiler fingerprint — a rebuilt compiler can never serve stale
     artifacts out of a surviving cache directory *)
  let base ?fingerprint ?(machine = "alpha") ?(level = "O4")
      ?(verify = "none") () =
    Digest_key.of_fields ?fingerprint ~source:"int main() { return 0; }"
      ~machine ~level ~verify ()
  in
  let k = base () in
  Alcotest.(check bool) "machine in key" true (k <> base ~machine:"mc88100" ());
  Alcotest.(check bool) "level in key" true (k <> base ~level:"O1" ());
  Alcotest.(check bool) "verify in key" true (k <> base ~verify:"full" ());
  Alcotest.(check bool) "fingerprint in key" true
    (k <> base ~fingerprint:"mcc/000000000000" ());
  Alcotest.(check string) "default fingerprint is the build's" k
    (base ~fingerprint:Mac_vpo.Version.compiler_fingerprint ())

(* The fingerprint is derived from a build-time digest of the compiler
   sources, never maintained by hand: it is "mcc/" plus 12 hex digits,
   and a request's cache key is the one built from exactly this string
   (the daemon's hello carrying it is checked end to end below). *)
let test_fingerprint_derived () =
  let fp = Mac_vpo.Version.compiler_fingerprint in
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  Alcotest.(check bool) "mcc/ + 12 hex digits" true
    (String.length fp = 16
    && String.sub fp 0 4 = "mcc/"
    && String.for_all is_hex (String.sub fp 4 12));
  let req = Protocol.request ~machine:"alpha" (`Bench "dotproduct") in
  let key ?fingerprint () =
    match Digest_key.of_request ?fingerprint req with
    | Ok k -> k
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "request key built from the fingerprint" true
    (key () = key ~fingerprint:fp ()
    && key () <> key ~fingerprint:(fp ^ "x") ())

let test_bench_resolves_to_source () =
  (* --bench image_add and a file holding the same program share one
     cache entry; an unknown bench is an Error, not an exception *)
  let bench = Option.get (W.find "image_add") in
  let of_src src = key_of_request (Protocol.request ~machine:"alpha" src) in
  Alcotest.(check string) "bench = its source"
    (of_src (`Bench "image_add"))
    (of_src (`Source bench.W.source));
  match Digest_key.of_request (Protocol.request ~machine:"alpha" (`Bench "no_such")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown bench should not hash"

(* --- framing and codecs ------------------------------------------ *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      let payloads =
        [ ""; "x"; "{\"k\":\"v\"}"; String.make 70000 'z';
          "bytes \x00\x01\xff and \"quotes\"\n" ]
      in
      List.iter (fun p -> Protocol.write_frame a p) payloads;
      List.iter
        (fun p ->
          match Protocol.read_frame b with
          | Ok got -> Alcotest.(check string) "frame" p got
          | Error e -> Alcotest.failf "read_frame: %s" e)
        payloads;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Protocol.read_frame b with
      | Error _ -> () (* EOF is an Error, not a hang or an exception *)
      | Ok _ -> Alcotest.fail "expected EOF error")

let test_codec_roundtrips () =
  let req =
    Protocol.request ~level:Pipeline.O2 ~verify:Pipeline.Vfull
      ~machine:"mc88100"
      (`Source "int main() {\n  return \"q\\\"uote\";\n}")
  in
  (match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok r -> Alcotest.(check bool) "request roundtrip" true (r = req)
  | Error e -> Alcotest.failf "request: %s" e);
  let hello =
    { Protocol.h_proto = Protocol.proto;
      h_fingerprint = Mac_vpo.Version.compiler_fingerprint }
  in
  (match Protocol.hello_of_json (Protocol.hello_to_json hello) with
  | Ok h -> Alcotest.(check bool) "hello roundtrip" true (h = hello)
  | Error e -> Alcotest.failf "hello: %s" e);
  let reply =
    { Protocol.r_ok = true; r_cached = false; r_key = "abc123";
      r_body = "{\"ok\":true,\n\"rtl\":\"r[1] <- 2\"}" }
  in
  match Protocol.reply_of_json (Protocol.reply_to_json reply) with
  | Ok r -> Alcotest.(check bool) "reply roundtrip" true (r = reply)
  | Error e -> Alcotest.failf "reply: %s" e

let test_request_rejects () =
  List.iter
    (fun (label, text) ->
      match Protocol.request_of_json text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should not parse" label)
    [ ("not json", "nonsense");
      ("no machine", "{\"source\":\"int main() { return 0; }\"}");
      ("no source", "{\"machine\":\"alpha\"}");
      ("both sources",
       "{\"source\":\"x\",\"bench\":\"image_add\",\"machine\":\"alpha\"}");
      ("bad level",
       "{\"source\":\"x\",\"machine\":\"alpha\",\"level\":\"O9\"}") ]

(* --- on-disk cache ----------------------------------------------- *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let test_cache_store_find_evict () =
  let dir = temp_dir "mcc_cache" in
  let c = Cache.open_dir ~max_entries:2 dir in
  let path k = Filename.concat dir (k ^ ".json") in
  Cache.store c "k1" "body one";
  Cache.store c "k2" "body two";
  Alcotest.(check (option string)) "find" (Some "body one") (Cache.find c "k1");
  (* pin mtimes explicitly so the eviction order is deterministic:
     k2 is the LRU entry *)
  Unix.utimes (path "k1") 2000.0 2000.0;
  Unix.utimes (path "k2") 1000.0 1000.0;
  Cache.store c "k3" "body three";
  Alcotest.(check int) "capped at max_entries" 2 (Cache.entries c);
  Alcotest.(check (option string)) "LRU entry evicted" None (Cache.find c "k2");
  Alcotest.(check (option string)) "recent entry kept" (Some "body one")
    (Cache.find c "k1");
  Alcotest.(check (option string)) "new entry kept" (Some "body three")
    (Cache.find c "k3")

let test_cache_find_touches () =
  (* find bumps mtime, so "oldest" means least recently used, not least
     recently written *)
  let dir = temp_dir "mcc_cache" in
  let c = Cache.open_dir ~max_entries:2 dir in
  let path k = Filename.concat dir (k ^ ".json") in
  Cache.store c "old" "o";
  Cache.store c "used" "u";
  Unix.utimes (path "old") 2000.0 2000.0;
  Unix.utimes (path "used") 1000.0 1000.0;
  ignore (Cache.find c "used") (* touch: now newer than "old" *);
  Cache.store c "new" "n";
  Alcotest.(check (option string)) "written-first but touched survives"
    (Some "u") (Cache.find c "used");
  Alcotest.(check (option string)) "untouched entry evicted" None
    (Cache.find c "old")

(* --- end-to-end daemon runs -------------------------------------- *)

(* Fork a daemon child serving exactly [max_requests] requests from a
   fresh socket + cache, run [f], then reap the child. The fork happens
   before any domain spawns (the pool lives in the child), so the
   parent's runtime is never forked mid-domain. *)
let with_daemon ?(max_batch = 64) ~max_requests f =
  let dir = temp_dir "mccd_e2e" in
  let socket = Filename.concat dir "mccd.sock" in
  let cache_dir = Filename.concat dir "cache" in
  match Unix.fork () with
  | 0 ->
    (try
       let cache = Cache.open_dir cache_dir in
       ignore (Server.serve ~jobs:2 ~max_batch ~max_requests ~socket ~cache ())
     with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        let rec wait n =
          if Sys.file_exists socket then ()
          else if n = 0 then Alcotest.fail "daemon socket never appeared"
          else (Unix.sleepf 0.05; wait (n - 1))
        in
        wait 200;
        f ~socket ~cache_dir)

let send socket req =
  (* the socket file appears at bind, one step before listen — retry
     the connect-refused window instead of racing the daemon child *)
  let rec go n =
    match Client.request ~socket req with
    | Ok (hello, reply) -> (hello, reply)
    | Error e when n > 0 && String.length e >= 7 && String.sub e 0 7 = "connect"
      ->
      Unix.sleepf 0.05;
      go (n - 1)
    | Error e -> Alcotest.failf "client: %s" e
  in
  go 100

let test_e2e_hit_byte_identical () =
  with_daemon ~max_requests:2 (fun ~socket ~cache_dir ->
      let req =
        Protocol.request ~level:Pipeline.O2 ~machine:"alpha"
          (`Bench "dotproduct")
      in
      let hello, miss = send socket req in
      Alcotest.(check string) "hello proto" Protocol.proto hello.Protocol.h_proto;
      Alcotest.(check string) "hello fingerprint"
        Mac_vpo.Version.compiler_fingerprint hello.Protocol.h_fingerprint;
      Alcotest.(check bool) "miss ok" true miss.Protocol.r_ok;
      Alcotest.(check bool) "first request compiles" false
        miss.Protocol.r_cached;
      let _, hit = send socket req in
      Alcotest.(check bool) "second request is a cache hit" true
        hit.Protocol.r_cached;
      Alcotest.(check string) "same key" miss.Protocol.r_key
        hit.Protocol.r_key;
      Alcotest.(check string) "hit body byte-identical to the miss"
        miss.Protocol.r_body hit.Protocol.r_body;
      (* the artifact really is on disk under its key *)
      Alcotest.(check bool) "artifact file exists" true
        (Sys.file_exists
           (Filename.concat cache_dir (miss.Protocol.r_key ^ ".json"))))

let test_e2e_poisoned_request_isolated () =
  with_daemon ~max_requests:3 (fun ~socket ~cache_dir:_ ->
      let poisoned =
        Protocol.request ~machine:"alpha" (`Source "int main( { syntax error")
      in
      let good =
        Protocol.request ~level:Pipeline.O1 ~machine:"alpha"
          (`Bench "dotproduct")
      in
      let _, r1 = send socket poisoned in
      Alcotest.(check bool) "poisoned request fails its own reply" false
        r1.Protocol.r_ok;
      (* the daemon survived: the next request compiles fine *)
      let _, r2 = send socket good in
      Alcotest.(check bool) "daemon survives a poisoned request" true
        r2.Protocol.r_ok;
      (* error bodies are never cached: the poison misses again *)
      let _, r3 = send socket poisoned in
      Alcotest.(check bool) "error not cached" false r3.Protocol.r_cached;
      Alcotest.(check bool) "still fails" false r3.Protocol.r_ok)

let test_e2e_bench_and_source_share_entry () =
  with_daemon ~max_requests:2 (fun ~socket ~cache_dir:_ ->
      let bench = Option.get (W.find "image_add") in
      let _, by_name =
        send socket
          (Protocol.request ~level:Pipeline.O2 ~machine:"alpha"
             (`Bench "image_add"))
      in
      let _, by_text =
        send socket
          (Protocol.request ~level:Pipeline.O2 ~machine:"alpha"
             (`Source bench.W.source))
      in
      Alcotest.(check bool) "name first: compiles" false
        by_name.Protocol.r_cached;
      Alcotest.(check bool) "same text: cache hit" true
        by_text.Protocol.r_cached;
      Alcotest.(check string) "one key" by_name.Protocol.r_key
        by_text.Protocol.r_key;
      Alcotest.(check string) "one body" by_name.Protocol.r_body
        by_text.Protocol.r_body)

(* A miscompile injected inside the daemon child (via the pipeline's
   test seam, inherited across the fork) must be caught by the
   translation validator at Vfull, and the failed compile must never be
   published: the cache stays empty and a retry misses again. *)
let test_e2e_mutant_not_cached () =
  let module Func = Mac_rtl.Func in
  let module Rtl = Mac_rtl.Rtl in
  Pipeline.test_intercept :=
    Some
      (fun pass f ->
        if String.equal pass "cse" then
          Func.set_body f
            (List.filter
               (fun (i : Rtl.inst) ->
                 match i.Rtl.kind with Rtl.Store _ -> false | _ -> true)
               f.Func.body));
  Fun.protect
    ~finally:(fun () -> Pipeline.test_intercept := None)
    (fun () ->
      with_daemon ~max_requests:2 (fun ~socket ~cache_dir ->
          let req =
            Protocol.request ~level:Pipeline.O2 ~verify:Pipeline.Vfull
              ~machine:"alpha" (`Bench "image_add")
          in
          let _, r1 = send socket req in
          Alcotest.(check bool) "mutant compile fails" false
            r1.Protocol.r_ok;
          Alcotest.(check bool) "no artifact published under the key" false
            (Sys.file_exists
               (Filename.concat cache_dir (r1.Protocol.r_key ^ ".json")));
          (* the failure was not cached either: the retry compiles (and
             fails) again instead of hitting *)
          let _, r2 = send socket req in
          Alcotest.(check bool) "mutant never cached" false
            r2.Protocol.r_cached;
          Alcotest.(check bool) "still fails" false r2.Protocol.r_ok))

(* The validation-verdict cache: a Vfull compile stores its verdict;
   a later Vfull request for the same (build, machine, level, source)
   recompiles WITHOUT re-running the validator and splices the
   certified counters into the fresh body. Proven from both sides:
   with a mutant injected through the pipeline seam, the verdict-hit
   path still answers ok (the validator genuinely did not run), while
   a verdict-less run of the same mutant is rejected (it would have
   been caught had validation run). *)
let test_verdict_cache_skips_revalidation () =
  let module J = Mac_workloads.Jsonio in
  let dir = temp_dir "mcc_verdicts" in
  let verdicts = Cache.open_dir dir in
  let req =
    (* verify defaults to Vfull now; image_add stores to an output
       array, so the store-dropping mutant below really miscompiles *)
    Protocol.request ~level:Pipeline.O2 ~machine:"alpha" (`Bench "image_add")
  in
  Alcotest.(check bool) "request defaults to Vfull" true
    (req.Protocol.verify = Pipeline.Vfull);
  let ok1, body1 = Service.run ~verdicts req in
  Alcotest.(check bool) "cold Vfull compile ok" true ok1;
  Alcotest.(check int) "verdict stored" 1 (Cache.entries verdicts);
  let member key body =
    match J.parse body with
    | Ok d -> Option.map J.render (J.member key d)
    | Error _ -> None
  in
  let ok2, body2 = Service.run ~verdicts req in
  Alcotest.(check bool) "verdict-hit recompile ok" true ok2;
  Alcotest.(check bool) "spliced tvalid counters match the proven ones" true
    (member "tvalid" body1 <> None
    && member "tvalid" body1 = member "tvalid" body2);
  Alcotest.(check (option string)) "artifact still claims verify full"
    (Some "\"full\"") (member "verify" body2);
  Alcotest.(check bool) "same compiled RTL" true
    (member "funcs" body1 <> None && member "funcs" body1 = member "funcs" body2);
  (* now the adversarial half: inject a store-dropping mutant *)
  let module Func = Mac_rtl.Func in
  let module Rtl = Mac_rtl.Rtl in
  Pipeline.test_intercept :=
    Some
      (fun pass f ->
        if String.equal pass "cse" then
          Func.set_body f
            (List.filter
               (fun (i : Rtl.inst) ->
                 match i.Rtl.kind with Rtl.Store _ -> false | _ -> true)
               f.Func.body));
  Fun.protect
    ~finally:(fun () -> Pipeline.test_intercept := None)
    (fun () ->
      let ok3, _ = Service.run ~verdicts req in
      Alcotest.(check bool)
        "verdict hit really skips the validator (mutant sails through)" true
        ok3;
      let ok4, _ = Service.run req in
      Alcotest.(check bool)
        "without the verdict cache the same mutant is rejected" false ok4)

let test_local_fallback () =
  (* no daemon on the socket: request_or_local compiles in-process and
     produces the same canonical artifact document *)
  let req =
    Protocol.request ~level:Pipeline.O1 ~machine:"alpha" (`Bench "dotproduct")
  in
  match Client.request_or_local ~socket:"/nonexistent/mccd.sock" req with
  | `Remote _ -> Alcotest.fail "no daemon should be reachable"
  | `Local (ok, body) ->
    Alcotest.(check bool) "local compile ok" true ok;
    let module J = Mac_workloads.Jsonio in
    let parse b =
      match J.parse b with
      | Ok d -> d
      | Error e -> Alcotest.failf "artifact body: %s" e
    in
    let doc = parse body in
    (match J.member "schema" doc with
    | Some (J.Str s) ->
      Alcotest.(check string) "artifact schema" "mac-serve-artifact/3" s
    | _ -> Alcotest.fail "artifact has no schema string");
    (* the compiled content (not the timing measurements) is
       deterministic: two in-process compiles agree on the RTL *)
    let ok', body' = Service.run req in
    Alcotest.(check bool) "service agrees" true ok';
    let funcs d = Option.map J.render (J.member "funcs" d) in
    Alcotest.(check bool) "same compiled RTL" true
      (funcs doc <> None && funcs doc = funcs (parse body'))

let () =
  Alcotest.run "serve"
    [
      ( "digest",
        List.map QCheck_alcotest.to_alcotest
          [ prop_respace_same_key; prop_field_order_same_key;
            prop_distinct_sources_distinct_keys ]
        @ [
            Alcotest.test_case "corpus collision-free" `Quick
              test_corpus_collision_free;
            Alcotest.test_case "key dimensions" `Quick test_key_dimensions;
            Alcotest.test_case "fingerprint derived from sources" `Quick
              test_fingerprint_derived;
            Alcotest.test_case "bench resolves to source" `Quick
              test_bench_resolves_to_source;
          ] );
      ( "protocol",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "codec roundtrips" `Quick test_codec_roundtrips;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_request_rejects;
        ] );
      ( "cache",
        [
          Alcotest.test_case "store/find/evict" `Quick
            test_cache_store_find_evict;
          Alcotest.test_case "find touches LRU order" `Quick
            test_cache_find_touches;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cache hit is byte-identical" `Quick
            test_e2e_hit_byte_identical;
          Alcotest.test_case "poisoned request isolated" `Quick
            test_e2e_poisoned_request_isolated;
          Alcotest.test_case "bench and source share one entry" `Quick
            test_e2e_bench_and_source_share_entry;
          Alcotest.test_case "mutant compile not cached" `Quick
            test_e2e_mutant_not_cached;
          Alcotest.test_case "verdict cache skips re-validation" `Quick
            test_verdict_cache_skips_revalidation;
          Alcotest.test_case "local fallback" `Quick test_local_fallback;
        ] );
    ]
