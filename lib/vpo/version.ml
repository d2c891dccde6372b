(* Compiler build identity. The fingerprint must change whenever compile
   output can change, so it is derived rather than maintained: the
   build digests the sources of every library that shapes a compile
   artifact (Source_digest, generated by the rule in dune) and this
   module folds in the toolchain parameters (OCaml version, word size)
   so rebuilding under a different compiler generation also changes
   it. Everything that must not confuse two builds — the serve cache
   key, the protocol hello, the BENCH headers — uses this one string. *)

let compiler_fingerprint =
  let seed =
    String.concat "\x00"
      [ "mac"; Source_digest.digest; Sys.ocaml_version;
        string_of_int Sys.word_size ]
  in
  Printf.sprintf "mcc/%s" (String.sub (Digest.to_hex (Digest.string seed)) 0 12)
