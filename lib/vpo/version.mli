(** Compiler build identity.

    A compile cache entry produced by one build must never satisfy a
    request compiled by another whose semantics differ.
    {!compiler_fingerprint} is the single string the whole system uses
    for that — the {!Mac_serve} cache key folds it in, the serve
    protocol hello announces it, the BENCH artifact headers record it,
    and [mcc --version]/[mccd --version] print it. *)

val compiler_fingerprint : string
(** [mcc/HASH]: a short digest over the sources of every library that
    shapes a compile artifact (digested at build time, so no edit can
    forget to change it) and the toolchain parameters the emitted code
    could depend on (OCaml compiler version, word size). Two processes
    report equal fingerprints only when they were built from the same
    compiler sources by the same toolchain generation — the property the
    compile cache, the protocol hello and the bench headers all key
    on. *)
