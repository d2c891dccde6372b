(* digest_sources FILE... — print [let digest = "<hex>"]: the MD5 over
   every named file's path and contents, taken in sorted path order so
   the result does not depend on the order dune lists them in. *)

let () =
  let files = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  let buf = Buffer.create 4096 in
  List.iter
    (fun path ->
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Buffer.add_string buf path;
      Buffer.add_char buf '\000';
      Buffer.add_string buf (Digest.to_hex (Digest.string contents));
      Buffer.add_char buf '\n')
    files;
  Printf.printf "let digest = %S\n"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
