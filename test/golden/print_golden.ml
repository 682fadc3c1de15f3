(* Print the runtime golden corpus to stdout:

     dune exec test/golden/print_golden.exe > test/golden/corpus.golden

   and, with [--pinned], the trace and blame digests of
   [Golden_corpus.pinned]:

     dune exec test/golden/print_golden.exe -- --pinned > test/golden/pinned.golden

   Regenerate only when a change is meant to move simulated numbers, and
   say so in the change description. *)

let () =
  match Sys.argv with
  | [| _; "--pinned" |] -> print_string (Golden_corpus.render (Golden_corpus.pinned_blocks ()))
  | _ -> print_string (Golden_corpus.render (Golden_corpus.blocks ()))
