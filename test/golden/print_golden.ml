(* Print the runtime golden corpus to stdout:

     dune exec test/golden/print_golden.exe > test/golden/corpus.golden

   Regenerate only when a change is meant to move simulated numbers, and
   say so in the change description. *)

let () = print_string (Golden_corpus.render (Golden_corpus.blocks ()))
