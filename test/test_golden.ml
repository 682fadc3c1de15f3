(* The runtime golden corpus (test/golden/): a fixed matrix of small runs
   must reproduce the committed [corpus.golden] bit for bit — every report
   float, the blame category sums and the trace digest. A mismatch names
   the first differing run and shows both versions of it. *)

let golden_file = Filename.concat "golden" "corpus.golden"

let show (name, lines) = String.concat "\n" (("run " ^ name) :: List.map (( ^ ) "  ") lines)

let test_corpus () =
  let expected =
    Golden_corpus.parse (In_channel.with_open_bin golden_file In_channel.input_all)
  in
  let actual = Golden_corpus.blocks () in
  let rec first = function
    | e :: es, a :: as_ -> if e = a then first (es, as_) else Some (Some e, Some a)
    | [], [] -> None
    | e :: _, [] -> Some (Some e, None)
    | [], a :: _ -> Some (None, Some a)
  in
  match first (expected, actual) with
  | None -> ()
  | Some (e, a) ->
      let side = function Some b -> show b | None -> "(no run)" in
      Alcotest.failf "golden corpus: first differing run\n--- expected\n%s\n+++ actual\n%s" (side e)
        (side a)

let suite = [ Alcotest.test_case "golden corpus: every run bit-identical" `Quick test_corpus ]
