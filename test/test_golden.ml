(* The runtime golden corpus (test/golden/): a fixed matrix of small runs
   must reproduce the committed [corpus.golden] bit for bit — every report
   float, the blame category sums and the trace digest. A mismatch names
   the first differing run and shows both versions of it. *)

let show (name, lines) = String.concat "\n" (("run " ^ name) :: List.map (( ^ ) "  ") lines)

let compare_blocks what file actual =
  let expected = Golden_corpus.parse (In_channel.with_open_bin file In_channel.input_all) in
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
      Alcotest.failf "%s: first differing run\n--- expected\n%s\n+++ actual\n%s" what (side e)
        (side a)

let test_corpus () =
  compare_blocks "golden corpus" (Golden_corpus.corpus_file ()) (Golden_corpus.blocks ())

(* The digests in [pinned.golden] were taken before the trace moved to
   columns; they cover what the corpus omits (span ids, causes, flow
   events, the blame JSON). *)
let test_pinned () =
  compare_blocks "pinned trace and blame digests" (Golden_corpus.pinned_file ())
    (Golden_corpus.pinned_blocks ())

let suite =
  [
    Alcotest.test_case "golden corpus: every run bit-identical" `Quick test_corpus;
    Alcotest.test_case "golden corpus: pinned Chrome trace and blame digests" `Quick test_pinned;
  ]
