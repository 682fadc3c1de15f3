(* Validate the observability artifacts the CLI emits, for check.sh:

     validate_obs trace FILE.json    # chrome trace: spans + causal flow events
     validate_obs metrics FILE.prom  # Prometheus text exposition

   JSON is read with the tree's one parser, [Mgacc_util.Json]; the goal
   is that a malformed or internally inconsistent artifact fails CI
   loudly. *)

module Json = Mgacc_util.Json

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("validate_obs: " ^ msg); exit 1) fmt

let read_file path = try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> fail "%s" e

(* ---------------- chrome trace ---------------- *)

let validate_trace file =
  let events =
    match Json.of_string (read_file file) with
    | Json.Arr events -> events
    | _ -> fail "%s: top level is not an array" file
    | exception Json.Parse_error e -> fail "%s: %s" file e
  in
  let str key ev = match Json.member key ev with Some (Json.Str s) -> Some s | _ -> None in
  let num key ev = match Json.member key ev with Some (Json.Num f) -> Some f | _ -> None in
  let arg key ev = Option.bind (Json.member "args" ev) (Json.member key) in
  let span_ids = Hashtbl.create 256 in
  let flow_starts = Hashtbl.create 256 in
  let spans = ref 0 and flow_s = ref 0 and flow_f = ref 0 and meta = ref 0 in
  List.iter
    (fun ev ->
      match str "ph" ev with
      | Some "X" -> (
          incr spans;
          match arg "span" ev with
          | Some (Json.Num id) -> Hashtbl.replace span_ids id ()
          | _ -> fail "%s: an X event is missing args.span" file)
      | Some "M" -> incr meta
      | _ -> ())
    events;
  List.iter
    (fun ev ->
      match str "ph" ev with
      | Some (("s" | "f") as ph) -> (
          if ph = "s" then incr flow_s else incr flow_f;
          let span =
            match arg "span" ev with
            | Some (Json.Num id) ->
                if not (Hashtbl.mem span_ids id) then
                  fail "%s: flow %s event references unknown span %g" file ph id;
                id
            | _ -> fail "%s: a flow event is missing args.span" file
          in
          match (num "id" ev, num "ts" ev) with
          | Some fid, Some ts ->
              if ph = "s" then Hashtbl.replace flow_starts fid (ts, span)
              else begin
                (* A flow edge runs from the producer's finish to the
                   consumer's start: it may not go backwards in time,
                   beyond the 1 ns (0.001 us) the timestamps are printed
                   to. *)
                match Hashtbl.find_opt flow_starts fid with
                | None -> fail "%s: flow finish %g has no preceding start" file fid
                | Some (s_ts, producer) ->
                    if ts < s_ts -. 0.001 -. 1e-9 then
                      fail "%s: flow %g goes backwards in time: span %g finishes at %.3fus, its \
                            consumer span %g starts at %.3fus"
                        file fid producer s_ts span ts
              end
          | _ -> fail "%s: a flow event is missing its id or ts" file)
      | _ -> ())
    events;
  if !spans = 0 then fail "%s: no spans" file;
  if !meta = 0 then fail "%s: no metadata (M) events" file;
  if !flow_s <> !flow_f then fail "%s: %d flow starts vs %d finishes" file !flow_s !flow_f;
  Printf.printf "validate_obs: %s ok (%d spans, %d flow edges, %d metadata events)\n" file !spans
    !flow_s !meta

(* ---------------- prometheus exposition ---------------- *)

let family_of series =
  let base = match String.index_opt series '{' with Some i -> String.sub series 0 i | None -> series in
  let strip suffix s =
    let sl = String.length suffix and l = String.length s in
    if l > sl && String.sub s (l - sl) sl = suffix then Some (String.sub s 0 (l - sl)) else None
  in
  match strip "_bucket" base with
  | Some f -> f
  | None -> (
      match strip "_sum" base with
      | Some f -> f
      | None -> ( match strip "_count" base with Some f -> f | None -> base))

let validate_metrics file =
  let types = Hashtbl.create 16 in
  let samples = ref 0 in
  List.iter
    (fun line ->
      if line = "" then ()
      else if line.[0] = '#' then (
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: [ kind ] ->
            if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
              fail "%s: unknown kind %s for %s" file kind name;
            Hashtbl.replace types name ()
        | "#" :: "HELP" :: _ :: _ -> ()
        | _ -> fail "%s: malformed comment line: %s" file line)
      else
        match String.rindex_opt line ' ' with
        | None -> fail "%s: malformed sample line: %s" file line
        | Some i -> (
            let series = String.sub line 0 i in
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt v with
            | None -> fail "%s: unparsable value in: %s" file line
            | Some _ ->
                incr samples;
                if not (Hashtbl.mem types (family_of series)) then
                  fail "%s: series %s has no preceding # TYPE" file series))
    (String.split_on_char '\n' (read_file file));
  if !samples = 0 then fail "%s: no samples" file;
  Printf.printf "validate_obs: %s ok (%d samples, %d typed families)\n" file !samples
    (Hashtbl.length types)

let () =
  match Sys.argv with
  | [| _; "trace"; file |] -> validate_trace file
  | [| _; "metrics"; file |] -> validate_metrics file
  | _ ->
      prerr_endline "usage: validate_obs (trace|metrics) FILE";
      exit 2
