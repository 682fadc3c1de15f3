(* The list-based span trace that Mgacc_sim.Trace's columns replaced,
   kept as the oracle of "trace: columns equal the list reference"
   (test/test_props.ml): a span is a record consed onto a list, its id
   the count so far, its label built when recorded. The API is
   Trace's, and every output is written as the list version wrote it. *)

module Trace = Mgacc_sim.Trace

type t = { mutable spans : Trace.span list; mutable count : int; mutable pending : int list }

let create () = { spans = []; count = 0; pending = [] }
let cause t c = t.pending <- c :: t.pending

let record t ?(causes = []) ?tag ~resource ~category ~label ~start ~finish ~bytes () =
  if finish < start then invalid_arg "Trace.record: finish < start";
  let id = t.count in
  let label = match tag with Some tag -> label ^ ":" ^ tag | None -> label in
  let causes = List.rev_append t.pending causes in
  t.spans <- { Trace.id; causes; resource; category; label; start; finish; bytes } :: t.spans;
  t.count <- t.count + 1;
  t.pending <- [];
  id

let spans t = List.rev t.spans

let clear t =
  t.spans <- [];
  t.count <- 0;
  t.pending <- []

let makespan t = List.fold_left (fun acc s -> Float.max acc s.Trace.finish) 0.0 t.spans

(* The category names a Chrome trace prints, as the list version wrote
   them. *)
let category_label = function
  | Trace.Kernel -> "KERNELS"
  | Host_to_device -> "CPU-GPU (H2D)"
  | Device_to_host -> "CPU-GPU (D2H)"
  | Peer -> "GPU-GPU"
  | Host_compute -> "HOST"
  | Overhead -> "OVERHEAD"

let to_chrome_json ?(process_name = "mgacc simulated machine") t =
  let spans = spans t in
  let tids = Hashtbl.create 8 in
  let order = ref [] in
  let next = ref 0 in
  let tid_of resource =
    match Hashtbl.find_opt tids resource with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        Hashtbl.replace tids resource id;
        order := resource :: !order;
        id
  in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Trace.id s) spans;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf s
  in
  List.iter
    (fun (s : Trace.span) ->
      let tid = tid_of s.resource in
      let causes =
        match s.causes with
        | [] -> ""
        | cs -> Printf.sprintf ",\"causes\":[%s]" (String.concat "," (List.map string_of_int cs))
      in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"bytes\":%d,\"span\":%d%s}}"
           (Mgacc_util.Json.escape s.label)
           (Mgacc_util.Json.escape (category_label s.category))
           (s.start *. 1e6)
           ((s.finish -. s.start) *. 1e6)
           tid s.bytes s.id causes))
    spans;
  let flow = ref 0 in
  List.iter
    (fun (s : Trace.span) ->
      List.iter
        (fun c ->
          match Hashtbl.find_opt by_id c with
          | None -> ()
          | Some (p : Trace.span) ->
              let fid = !flow in
              incr flow;
              emit
                (Printf.sprintf
                   "{\"name\":\"dep\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"span\":%d}}"
                   fid (p.finish *. 1e6) (tid_of p.resource) p.id);
              emit
                (Printf.sprintf
                   "{\"name\":\"dep\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"span\":%d}}"
                   fid (s.start *. 1e6) (tid_of s.resource) s.id))
        s.causes)
    spans;
  emit
    (Printf.sprintf "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"%s\"}}"
       (Mgacc_util.Json.escape process_name));
  List.iter
    (fun resource ->
      let tid = Hashtbl.find tids resource in
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           tid (Mgacc_util.Json.escape resource));
      emit
        (Printf.sprintf
           "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
           tid tid))
    (List.rev !order);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let pp_gantt ?(width = 72) ppf t =
  let spans = spans t in
  if spans = [] then Format.fprintf ppf "(empty trace)@."
  else begin
    let horizon = makespan t in
    let horizon = if horizon <= 0.0 then 1.0 else horizon in
    let resources =
      List.fold_left
        (fun acc (s : Trace.span) -> if List.mem s.resource acc then acc else s.resource :: acc)
        [] spans
      |> List.rev
    in
    let glyph = function
      | Trace.Kernel -> 'K'
      | Trace.Host_to_device -> 'h'
      | Trace.Device_to_host -> 'd'
      | Trace.Peer -> 'P'
      | Trace.Host_compute -> 'C'
      | Trace.Overhead -> '.'
    in
    let name_w = List.fold_left (fun w r -> max w (String.length r)) 0 resources in
    List.iter
      (fun r ->
        let line = Bytes.make width ' ' in
        List.iter
          (fun (s : Trace.span) ->
            if s.resource = r then begin
              let a = int_of_float (s.start /. horizon *. float_of_int width) in
              let b = int_of_float (s.finish /. horizon *. float_of_int width) in
              let b = min (max b (a + 1)) width in
              for i = a to b - 1 do
                if i >= 0 && i < width then Bytes.set line i (glyph s.category)
              done
            end)
          spans;
        Format.fprintf ppf "%-*s |%s|@." name_w r (Bytes.to_string line))
      resources;
    Format.fprintf ppf "%-*s  0%*s%.6fs@." name_w "" (width - 1) "" horizon
  end
