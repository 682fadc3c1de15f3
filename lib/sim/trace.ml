module Int_buf = Mgacc_util.Int_buf

type category = Kernel | Host_to_device | Device_to_host | Peer | Host_compute | Overhead

let category_label = function
  | Kernel -> "KERNELS"
  | Host_to_device -> "CPU-GPU (H2D)"
  | Device_to_host -> "CPU-GPU (D2H)"
  | Peer -> "GPU-GPU"
  | Host_compute -> "HOST"
  | Overhead -> "OVERHEAD"

let categories = [| Kernel; Host_to_device; Device_to_host; Peer; Host_compute; Overhead |]

let category_index = function
  | Kernel -> 0
  | Host_to_device -> 1
  | Device_to_host -> 2
  | Peer -> 3
  | Host_compute -> 4
  | Overhead -> 5

type span = {
  id : int;
  causes : int list;
  resource : string;
  category : category;
  label : string;
  start : float;
  finish : float;
  bytes : int;
}

(* The spans as columns indexed by id, which is the insertion index:
   times unboxed in float chunks, names by pointer in string chunks, and
   the causes of every span in one flat buffer, span [i]'s being
   [causes.(cause_end.(i-1)) .. causes.(cause_end.(i) - 1)]. Causes
   pushed past [cause_end.(len-1)] belong to the next span recorded. A
   span's label is its label, or [label ^ ":" ^ tag] when it has a tag;
   it is built only when the span is read. Recording stores the caller's
   strings as they are: a transfer's resource name is the fabric's one
   string for its direction, so a span costs no string, no hashing and
   no allocation. Every column grows in chunks (as
   {!Mgacc_util.Int_buf} does), so a long trace allocates no large
   block. *)
type t = {
  mutable len : int;
  mutable times : Float.Array.t array;
      (* span [i]'s start at [2 * (i land mask)] of chunk [i lsr bits],
         its finish just after *)
  mutable names : string array array;
      (* span [i]'s resource, label and tag ([no_tag] without one) at
         [3 * (i land mask)] of chunk [i lsr bits] *)
  bytes : Int_buf.t;
  category : Int_buf.t;
  cause_end : Int_buf.t;
  causes : Int_buf.t;
}

let bits = 9
let mask = (1 lsl bits) - 1

(* Compared by pointer: a span recorded without a tag. *)
let no_tag = String.make 1 ':'

let create () =
  {
    len = 0;
    times = [||];
    names = [||];
    bytes = Int_buf.create ();
    category = Int_buf.create ();
    cause_end = Int_buf.create ();
    causes = Int_buf.create ();
  }

let[@inline] start_of t i = Float.Array.get t.times.(i lsr bits) (2 * (i land mask))
let[@inline] finish_of t i = Float.Array.get t.times.(i lsr bits) ((2 * (i land mask)) + 1)
let resource_of t i = t.names.(i lsr bits).(3 * (i land mask))

let label_of t i =
  let names = t.names.(i lsr bits) and at = 3 * (i land mask) in
  let label = names.(at + 1) and tag = names.(at + 2) in
  if tag == no_tag then label else label ^ ":" ^ tag

(* Room for span [id], the one after the last: chunk 0 doubles from 16
   spans up to a whole chunk, so a short trace stays small; later chunks
   come whole. *)
let grow t id =
  let k = id lsr bits in
  if k = Array.length t.times then begin
    let n = max 4 (2 * k) in
    let times = Array.make n (Float.Array.create 0) and names = Array.make n [||] in
    Array.blit t.times 0 times 0 k;
    Array.blit t.names 0 names 0 k;
    t.times <- times;
    t.names <- names
  end;
  let old = t.names.(k) in
  let spans = if k = 0 then max 16 (2 * (Array.length old / 3)) else 1 lsl bits in
  let times = Float.Array.make (2 * spans) 0.0 and names = Array.make (3 * spans) "" in
  Float.Array.blit t.times.(k) 0 times 0 (Float.Array.length t.times.(k));
  Array.blit old 0 names 0 (Array.length old);
  t.times.(k) <- times;
  t.names.(k) <- names

let cause t c = Int_buf.push t.causes c

let rec causes_into t = function
  | [] -> ()
  | c :: cs ->
      cause t c;
      causes_into t cs

let record t ?(causes = []) ?(tag = no_tag) ~resource ~category ~label ~start ~finish ~bytes () =
  if finish < start then invalid_arg "Trace.record: finish < start";
  causes_into t causes;
  let id = t.len in
  let k = id lsr bits and at = id land mask in
  if k >= Array.length t.names || 3 * at >= Array.length t.names.(k) then grow t id;
  let times = t.times.(k) and names = t.names.(k) in
  Float.Array.set times (2 * at) start;
  Float.Array.set times ((2 * at) + 1) finish;
  names.(3 * at) <- resource;
  names.((3 * at) + 1) <- label;
  names.((3 * at) + 2) <- tag;
  Int_buf.push t.bytes bytes;
  Int_buf.push t.category (category_index category);
  Int_buf.push t.cause_end (Int_buf.length t.causes);
  t.len <- id + 1;
  id

let clear t =
  t.len <- 0;
  List.iter (fun col -> Int_buf.truncate col 0) [ t.bytes; t.category; t.cause_end; t.causes ]

let causes_from t i = if i = 0 then 0 else Int_buf.get t.cause_end (i - 1)

let span t i =
  let causes = ref [] in
  for k = Int_buf.get t.cause_end i - 1 downto causes_from t i do
    causes := Int_buf.get t.causes k :: !causes
  done;
  {
    id = i;
    causes = !causes;
    resource = resource_of t i;
    category = categories.(Int_buf.get t.category i);
    label = label_of t i;
    start = start_of t i;
    finish = finish_of t i;
    bytes = Int_buf.get t.bytes i;
  }

let spans t = List.init t.len (span t)

let makespan t =
  let m = ref 0.0 in
  for i = 0 to t.len - 1 do
    m := Float.max !m (finish_of t i)
  done;
  !m

(* Each span's row, one row per resource in order of first appearance,
   and the resources in that order. *)
let rows t =
  let ids = Hashtbl.create 64 and row = Array.make t.len 0 and order = ref [] in
  for i = 0 to t.len - 1 do
    let r = resource_of t i in
    row.(i) <-
      (match Hashtbl.find_opt ids r with
      | Some id -> id
      | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids r id;
          order := r :: !order;
          id)
  done;
  (row, List.rev !order)

let to_chrome_json ?(process_name = "mgacc simulated machine") t =
  let row, order = rows t in
  let tid i = row.(i) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf s
  in
  for i = 0 to t.len - 1 do
    let lo = causes_from t i and hi = Int_buf.get t.cause_end i in
    let causes =
      if lo = hi then ""
      else
        Printf.sprintf ",\"causes\":[%s]"
          (String.concat ","
             (List.init (hi - lo) (fun k -> string_of_int (Int_buf.get t.causes (lo + k)))))
    in
    emit
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"bytes\":%d,\"span\":%d%s}}"
         (Mgacc_util.Json.escape (label_of t i))
         (Mgacc_util.Json.escape (category_label categories.(Int_buf.get t.category i)))
         (start_of t i *. 1e6)
         ((finish_of t i -. start_of t i) *. 1e6)
         (tid i) (Int_buf.get t.bytes i) i causes)
  done;
  (* Flow events: one s/f pair per recorded producer->consumer edge, bound
     to the producer's finish and the consumer's start so Perfetto renders
     the causal DAG as arrows between slices. Dangling cause ids (e.g. a
     producer elided as a zero-cost op) are skipped. *)
  let flow = ref 0 in
  for i = 0 to t.len - 1 do
    for k = causes_from t i to Int_buf.get t.cause_end i - 1 do
      let p = Int_buf.get t.causes k in
      if p >= 0 && p < t.len then begin
        let fid = !flow in
        incr flow;
        emit
          (Printf.sprintf
             "{\"name\":\"dep\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"span\":%d}}"
             fid
             (finish_of t p *. 1e6)
             (tid p) p);
        emit
          (Printf.sprintf
             "{\"name\":\"dep\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"span\":%d}}"
             fid
             (start_of t i *. 1e6)
             (tid i) i)
      end
    done
  done;
  emit
    (Printf.sprintf "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"%s\"}}"
       (Mgacc_util.Json.escape process_name));
  List.iteri
    (fun tid r ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           tid (Mgacc_util.Json.escape r));
      emit
        (Printf.sprintf
           "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
           tid tid))
    order;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let pp_gantt ?(width = 72) ppf t =
  if t.len = 0 then Format.fprintf ppf "(empty trace)@."
  else begin
    let horizon = makespan t in
    let horizon = if horizon <= 0.0 then 1.0 else horizon in
    let row, order = rows t in
    let glyph = [| 'K'; 'h'; 'd'; 'P'; 'C'; '.' |] in
    let lines = List.map (fun _ -> Bytes.make width ' ') order |> Array.of_list in
    for i = 0 to t.len - 1 do
      let line = lines.(row.(i)) in
      let a = int_of_float (start_of t i /. horizon *. float_of_int width) in
      let b = int_of_float (finish_of t i /. horizon *. float_of_int width) in
      let b = min (max b (a + 1)) width in
      for k = a to b - 1 do
        if k >= 0 && k < width then Bytes.set line k glyph.(Int_buf.get t.category i)
      done
    done;
    let name_w = List.fold_left (fun w r -> max w (String.length r)) 0 order in
    List.iteri
      (fun k r -> Format.fprintf ppf "%-*s |%s|@." name_w r (Bytes.to_string lines.(k)))
      order;
    Format.fprintf ppf "%-*s  0%*s%.6fs@." name_w "" (width - 1) "" horizon
  end
