type hist = {
  buckets : float array; (* strictly increasing finite upper bounds *)
  counts : int array; (* length buckets + 1; last is the +Inf overflow *)
  mutable h_sum : float;
  mutable h_total : int;
}

type cell = Counter of float ref | Gauge of float ref | Histogram of hist

type series = {
  s_name : string;
  s_labels : (string * string) list;
  s_help : string option;
  s_cell : cell;
}

type ev = { ev_time : float; ev_name : string; ev_fields : (string * float) list }

type t = {
  mutable series : series list; (* reversed registration order *)
  index : (string * (string * string) list, series) Hashtbl.t;
  mutable events : ev list; (* reversed insertion order *)
}

type counter = float ref
type gauge = float ref
type histogram = hist

let create () = { series = []; index = Hashtbl.create 32; events = [] }

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let kind_of_cell = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register t ?help ?(labels = []) name mk =
  if not (valid_name name) then invalid_arg (Printf.sprintf "Metrics: bad metric name %S" name);
  let key = (name, labels) in
  match Hashtbl.find_opt t.index key with
  | Some s -> s.s_cell
  | None ->
      let cell = mk () in
      (* One family, one kind: a name registered as a counter cannot come
         back as a gauge under different labels. *)
      List.iter
        (fun s ->
          if String.equal s.s_name name && not (String.equal (kind_of_cell s.s_cell) (kind_of_cell cell))
          then
            invalid_arg
              (Printf.sprintf "Metrics: %s already registered as a %s" name (kind_of_cell s.s_cell)))
        t.series;
      let s = { s_name = name; s_labels = labels; s_help = help; s_cell = cell } in
      Hashtbl.replace t.index key s;
      t.series <- s :: t.series;
      cell

let counter t ?help ?labels name =
  match register t ?help ?labels name (fun () -> Counter (ref 0.)) with
  | Counter r -> r
  | c -> invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a counter" name (kind_of_cell c))

let inc c v =
  if v < 0. then invalid_arg "Metrics.inc: negative increment";
  c := !c +. v

let gauge t ?help ?labels name =
  match register t ?help ?labels name (fun () -> Gauge (ref 0.)) with
  | Gauge r -> r
  | c -> invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a gauge" name (kind_of_cell c))

let set g v = g := v

(* Exponential seconds-scale buckets, 1e-6 .. 100. *)
let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 100.0 |]

let histogram t ?help ?labels ?(buckets = default_buckets) name =
  let mk () =
    let n = Array.length buckets in
    if n = 0 then invalid_arg "Metrics.histogram: empty bucket list";
    for i = 1 to n - 1 do
      if buckets.(i) <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must be strictly increasing"
    done;
    Histogram { buckets = Array.copy buckets; counts = Array.make (n + 1) 0; h_sum = 0.; h_total = 0 }
  in
  match register t ?help ?labels name mk with
  | Histogram h -> h
  | c -> invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a histogram" name (kind_of_cell c))

let observe h v =
  let n = Array.length h.buckets in
  let i = ref 0 in
  while !i < n && v > h.buckets.(!i) do
    incr i
  done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_total <- h.h_total + 1

let event t ~time ?(fields = []) name =
  t.events <- { ev_time = time; ev_name = name; ev_fields = fields } :: t.events

(* --- export ------------------------------------------------------------ *)

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      let body =
        String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
      in
      "{" ^ body ^ "}"

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_prometheus t =
  let series = List.rev t.series in
  let buf = Buffer.create 1024 in
  let seen_family = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen_family s.s_name) then begin
        Hashtbl.replace seen_family s.s_name ();
        (match s.s_help with
        | Some h -> Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" s.s_name h)
        | None -> ());
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.s_name (kind_of_cell s.s_cell));
        (* Keep each family's series contiguous, in registration order. *)
        List.iter
          (fun s' ->
            if String.equal s'.s_name s.s_name then
              match s'.s_cell with
              | Counter r | Gauge r ->
                  Buffer.add_string buf
                    (Printf.sprintf "%s%s %s\n" s'.s_name (render_labels s'.s_labels) (float_repr !r))
              | Histogram h ->
                  let n = Array.length h.buckets in
                  let cum = ref 0 in
                  for i = 0 to n - 1 do
                    cum := !cum + h.counts.(i);
                    let labels = s'.s_labels @ [ ("le", float_repr h.buckets.(i)) ] in
                    Buffer.add_string buf
                      (Printf.sprintf "%s_bucket%s %d\n" s'.s_name (render_labels labels) !cum)
                  done;
                  let labels = s'.s_labels @ [ ("le", "+Inf") ] in
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" s'.s_name (render_labels labels) h.h_total);
                  Buffer.add_string buf
                    (Printf.sprintf "%s_sum%s %s\n" s'.s_name (render_labels s'.s_labels)
                       (float_repr h.h_sum));
                  Buffer.add_string buf
                    (Printf.sprintf "%s_count%s %d\n" s'.s_name (render_labels s'.s_labels) h.h_total))
          series
      end)
    series;
  Buffer.contents buf

let events_to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun ev ->
      Buffer.add_string buf
        (Printf.sprintf "{\"t\":%.9g,\"event\":\"%s\"" ev.ev_time
           (Mgacc_util.Json.escape ev.ev_name));
      if ev.ev_fields <> [] then begin
        Buffer.add_string buf ",\"fields\":{";
        Buffer.add_string buf
          (String.concat ","
             (List.map
                (fun (k, v) -> Printf.sprintf "\"%s\":%.9g" (Mgacc_util.Json.escape k) v)
                ev.ev_fields));
        Buffer.add_char buf '}'
      end;
      Buffer.add_string buf "}\n")
    (List.rev t.events);
  Buffer.contents buf
