open Mgacc_sim
module Int_buf = Mgacc_util.Int_buf

type category = Kernel | Cpu_gpu | Gpu_gpu | Overhead

let category_label = function
  | Kernel -> "KERNELS"
  | Cpu_gpu -> "CPU-GPU"
  | Gpu_gpu -> "GPU-GPU"
  | Overhead -> "OVERHEAD"

(* One charge: its seconds, and the span ids it covered as the slice
   [ids.(e_from) .. ids.(e_upto - 1)] of the ledger's buffer. *)
type epoch = {
  e_category : category;
  e_label : string;
  e_exposed : float;
  e_hidden : float;
  e_from : int;
  e_upto : int;
}

type t = { mutable eps : epoch list; (* reversed *) ids : Int_buf.t }

let create () = { eps = []; ids = Int_buf.create () }

let charge t ?spans cat ~label ~exposed ~hidden =
  let e_from = Int_buf.length t.ids in
  (match spans with Some (buf, from) -> Int_buf.append t.ids buf ~from | None -> ());
  t.eps <-
    {
      e_category = cat;
      e_label = label;
      e_exposed = exposed;
      e_hidden = hidden;
      e_from;
      e_upto = Int_buf.length t.ids;
    }
    :: t.eps

let epochs t = List.rev t.eps

type totals = { t_categories : (category * float * float) list; t_hidden : float }

let categories = [ Kernel; Cpu_gpu; Gpu_gpu; Overhead ]
let index = function Kernel -> 0 | Cpu_gpu -> 1 | Gpu_gpu -> 2 | Overhead -> 3

(* Running sums in charge order: the one definition of the run's
   category seconds, so every reader sees the same floats. *)
let totals t =
  let exposed = Array.make 4 0. and hidden = Array.make 4 0. and off_path = ref 0. in
  List.iter
    (fun ep ->
      let i = index ep.e_category in
      exposed.(i) <- exposed.(i) +. ep.e_exposed;
      hidden.(i) <- hidden.(i) +. ep.e_hidden;
      if ep.e_hidden > 0. then off_path := !off_path +. ep.e_hidden)
    (epochs t);
  {
    t_categories = List.map (fun c -> (c, exposed.(index c), hidden.(index c))) categories;
    t_hidden = !off_path;
  }

type row = { r_category : category; r_label : string; r_exposed : float; r_hidden : float; r_spans : int }

type summary = {
  s_makespan : float;
  s_categories : (category * float * float) list;
  s_rows : row list;
  s_path : Trace.span list;
  s_path_seconds : float;
}

let normalize_label label =
  match String.index_opt label ':' with
  | None -> label
  | Some i -> (
      match String.index_from_opt label (i + 1) ':' with
      | None -> label
      | Some j -> String.sub label 0 j)

let summarize t ~trace =
  let eps = epochs t in
  let all = Trace.spans trace in
  (* A span's id is its index in the trace. *)
  let by_id = Array.of_list all in
  let covered ep =
    let spans = ref [] in
    for k = ep.e_upto - 1 downto ep.e_from do
      let id = Int_buf.get t.ids k in
      if id >= 0 && id < Array.length by_id then spans := by_id.(id) :: !spans
    done;
    !spans
  in
  (* Per-(category, label) rows: split each epoch across its spans by
     duration share, or blame the epoch label itself when it covered no
     spans (pure wait / gap time). *)
  let rows = Hashtbl.create 32 in
  let bump cat label exposed hidden count =
    let key = (cat, label) in
    let e, h, c = try Hashtbl.find rows key with Not_found -> (0., 0., 0) in
    Hashtbl.replace rows key (e +. exposed, h +. hidden, c + count)
  in
  List.iter
    (fun ep ->
      match covered ep with
      | [] -> bump ep.e_category (normalize_label ep.e_label) ep.e_exposed ep.e_hidden 0
      | spans ->
          let dur s = s.Trace.finish -. s.Trace.start in
          let total = List.fold_left (fun acc s -> acc +. dur s) 0. spans in
          let n = float_of_int (List.length spans) in
          List.iter
            (fun s ->
              let share = if total > 0. then dur s /. total else 1. /. n in
              bump ep.e_category (normalize_label s.Trace.label) (ep.e_exposed *. share)
                (ep.e_hidden *. share) 1)
            spans)
    eps;
  let s_rows =
    Hashtbl.fold
      (fun (cat, label) (e, h, c) acc ->
        { r_category = cat; r_label = label; r_exposed = e; r_hidden = h; r_spans = c } :: acc)
      rows []
    |> List.sort (fun a b ->
           let c = compare b.r_exposed a.r_exposed in
           if c <> 0 then c
           else
             let c = compare b.r_hidden a.r_hidden in
             if c <> 0 then c else compare (a.r_category, a.r_label) (b.r_category, b.r_label))
  in
  let cp = Critical_path.analyze all in
  {
    s_makespan = cp.Critical_path.makespan;
    s_categories = (totals t).t_categories;
    s_rows;
    s_path = cp.Critical_path.path;
    s_path_seconds = cp.Critical_path.path_seconds;
  }

let pp ?(top = 10) ppf s =
  Format.fprintf ppf "@[<v>critical-path blame (makespan %.9fs, longest path %.9fs over %d spans)"
    s.s_makespan s.s_path_seconds (List.length s.s_path);
  Format.fprintf ppf "@,  %-10s %14s %14s" "category" "exposed" "hidden";
  List.iter
    (fun (cat, e, h) ->
      Format.fprintf ppf "@,  %-10s %13.9fs %13.9fs" (category_label cat) e h)
    s.s_categories;
  Format.fprintf ppf "@,  top blame rows:";
  List.iteri
    (fun i r ->
      if i < top then
        Format.fprintf ppf "@,  %2d. %-10s %-24s exposed %.9fs hidden %.9fs (%d spans)" (i + 1)
          (category_label r.r_category) r.r_label r.r_exposed r.r_hidden r.r_spans)
    s.s_rows;
  Format.fprintf ppf "@]"

let to_json s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "{\"makespan\":%.9g,\"path_seconds\":%.9g" s.s_makespan s.s_path_seconds);
  Buffer.add_string buf ",\"path\":[";
  Buffer.add_string buf
    (String.concat "," (List.map (fun sp -> string_of_int sp.Trace.id) s.s_path));
  Buffer.add_string buf "],\"categories\":{";
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (cat, e, h) ->
            Printf.sprintf "\"%s\":{\"exposed\":%.9g,\"hidden\":%.9g}"
              (Mgacc_util.Json.escape (category_label cat))
              e h)
          s.s_categories));
  Buffer.add_string buf "},\"rows\":[";
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun r ->
            Printf.sprintf
              "{\"category\":\"%s\",\"label\":\"%s\",\"exposed\":%.9g,\"hidden\":%.9g,\"spans\":%d}"
              (Mgacc_util.Json.escape (category_label r.r_category))
              (Mgacc_util.Json.escape r.r_label) r.r_exposed r.r_hidden r.r_spans)
          s.s_rows));
  Buffer.add_string buf "]}";
  Buffer.contents buf
