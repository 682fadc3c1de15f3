open Mgacc_sim

type attribution = { span : Trace.span; exposed : float; hidden : float; on_path : bool }

type t = {
  makespan : float;
  path : Trace.span list;
  path_seconds : float;
  spans : attribution list;
}

let analyze spans =
  let arr = Array.of_list spans in
  let n = Array.length arr in
  if n = 0 then { makespan = 0.; path = []; path_seconds = 0.; spans = [] }
  else begin
    let dur i = arr.(i).Trace.finish -. arr.(i).Trace.start in
    (* Predecessors: recorded causes plus the previous span on the same
       resource. Only edges pointing at strictly earlier list positions
       are kept, which makes the graph acyclic by construction. Span ids
       are small non-negative ints (a trace's are its indices), so a
       span's position is looked up by id in an array. *)
    let ids = Array.fold_left (fun m s -> max m (s.Trace.id + 1)) 0 arr in
    let idx_of = Array.make ids (-1) in
    let last_on = Hashtbl.create 8 in
    let preds = Array.make n [] in
    for i = 0 to n - 1 do
      let s = arr.(i) in
      let explicit =
        List.filter_map
          (fun c ->
            if c >= 0 && c < ids && idx_of.(c) >= 0 && idx_of.(c) < i then Some idx_of.(c) else None)
          s.Trace.causes
      in
      let implicit =
        match Hashtbl.find_opt last_on s.Trace.resource with Some j -> [ j ] | None -> []
      in
      preds.(i) <- explicit @ implicit;
      idx_of.(s.Trace.id) <- i;
      Hashtbl.replace last_on s.Trace.resource i
    done;
    (* Longest duration-weighted path ending at each span. *)
    let best = Array.make n 0. in
    let choice = Array.make n (-1) in
    for i = 0 to n - 1 do
      let chain = ref 0. and pick = ref (-1) in
      List.iter
        (fun j ->
          if best.(j) > !chain then begin
            chain := best.(j);
            pick := j
          end)
        preds.(i);
      best.(i) <- dur i +. !chain;
      choice.(i) <- !pick
    done;
    let endpoint = ref 0 in
    for i = 1 to n - 1 do
      let b = best.(i) and e = best.(!endpoint) in
      if b > e || (b = e && arr.(i).Trace.finish > arr.(!endpoint).Trace.finish) then endpoint := i
    done;
    let rec walk acc i = if i < 0 then acc else walk (arr.(i) :: acc) choice.(i) in
    let path = walk [] !endpoint in
    (* Exposed/hidden split: sweep spans in start order with a coverage
       horizon; the part of each span past the horizon is exposed, the
       remainder ran under cover of earlier spans. *)
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = compare arr.(a).Trace.start arr.(b).Trace.start in
        if c <> 0 then c else compare a b)
      order;
    let exposed = Array.make n 0. in
    let horizon = ref 0. in
    Array.iter
      (fun i ->
        let s = arr.(i) in
        let e = Float.max 0. (s.Trace.finish -. Float.max !horizon s.Trace.start) in
        exposed.(i) <- e;
        if s.Trace.finish > !horizon then horizon := s.Trace.finish)
      order;
    let makespan = List.fold_left (fun acc s -> Float.max acc s.Trace.finish) 0. spans in
    let on_path = Array.make n false in
    let rec mark i = if i >= 0 then begin on_path.(i) <- true; mark choice.(i) end in
    mark !endpoint;
    let attrs =
      List.mapi
        (fun i s ->
          let e = exposed.(i) in
          { span = s; exposed = e; hidden = dur i -. e; on_path = on_path.(i) })
        spans
    in
    { makespan; path; path_seconds = best.(!endpoint); spans = attrs }
  end
