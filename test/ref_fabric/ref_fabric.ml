(* The pre-incremental event loop of Mgacc_gpusim.Fabric. It rebuilds
   the water-filling state (fresh hashtables, full fixed point) on every
   event and min-scans the active set for the next completion. "fabric
   incremental allocator matches reference bit-for-bit"
   (test/test_props.ml) compares it with [Fabric.run] on the same batch;
   [bench sim] times both. Routes come from [Fabric.route_info] (so the
   hashtables are keyed by resource id), a flow drains where
   [Fabric.is_drained] says, and bad requests raise what [Fabric.run]
   raises: the two allocators share the model and differ only in how
   they keep their state. *)

module Fabric = Mgacc_gpusim.Fabric
module Bag = Bag

type request = { direction : Fabric.direction; bytes : int; ready : float; tag : string }

let batch_of reqs =
  let b = Fabric.batch () in
  List.iter (fun r -> Fabric.push b r.direction ~bytes:r.bytes ~ready:r.ready ~tag:r.tag) reqs;
  b

let finishes t reqs =
  let b = batch_of reqs in
  Fabric.run t b;
  List.init b.len (Float.Array.get b.finish)

(* One in-flight transfer of the fluid simulation. *)
type flow = {
  idx : int;
  rids : int array;  (* the route's resources, in route order *)
  caps : float array;  (* their capacities, index for index *)
  cap : float;
  arrive : float;  (* ready + latency: when bytes start flowing *)
  total : float;  (* original size; completion threshold is relative to it *)
  mutable remaining : float;
  mutable rate : float;
  mutable fixed : bool;
  mutable finish_time : float;
}

let make_flows t (b : Fabric.batch) finishes =
  let flows = ref [] in
  for idx = 0 to b.len - 1 do
    let bytes = b.bytes.(idx) and ready = Float.Array.get b.ready idx in
    if bytes < 0 then invalid_arg "Fabric.run: negative bytes";
    if bytes = 0 then finishes.(idx) <- Some ready
    else begin
      let r = Fabric.route_info t b.dirs.(idx) in
      flows :=
        {
          idx;
          rids = r.rids;
          caps = r.caps;
          cap = r.own;
          arrive = ready +. r.latency;
          total = float_of_int bytes;
          remaining = float_of_int bytes;
          rate = 0.0;
          fixed = false;
          finish_time = nan;
        }
        :: !flows
    end
  done;
  List.rev !flows

let drained ~now (f : flow) =
  Fabric.is_drained ~now ~rate:f.rate ~remaining:f.remaining ~total:f.total

let collect (b : Fabric.batch) finishes =
  Array.mapi
    (fun idx c ->
      match c with
      | Some finish -> finish
      | None ->
          invalid_arg
            (Printf.sprintf "Fabric.run: request %d (tag %S) never completed" idx b.tags.(idx)))
    finishes

(* Max-min fair allocation by water filling over the active flows. *)
let assign_rates_reference active =
  Bag.iter
    (fun f ->
      f.fixed <- false;
      f.rate <- 0.0)
    active;
  let remcap = Hashtbl.create 8 in
  let count = Hashtbl.create 8 in
  let touch r cap =
    if not (Hashtbl.mem remcap r) then Hashtbl.replace remcap r cap;
    Hashtbl.replace count r (1 + Option.value ~default:0 (Hashtbl.find_opt count r))
  in
  Bag.iter (fun f -> Array.iter2 touch f.rids f.caps) active;
  let unfixed = ref (Bag.length active) in
  while !unfixed > 0 do
    let bound f =
      Array.fold_left
        (fun acc r ->
          let share = Hashtbl.find remcap r /. float_of_int (Hashtbl.find count r) in
          Float.min acc share)
        f.cap f.rids
    in
    let lambda =
      Bag.fold (fun acc f -> if f.fixed then acc else Float.min acc (bound f)) infinity active
    in
    let eps = lambda *. 1e-9 in
    Bag.iter
      (fun f ->
        if (not f.fixed) && bound f <= lambda +. eps then begin
          f.fixed <- true;
          f.rate <- Float.max lambda 1.0 (* avoid zero rates from degenerate caps *);
          decr unfixed;
          Array.iter
            (fun r ->
              Hashtbl.replace remcap r (Float.max 0.0 (Hashtbl.find remcap r -. f.rate));
              Hashtbl.replace count r (Hashtbl.find count r - 1))
            f.rids
        end)
      active
  done

let run_reference t (b : Fabric.batch) =
  let finishes = Array.make b.len None in
  let flows = make_flows t b finishes in
  let pending = ref (List.sort (fun a b -> compare a.arrive b.arrive) flows) in
  let active = Bag.create () in
  let now = ref 0.0 in
  (match !pending with [] -> () | f :: _ -> now := f.arrive);
  while !pending <> [] || not (Bag.is_empty active) do
    (* Admit arrivals: [pending] is arrive-sorted, so the due flows form
       a prefix; push them in order (matching the old list append). *)
    let rec admit = function
      | f :: rest when f.arrive <= !now +. 1e-15 ->
          Bag.push active f;
          admit rest
      | rest -> rest
    in
    pending := admit !pending;
    if Bag.is_empty active then begin
      match !pending with
      | f :: _ -> now := f.arrive
      | [] -> ()
    end
    else begin
      assign_rates_reference active;
      (* Next event: earliest completion among active, or next arrival. *)
      let next_completion =
        Bag.fold (fun acc f -> Float.min acc (!now +. (f.remaining /. f.rate))) infinity active
      in
      let next_arrival = match !pending with [] -> infinity | f :: _ -> f.arrive in
      let t_next = Float.min next_completion next_arrival in
      let dt = t_next -. !now in
      Bag.iter (fun f -> f.remaining <- f.remaining -. (f.rate *. dt)) active;
      now := t_next;
      Bag.filter_in_place active
        ~keep:(fun f -> not (drained ~now:!now f))
        ~removed:(fun f ->
          f.finish_time <- !now;
          finishes.(f.idx) <- Some f.finish_time)
    end
  done;
  collect b finishes
