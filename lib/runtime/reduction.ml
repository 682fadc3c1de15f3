open Mgacc_minic
module Memory = Mgacc_gpusim.Memory
module Machine = Mgacc_gpusim.Machine
module Device = Mgacc_gpusim.Device
module Fabric = Mgacc_gpusim.Fabric
module Cost = Mgacc_gpusim.Cost
module View = Mgacc_exec.View

type partial = Pf of float array | Pi of int array

type t = {
  name : string;
  op : Ast.redop;
  elem : Ast.elem_ty;
  length : int;
  partials : partial array;  (* per GPU *)
  bufs : Memory.buf array;  (* accounted system storage *)
  mutable touched : bool array;  (* GPU contributed at least once *)
}

let allocate (cfg : Rt_config.t) (da : Darray.t) op =
  ignore (Darray.replica_of da);
  let g_count = cfg.Rt_config.num_gpus in
  let elem = da.Darray.elem and length = da.Darray.length in
  let mem g = (Machine.device cfg.Rt_config.machine g).Device.memory in
  let partials =
    Array.init g_count (fun _ ->
        match elem with
        | Ast.Edouble -> Pf (Array.make length (View.redop_identity_f op))
        | Ast.Eint -> Pi (Array.make length (View.redop_identity_i op)))
  in
  let bufs =
    Array.init g_count (fun g ->
        Memory.alloc_raw (mem g) `System (length * Ast.elem_ty_size elem))
  in
  {
    name = da.Darray.name;
    op;
    elem;
    length;
    partials;
    bufs;
    touched = Array.make g_count false;
  }

let op t = t.op

(* [touched] is one array for every GPU, and GPUs run at the same time:
   a GPU writes its flag once, so later updates leave the line shared. *)
let touch t ~gpu = if not (Array.unsafe_get t.touched gpu) then t.touched.(gpu) <- true

(* The operator is applied here, not through [View.apply_redop_f], so the
   contribution stays unboxed on the kernel path. The caller (the
   reduction view) has range-checked [i]. *)
let reduce_f t ~gpu i bank s =
  match t.partials.(gpu) with
  | Pf a ->
      let old = Array.unsafe_get a i and v = bank.(s) in
      Array.unsafe_set a i
        (match t.op with
        | Ast.Rplus -> old +. v
        | Ast.Rmul -> old *. v
        | Ast.Rmax -> Float.max old v
        | Ast.Rmin -> Float.min old v);
      touch t ~gpu
  | Pi _ -> invalid_arg "Reduction.reduce_f: int reduction array"

let reduce_i t ~gpu i v =
  match t.partials.(gpu) with
  | Pi a ->
      Array.unsafe_set a i (View.apply_redop_i t.op (Array.unsafe_get a i) v);
      touch t ~gpu
  | Pf _ -> invalid_arg "Reduction.reduce_i: double reduction array"

let partial_f t ~gpu =
  match t.partials.(gpu) with Pf a -> a | Pi _ -> invalid_arg "Reduction.partial_f: int reduction array"

type xfer_role = Gather | Bcast

type merge_result = {
  xfers : (Darray.xfer * xfer_role * int) list;
  combine_cost : Cost.t;
  deferred_bytes : int;
}

(* Gather the partials and fold them into replica 0, then publish the
   result to the peers. Replica 0 must be fully valid here (the data
   loader guarantees it before the reduction kernel launches, and eager
   replicas are always fully valid). [`Star] is the paper's eager
   broadcast: GPU 0 sends the result to every peer in round 0. [`Tree]
   ships it down a binomial tree whose per-edge ops carry their round, so
   the overlap DAG can start round [r+1] edges as soon as their source
   received round [r]. [`Defer] (the lookahead proved no kernel reads the
   array) marks the peers stale and elides the broadcast; a later
   [update host]/copyout pulls from replica 0 for free. *)
let merge (cfg : Rt_config.t) t (da : Darray.t) ~ship =
  let r = Darray.replica_of da in
  let g_count = cfg.Rt_config.num_gpus in
  let width = Ast.elem_ty_size t.elem in
  let bytes = t.length * width in
  (match t.elem with
  | Ast.Edouble ->
      let idf = View.redop_identity_f t.op in
      let d = Memory.float_data r.Darray.bufs.(0) in
      Array.iter
        (function
          | Pf p ->
              for i = 0 to t.length - 1 do
                if p.(i) <> idf then d.(i) <- View.apply_redop_f t.op d.(i) p.(i)
              done
          | Pi _ -> assert false)
        t.partials
  | Ast.Eint ->
      let idi = View.redop_identity_i t.op in
      let d = Memory.int_data r.Darray.bufs.(0) in
      Array.iter
        (function
          | Pi p ->
              for i = 0 to t.length - 1 do
                if p.(i) <> idi then d.(i) <- View.apply_redop_i t.op d.(i) p.(i)
              done
          | Pf _ -> assert false)
        t.partials);
  let xfers = ref [] in
  let xfer role ~src ~dst round =
    let tag = t.name ^ match role with Gather -> ":red-gather" | Bcast -> ":red-bcast" in
    xfers := ({ Darray.dir = Fabric.P2p (src, dst); bytes; tag }, role, round) :: !xfers
  in
  for g = 1 to g_count - 1 do
    if t.touched.(g) then xfer Gather ~src:g ~dst:0 0
  done;
  let full = Darray.full_set da in
  let deferred = ref 0 in
  r.Darray.valid.(0) <- full;
  (match ship with
  | `Defer ->
      for g = 1 to g_count - 1 do
        r.Darray.valid.(g) <- Mgacc_util.Interval.Set.empty;
        deferred := !deferred + bytes
      done
  | (`Star | `Tree) as shape -> (
      Darray.copy_replica_runs da r ~src:0 ~dsts:(List.init (g_count - 1) succ) full;
      for g = 1 to g_count - 1 do
        r.Darray.valid.(g) <- full
      done;
      match shape with
      | `Star ->
          for g = 1 to g_count - 1 do
            xfer Bcast ~src:0 ~dst:g 0
          done
      | `Tree ->
          (* In round [r] every GPU < 2^r, which holds the result,
             forwards it to its partner 2^r away. *)
          let round = ref 0 and span = ref 1 in
          while !span < g_count do
            for src = 0 to !span - 1 do
              if src + !span < g_count then xfer Bcast ~src ~dst:(src + !span) !round
            done;
            span := 2 * !span;
            incr round
          done));
  (* Merge kernel on GPU 0: one combine + one load/store pair per element
     per contributing partial. *)
  let contributors = Array.fold_left (fun n x -> if x then n + 1 else n) 1 t.touched in
  let combine_cost = Cost.zero () in
  combine_cost.Cost.flops <- t.length * contributors;
  combine_cost.Cost.coalesced_bytes <- t.length * width * (contributors + 1);
  let mem g = (Machine.device cfg.Rt_config.machine g).Device.memory in
  Array.iteri (fun g buf -> Memory.free (mem g) buf) t.bufs;
  Darray.mark_device_written da;
  { xfers = List.rev !xfers; combine_cost; deferred_bytes = !deferred }
