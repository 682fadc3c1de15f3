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

let array_name t = t.name
let op t = t.op

(* The operator is applied here, not through [View.apply_redop_f], so the
   contribution stays unboxed on the kernel path. *)
let reduce_f t ~gpu i bank s =
  match t.partials.(gpu) with
  | Pf a ->
      let old = a.(i) and v = bank.(s) in
      a.(i) <-
        (match t.op with
        | Ast.Rplus -> old +. v
        | Ast.Rmul -> old *. v
        | Ast.Rmax -> Float.max old v
        | Ast.Rmin -> Float.min old v);
      t.touched.(gpu) <- true
  | Pi _ -> invalid_arg "Reduction.reduce_f: int reduction array"

let reduce_i t ~gpu i v =
  match t.partials.(gpu) with
  | Pi a ->
      a.(i) <- View.apply_redop_i t.op a.(i) v;
      t.touched.(gpu) <- true
  | Pf _ -> invalid_arg "Reduction.reduce_i: double reduction array"

type xfer_role = Gather | Bcast

type merge_result = { xfers : (Darray.xfer * xfer_role) list; combine_cost : Cost.t }

type lazy_merge_result = {
  rounds : (Darray.xfer * xfer_role * int) list;
  lazy_combine_cost : Cost.t;
  deferred_bytes : int;
}

let merge (cfg : Rt_config.t) t (da : Darray.t) =
  let r = Darray.replica_of da in
  let g_count = cfg.Rt_config.num_gpus in
  let width = Ast.elem_ty_size t.elem in
  let bytes = t.length * width in
  (* Functional fold into every replica copy (they stay consistent). *)
  (match t.elem with
  | Ast.Edouble ->
      let idf = View.redop_identity_f t.op in
      Array.iter
        (fun buf ->
          let d = Memory.float_data buf in
          Array.iter
            (function
              | Pf p ->
                  for i = 0 to t.length - 1 do
                    if p.(i) <> idf then d.(i) <- View.apply_redop_f t.op d.(i) p.(i)
                  done
              | Pi _ -> assert false)
            t.partials)
        r.Darray.bufs
  | Ast.Eint ->
      let idi = View.redop_identity_i t.op in
      Array.iter
        (fun buf ->
          let d = Memory.int_data buf in
          Array.iter
            (function
              | Pi p ->
                  for i = 0 to t.length - 1 do
                    if p.(i) <> idi then d.(i) <- View.apply_redop_i t.op d.(i) p.(i)
                  done
              | Pf _ -> assert false)
            t.partials)
        r.Darray.bufs);
  (* Traffic: gather each contributing partial to GPU 0, broadcast result. *)
  let xfers = ref [] in
  for g = 1 to g_count - 1 do
    if t.touched.(g) then
      xfers :=
        ({ Darray.dir = Fabric.P2p (g, 0); bytes; tag = t.name ^ ":red-gather" }, Gather) :: !xfers
  done;
  for g = 1 to g_count - 1 do
    xfers := ({ Darray.dir = Fabric.P2p (0, g); bytes; tag = t.name ^ ":red-bcast" }, Bcast) :: !xfers
  done;
  (* Merge kernel on GPU 0: one combine + one load/store pair per element
     per contributing partial. *)
  let contributors = Array.fold_left (fun n x -> if x then n + 1 else n) 1 t.touched in
  let combine_cost = Cost.zero () in
  combine_cost.Cost.flops <- t.length * contributors;
  combine_cost.Cost.coalesced_bytes <- t.length * width * (contributors + 1);
  (* Release the partials. *)
  let mem g = (Machine.device cfg.Rt_config.machine g).Device.memory in
  Array.iteri (fun g buf -> Memory.free (mem g) buf) t.bufs;
  Darray.mark_device_written da;
  { xfers = List.rev !xfers; combine_cost }

(* Lazy-coherence merge: gather the partials and fold them into GPU 0's
   replica only. When the lookahead proves no kernel reads the array
   ([`Defer]), the peers are simply marked stale — the broadcast is
   elided entirely and a later [update host]/copyout pulls from replica
   0 for free (it is the flush source anyway). Otherwise the result
   ships down a binomial tree whose per-edge ops carry their round
   number, so the overlap DAG can start round [r+1] edges as soon as
   their source received round [r] instead of serializing a star from
   GPU 0. *)
let merge_lazy (cfg : Rt_config.t) t (da : Darray.t) ~ship =
  let r = Darray.replica_of da in
  let g_count = cfg.Rt_config.num_gpus in
  let width = Ast.elem_ty_size t.elem in
  let bytes = t.length * width in
  (* Fold into replica 0 only; replica 0 must be fully valid here (the
     data loader guarantees it before the reduction kernel launches). *)
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
  for g = 1 to g_count - 1 do
    if t.touched.(g) then
      xfers :=
        ({ Darray.dir = Fabric.P2p (g, 0); bytes; tag = t.name ^ ":red-gather" }, Gather, 0)
        :: !xfers
  done;
  let full = Darray.full_set da in
  let deferred = ref 0 in
  (match ship with
  | `Defer ->
      r.Darray.valid.(0) <- full;
      for g = 1 to g_count - 1 do
        r.Darray.valid.(g) <- Mgacc_util.Interval.Set.empty;
        deferred := !deferred + bytes
      done
  | `Tree ->
      (* Functional broadcast (copy replica 0 into every peer) plus the
         tree-edge transfer descriptors: in round [r] every GPU < 2^r
         that holds the result forwards it to its partner 2^r away. *)
      for g = 1 to g_count - 1 do
        Darray.copy_replica_seg da r ~src:0 ~dst:g (Mgacc_util.Interval.make 0 t.length);
        r.Darray.valid.(g) <- full
      done;
      r.Darray.valid.(0) <- full;
      let round = ref 0 in
      let span = ref 1 in
      while !span < g_count do
        for src = 0 to !span - 1 do
          let dst = src + !span in
          if dst < g_count then
            xfers :=
              ( { Darray.dir = Fabric.P2p (src, dst); bytes; tag = t.name ^ ":red-bcast" },
                Bcast,
                !round )
              :: !xfers
        done;
        span := 2 * !span;
        incr round
      done);
  let contributors = Array.fold_left (fun n x -> if x then n + 1 else n) 1 t.touched in
  let combine_cost = Cost.zero () in
  combine_cost.Cost.flops <- t.length * contributors;
  combine_cost.Cost.coalesced_bytes <- t.length * width * (contributors + 1);
  let mem g = (Machine.device cfg.Rt_config.machine g).Device.memory in
  Array.iteri (fun g buf -> Memory.free (mem g) buf) t.bufs;
  Darray.mark_device_written da;
  { rounds = List.rev !xfers; lazy_combine_cost = combine_cost; deferred_bytes = !deferred }
