open Mgacc_minic
module Interval = Mgacc_util.Interval
module Memory = Mgacc_gpusim.Memory
module Fabric = Mgacc_gpusim.Fabric
module Machine = Mgacc_gpusim.Machine
module Device = Mgacc_gpusim.Device
module View = Mgacc_exec.View

let log_src = Logs.Src.create "mgacc.darray" ~doc:"device-array placement"

module Log = (val Logs.src_log log_src : Logs.LOG)

type xfer = { dir : Fabric.direction; bytes : int; tag : string }

type tile = {
  trows : Interval.t;
  tcols : Interval.t;
  trow_win : Interval.t;
  tcol_win : Interval.t;
}

type part = {
  window : Interval.t;
  own : Interval.t;
  tile : tile option;
  buf : Memory.buf;
  miss : Miss_buffer.t;
}

type tile_spec = {
  pr : int;
  pc : int;
  row_left : int;
  row_right : int;
  col_left : int;
  col_right : int;
}

type dist_spec = { stride : int; left : int; right : int; tile : tile_spec option }

type dist = { parts : part array; spec : dist_spec; ranges : Task_map.range array }

type replica = {
  bufs : Memory.buf array;
  mutable dirty : Dirty.t option array;
  valid : Interval.Set.t array;
}

type state = Unallocated | Replicated of replica | Distributed of dist

type t = {
  name : string;
  elem : Ast.elem_ty;
  length : int;
  host : View.t;
  mutable state : state;
  mutable device_fresh : bool;
  mutable region_depth : int;
  mutable needs_copyout : bool;
  mutable written_since_halo_sync : bool;
}

let create (_cfg : Rt_config.t) ~name ~(host : View.t) =
  {
    name;
    elem = host.View.elem;
    length = host.View.length;
    host;
    state = Unallocated;
    device_fresh = false;
    region_depth = 0;
    needs_copyout = false;
    written_since_halo_sync = false;
  }

let elem_bytes t = Ast.elem_ty_size t.elem

let state_name t =
  match t.state with
  | Unallocated -> "unallocated"
  | Replicated _ -> "replicated"
  | Distributed _ -> "distributed"

let mem_of cfg g = (Machine.device cfg.Rt_config.machine g).Device.memory

(* ---------------- functional copies host <-> device ---------------- *)

(* Host-to-device loads copy host elements [lo, hi) to [d.(i - off)].
   Inside the host view's read window they read its backing array in
   place: a blit for doubles, a typed loop for ints (an int blit into a
   major-heap array would run the write barrier per element). Outside it
   they call the accessors, so a bad index raises what it always did,
   after the same elements have been copied. *)
let load_doubles (v : View.t) d ~off ~lo ~hi =
  let wlo = min hi (max lo v.View.lo) in
  let whi = max wlo (min hi v.View.hi) in
  for i = lo to wlo - 1 do
    v.View.load_f i d (i - off)
  done;
  if whi > wlo then Array.blit v.View.fdata (wlo - v.View.lo) d (wlo - off) (whi - wlo);
  for i = whi to hi - 1 do
    v.View.load_f i d (i - off)
  done

let load_ints (v : View.t) (d : int array) ~off ~lo ~hi =
  let wlo = min hi (max lo v.View.lo) in
  let whi = max wlo (min hi v.View.hi) in
  for i = lo to wlo - 1 do
    d.(i - off) <- v.View.get_i i
  done;
  let src = v.View.idata in
  for i = wlo to whi - 1 do
    d.(i - off) <- src.(i - v.View.lo)
  done;
  for i = whi to hi - 1 do
    d.(i - off) <- v.View.get_i i
  done

let copy_host_to_buf t buf ~win_lo (iv : Interval.t) =
  if not (Interval.is_empty iv) then
    match t.elem with
    | Ast.Edouble ->
        load_doubles t.host (Memory.float_data buf) ~off:win_lo ~lo:iv.Interval.lo
          ~hi:iv.Interval.hi
    | Ast.Eint ->
        load_ints t.host (Memory.int_data buf) ~off:win_lo ~lo:iv.Interval.lo ~hi:iv.Interval.hi

(* Flushes write through the accessors: a view's window promises reads
   only (view.mli). *)
let copy_buf_to_host t buf ~win_lo (iv : Interval.t) =
  if not (Interval.is_empty iv) then
    match t.elem with
    | Ast.Edouble ->
        let d = Memory.float_data buf in
        for i = iv.Interval.lo to iv.Interval.hi - 1 do
          t.host.View.store_f i d (i - win_lo)
        done
    | Ast.Eint ->
        let d = Memory.int_data buf in
        for i = iv.Interval.lo to iv.Interval.hi - 1 do
          t.host.View.set_i i d.(i - win_lo)
        done

(* Box copies between the host view and a tiled part's packed buffer.
   [rows]/[cols] are absolute row/column intervals inside the tile's
   resident window. *)
let copy_host_to_tile t buf ~stride tl ~(rows : Interval.t) ~(cols : Interval.t) =
  if not (Interval.is_empty rows || Interval.is_empty cols) then
    let w = Interval.length tl.tcol_win in
    match t.elem with
    | Ast.Edouble ->
        let d = Memory.float_data buf in
        for r = rows.Interval.lo to rows.Interval.hi - 1 do
          let base = ((r - tl.trow_win.Interval.lo) * w) - tl.tcol_win.Interval.lo in
          load_doubles t.host d ~off:((r * stride) - base)
            ~lo:((r * stride) + cols.Interval.lo)
            ~hi:((r * stride) + cols.Interval.hi)
        done
    | Ast.Eint ->
        let d = Memory.int_data buf in
        for r = rows.Interval.lo to rows.Interval.hi - 1 do
          let base = ((r - tl.trow_win.Interval.lo) * w) - tl.tcol_win.Interval.lo in
          load_ints t.host d ~off:((r * stride) - base)
            ~lo:((r * stride) + cols.Interval.lo)
            ~hi:((r * stride) + cols.Interval.hi)
        done

let copy_tile_to_host t buf ~stride tl ~(rows : Interval.t) ~(cols : Interval.t) =
  if not (Interval.is_empty rows || Interval.is_empty cols) then
    let w = Interval.length tl.tcol_win in
    match t.elem with
    | Ast.Edouble ->
        let d = Memory.float_data buf in
        for r = rows.Interval.lo to rows.Interval.hi - 1 do
          let base = ((r - tl.trow_win.Interval.lo) * w) - tl.tcol_win.Interval.lo in
          for c = cols.Interval.lo to cols.Interval.hi - 1 do
            t.host.View.store_f ((r * stride) + c) d (base + c)
          done
        done
    | Ast.Eint ->
        let d = Memory.int_data buf in
        for r = rows.Interval.lo to rows.Interval.hi - 1 do
          let base = ((r - tl.trow_win.Interval.lo) * w) - tl.tcol_win.Interval.lo in
          for c = cols.Interval.lo to cols.Interval.hi - 1 do
            t.host.View.set_i ((r * stride) + c) d.(base + c)
          done
        done

let alloc_buf cfg g t n =
  match t.elem with
  | Ast.Edouble -> Memory.alloc_float (mem_of cfg g) `User n
  | Ast.Eint -> Memory.alloc_int (mem_of cfg g) `User n

(* ---------------- state teardown ---------------- *)

let free_state cfg t =
  (match t.state with
  | Unallocated -> ()
  | Replicated r ->
      Array.iteri
        (fun g buf ->
          Memory.free (mem_of cfg g) buf;
          match r.dirty.(g) with Some d -> Dirty.free (mem_of cfg g) d | None -> ())
        r.bufs
  | Distributed d ->
      Array.iteri
        (fun g p ->
          Memory.free (mem_of cfg g) p.buf;
          Miss_buffer.release p.miss)
        d.parts);
  t.state <- Unallocated

(* ---------------- validity (lazy coherence) ---------------- *)

let full_set t = Interval.Set.of_interval (Interval.make 0 t.length)

(* The loops of [copy_replica_runs], closure-free: the coherence merge
   calls it once per writer and once per partial destination. *)
let rec fetch data bufs ds k = function
  | [] -> ds
  | g :: rest ->
      ds.(k) <- data bufs.(g);
      fetch data bufs ds (k + 1) rest

let rec blit_runs s ds = function
  | [] -> ()
  | (iv : Interval.t) :: rest ->
      for k = 0 to Array.length ds - 1 do
        Array.blit s iv.Interval.lo ds.(k) iv.Interval.lo (Interval.length iv)
      done;
      blit_runs s ds rest

(* A float blit is one memmove; an int blit into a major-heap array runs
   the write barrier per element, so ints loop. *)
let rec loop_runs (s : int array) ds = function
  | [] -> ()
  | (iv : Interval.t) :: rest ->
      for k = 0 to Array.length ds - 1 do
        let d = ds.(k) in
        for i = iv.Interval.lo to iv.Interval.hi - 1 do
          d.(i) <- s.(i)
        done
      done;
      loop_runs s ds rest

(* Functional copy of every run of [runs] from replica [src] into each
   replica of [dsts], in one pass over the runs with every buffer fetched
   once (replica buffers span the whole array). *)
let copy_replica_runs t r ~src ~dsts (runs : Interval.Set.t) =
  if dsts <> [] then begin
    let n = List.length dsts and runs = Interval.Set.to_list runs in
    match t.elem with
    | Ast.Edouble ->
        let s = Memory.float_data r.bufs.(src) in
        blit_runs s (fetch Memory.float_data r.bufs (Array.make n s) 0 dsts) runs
    | Ast.Eint ->
        let s = Memory.int_data r.bufs.(src) in
        loop_runs s (fetch Memory.int_data r.bufs (Array.make n s) 0 dsts) runs
  end

let pull_valid (cfg : Rt_config.t) t ~gpu ~(want : Interval.Set.t) =
  match t.state with
  | Replicated r ->
      let missing = Interval.Set.diff want r.valid.(gpu) in
      if Interval.Set.is_empty missing then []
      else begin
        Log.debug (fun m ->
            m "%s: GPU %d pulls stale %a on demand" t.name gpu Interval.Set.pp missing);
        let xfers = ref [] in
        let remaining = ref missing in
        let n = Array.length r.bufs in
        (* With collective planning on, prefer peers on the puller's own
           node — any valid copy is equivalent, and a same-node source
           keeps the pull off the inter-node wire. The direct mode keeps
           the original lowest-id-first order bit for bit. *)
        let order =
          if not (Rt_config.planned_collectives cfg) then List.init n (fun i -> i)
          else
            let fabric = cfg.Rt_config.machine.Mgacc_gpusim.Machine.fabric in
            List.sort
              (fun a b ->
                let far g = if Fabric.same_node fabric gpu g then 0 else 1 in
                compare (far a, a) (far b, b))
              (List.init n (fun i -> i))
        in
        List.iter (fun src ->
          if src <> gpu && not (Interval.Set.is_empty !remaining) then begin
            let grab = Interval.Set.inter r.valid.(src) !remaining in
            copy_replica_runs t r ~src ~dsts:[ gpu ] grab;
            List.iter
              (fun seg ->
                xfers :=
                  {
                    dir = Fabric.P2p (src, gpu);
                    bytes = Interval.length seg * elem_bytes t;
                    tag = t.name ^ ":pull";
                  }
                  :: !xfers)
              (Interval.Set.to_list grab);
            remaining := Interval.Set.diff !remaining grab
          end)
          order;
        (* The validity invariant (every element valid somewhere)
           guarantees all stale intervals found a source. *)
        if not (Interval.Set.is_empty !remaining) then
          invalid_arg
            (Printf.sprintf "Darray.pull_valid: %s: no valid source for a stale range" t.name);
        r.valid.(gpu) <- Interval.Set.union r.valid.(gpu) want;
        List.rev !xfers
      end
  | Unallocated | Distributed _ -> []

(* ---------------- flush / load ---------------- *)

let flush_to_host (cfg : Rt_config.t) t =
  if not t.device_fresh then []
  else begin
    let xfers =
      match t.state with
      | Unallocated -> assert false
      | Replicated r ->
          (* Under eager coherence replicas are consistent between
             kernels, so any copy serves. Under lazy coherence replica 0
             may hold stale intervals: pull them from valid peers first
             (this is the on-demand path behind copyout, [update host]
             and placement transitions). *)
          let pulls =
            if Rt_config.lazy_coherence cfg then pull_valid cfg t ~gpu:0 ~want:(full_set t)
            else []
          in
          let full = Interval.make 0 t.length in
          copy_buf_to_host t r.bufs.(0) ~win_lo:0 full;
          pulls
          @ [ { dir = Fabric.D2h 0; bytes = t.length * elem_bytes t; tag = t.name ^ ":flush" } ]
      | Distributed d ->
          Array.to_list
            (Array.mapi
               (fun g (p : part) ->
                 let bytes =
                   match p.tile with
                   | None ->
                       copy_buf_to_host t p.buf ~win_lo:p.window.Interval.lo p.own;
                       Interval.length p.own * elem_bytes t
                   | Some tl ->
                       copy_tile_to_host t p.buf ~stride:d.spec.stride tl ~rows:tl.trows
                         ~cols:tl.tcols;
                       Interval.length tl.trows * Interval.length tl.tcols * elem_bytes t
                 in
                 { dir = Fabric.D2h g; bytes; tag = t.name ^ ":flush" })
               d.parts)
          |> List.filter (fun x -> x.bytes > 0)
    in
    t.device_fresh <- false;
    xfers
  end

let load_from_host _cfg t =
  match t.state with
  | Unallocated -> []
  | Replicated r ->
      let full = Interval.make 0 t.length in
      Array.iter (fun buf -> copy_host_to_buf t buf ~win_lo:0 full) r.bufs;
      Array.iter (function Some d -> Dirty.clear d | None -> ()) r.dirty;
      Array.iteri (fun g _ -> r.valid.(g) <- full_set t) r.bufs;
      t.device_fresh <- false;
      Array.to_list
        (Array.mapi
           (fun g _ ->
             { dir = Fabric.H2d g; bytes = t.length * elem_bytes t; tag = t.name ^ ":load" })
           r.bufs)
  | Distributed d ->
      t.device_fresh <- false;
      Array.to_list
        (Array.mapi
           (fun g (p : part) ->
             let bytes =
               match p.tile with
               | None ->
                   copy_host_to_buf t p.buf ~win_lo:p.window.Interval.lo p.window;
                   Interval.length p.window * elem_bytes t
               | Some tl ->
                   copy_host_to_tile t p.buf ~stride:d.spec.stride tl ~rows:tl.trow_win
                     ~cols:tl.tcol_win;
                   Interval.length tl.trow_win * Interval.length tl.tcol_win * elem_bytes t
             in
             { dir = Fabric.H2d g; bytes; tag = t.name ^ ":load" })
           d.parts)
      |> List.filter (fun x -> x.bytes > 0)

(* ---------------- placement ---------------- *)

let ensure_replicated cfg t ~dirty_tracking =
  let num_gpus = cfg.Rt_config.num_gpus in
  let add_dirty r =
    if dirty_tracking then
      Array.iteri
        (fun g d ->
          if d = None then
            r.dirty.(g) <-
              Some
                (Dirty.create (mem_of cfg g) ~elem_bytes:(elem_bytes t) ~length:t.length
                   ~chunk_bytes:cfg.Rt_config.chunk_bytes ~two_level:cfg.Rt_config.two_level_dirty))
        r.dirty
  in
  match t.state with
  | Replicated r ->
      add_dirty r;
      []
  | Unallocated | Distributed _ ->
      Log.debug (fun m -> m "%s: %s -> replicated on %d GPU(s)" t.name (state_name t) num_gpus);
      let flush = flush_to_host cfg t in
      free_state cfg t;
      let bufs = Array.init num_gpus (fun g -> alloc_buf cfg g t t.length) in
      let r = { bufs; dirty = Array.make num_gpus None; valid = Array.make num_gpus (full_set t) } in
      add_dirty r;
      t.state <- Replicated r;
      t.written_since_halo_sync <- false;
      flush @ load_from_host cfg t

let window_of_range spec range ~length ~g ~num_gpus =
  let own_lo = if g = 0 then 0 else spec.stride * range.Task_map.start_ in
  let own_hi = if g = num_gpus - 1 then length else spec.stride * range.Task_map.stop_ in
  let own = Interval.clamp (Interval.make own_lo own_hi) ~lo:0 ~hi:length in
  let read =
    Task_map.window range ~stride:spec.stride ~left:spec.left ~right:spec.right ~max_len:length
  in
  let window = Interval.hull read own in
  (window, own)

(* 2-D tile of one GPU in a [pr x pc] grid: rows come from the (shared,
   duplicated-per-column-block) iteration range, columns from the
   deterministic split of [0, stride). Boundary blocks extend to the array
   edges exactly like the 1-D split, so the owned boxes tile the whole
   index space. Row halos translate element halos to whole rows. *)
let tile_of_range spec ts range ~length ~g =
  let stride = spec.stride in
  let rows_total = length / stride in
  let pr_i = g / ts.pc and pc_i = g mod ts.pc in
  let row_lo = if pr_i = 0 then 0 else range.Task_map.start_ in
  let row_hi = if pr_i = ts.pr - 1 then rows_total else range.Task_map.stop_ in
  let trows = Interval.clamp (Interval.make row_lo (max row_lo row_hi)) ~lo:0 ~hi:rows_total in
  let hl = ts.row_left and hr = ts.row_right in
  let trow_win =
    if Interval.is_empty trows then trows
    else
      Interval.clamp
        (Interval.make (trows.Interval.lo - hl) (trows.Interval.hi + hr))
        ~lo:0 ~hi:rows_total
  in
  let cs = (Task_map.split ~lower:0 ~upper:stride ~parts:ts.pc).(pc_i) in
  let tcols = Interval.make cs.Task_map.start_ cs.Task_map.stop_ in
  let tcol_win =
    if Interval.is_empty tcols then tcols
    else
      Interval.clamp
        (Interval.make (tcols.Interval.lo - ts.col_left) (tcols.Interval.hi + ts.col_right))
        ~lo:0 ~hi:stride
  in
  { trows; tcols; trow_win; tcol_win }

(* Shape of GPU [g]'s part: 1-D (window, own) intervals plus, when the
   spec carries a tile grid, the 2-D box. For tiled parts the interval
   fields hold the row hulls (used only for logging / quick rejection;
   every precise consumer branches on [tile]). *)
let part_shape spec range ~length ~g ~num_gpus =
  match spec.tile with
  | None ->
      let window, own = window_of_range spec range ~length ~g ~num_gpus in
      (window, own, None)
  | Some ts ->
      let tl = tile_of_range spec ts range ~length ~g in
      let window =
        Interval.make (tl.trow_win.Interval.lo * spec.stride) (tl.trow_win.Interval.hi * spec.stride)
      in
      let own =
        Interval.make (tl.trows.Interval.lo * spec.stride) (tl.trows.Interval.hi * spec.stride)
      in
      (window, own, Some tl)

let part_size window = function
  | None -> Interval.length window
  | Some tl -> Interval.length tl.trow_win * Interval.length tl.tcol_win

let offset_in_part spec (p : part) idx =
  match p.tile with
  | None -> idx - p.window.Interval.lo
  | Some tl ->
      let r = idx / spec.stride and c = idx mod spec.stride in
      ((r - tl.trow_win.Interval.lo) * Interval.length tl.tcol_win)
      + (c - tl.tcol_win.Interval.lo)

let part_contains spec (p : part) idx =
  match p.tile with
  | None -> Interval.contains p.window idx
  | Some tl ->
      let r = idx / spec.stride and c = idx mod spec.stride in
      Interval.contains tl.trow_win r && Interval.contains tl.tcol_win c

let part_owns spec (p : part) idx =
  match p.tile with
  | None -> Interval.contains p.own idx
  | Some tl ->
      let r = idx / spec.stride and c = idx mod spec.stride in
      Interval.contains tl.trows r && Interval.contains tl.tcols c

(* The existing distribution serves the request when the split is the
   same, ownership is identical, and every resident window covers the
   requested one. Wider resident halos are fine: the communication manager
   refreshes them after writes, so alternating stencil loops with
   different halo widths keep reusing one allocation instead of
   reshaping through the host. *)
let covers t d spec ranges ~num_gpus =
  Array.length d.ranges = Array.length ranges
  && d.spec.stride = spec.stride
  && (match (d.spec.tile, spec.tile) with
     | None, None -> true
     | Some a, Some b -> a.pr = b.pr && a.pc = b.pc
     | _ -> false)
  && Array.for_all2 (fun a b -> a = b) d.ranges ranges
  &&
  let ok = ref true in
  Array.iteri
    (fun g (p : part) ->
      let window, own, tile = part_shape spec ranges.(g) ~length:t.length ~g ~num_gpus in
      match (p.tile, tile) with
      | None, None ->
          if
            not
              (Interval.equal own p.own
              && Interval.equal (Interval.hull window p.window) p.window)
          then ok := false
      | Some pt, Some nt ->
          (* Same ownership, resident windows at least as wide: wider
             resident halos keep being refreshed, like the 1-D case. *)
          if
            not
              (Interval.equal nt.trows pt.trows
              && Interval.equal nt.tcols pt.tcols
              && Interval.equal (Interval.hull nt.trow_win pt.trow_win) pt.trow_win
              && Interval.equal (Interval.hull nt.tcol_win pt.tcol_win) pt.tcol_win)
          then ok := false
      | _ -> ok := false)
    d.parts;
  !ok

let owner_of d idx =
  let n = Array.length d.parts in
  let rec go g =
    if g >= n then
      invalid_arg (Printf.sprintf "Darray.owner_of: index %d owned by no GPU" idx)
    else if part_owns d.spec d.parts.(g) idx then g
    else go (g + 1)
  in
  go 0

(* Functional copy between two parts' buffers over [seg] (absolute
   element indices; both windows must contain it). *)
let copy_part_to_part t ~src ~dst (seg : Interval.t) =
  let slo = src.window.Interval.lo and dlo = dst.window.Interval.lo in
  match t.elem with
  | Ast.Edouble ->
      let s = Memory.float_data src.buf and d = Memory.float_data dst.buf in
      for i = seg.Interval.lo to seg.Interval.hi - 1 do
        d.(i - dlo) <- s.(i - slo)
      done
  | Ast.Eint ->
      let s = Memory.int_data src.buf and d = Memory.int_data dst.buf in
      for i = seg.Interval.lo to seg.Interval.hi - 1 do
        d.(i - dlo) <- s.(i - slo)
      done

(* Tile-aware variant: copies one absolute-index segment between two parts
   through [offset_in_part], so either side may be tiled (a tiled segment
   must stay within one row). The 1-D [copy_part_to_part] above is kept
   verbatim for the untiled halo/repartition paths. *)
let copy_seg_part_to_part t spec ~src ~dst (seg : Interval.t) =
  match t.elem with
  | Ast.Edouble ->
      let s = Memory.float_data src.buf and d = Memory.float_data dst.buf in
      for i = seg.Interval.lo to seg.Interval.hi - 1 do
        d.(offset_in_part spec dst i) <- s.(offset_in_part spec src i)
      done
  | Ast.Eint ->
      let s = Memory.int_data src.buf and d = Memory.int_data dst.buf in
      for i = seg.Interval.lo to seg.Interval.hi - 1 do
        d.(offset_in_part spec dst i) <- s.(offset_in_part spec src i)
      done

(* Re-split a live distribution without bouncing through the host: each
   new window fills from the old owners' authoritative blocks, and only
   the cross-GPU segments ride the fabric (as peer transfers — exactly
   the movement the rebalance planner priced). The old parts' [own]
   blocks tile [0, length), so every element has one source of truth. *)
let repartition cfg t (d : dist) ~spec ~ranges ~num_gpus =
  Log.debug (fun m ->
      m "%s: repartitioning %d parts GPU-to-GPU (scheduler re-split)" t.name (Array.length ranges));
  let new_parts =
    Array.init num_gpus (fun g ->
        let window, own = window_of_range spec ranges.(g) ~length:t.length ~g ~num_gpus in
        {
          window;
          own;
          tile = None;
          buf = alloc_buf cfg g t (Interval.length window);
          miss = Miss_buffer.create (mem_of cfg g) ~name:t.name ~elem_bytes:(elem_bytes t);
        })
  in
  let xfers = ref [] in
  Array.iteri
    (fun dst p ->
      let iv = p.window in
      let cursor = ref iv.Interval.lo in
      while !cursor < iv.Interval.hi do
        let owner = owner_of d !cursor in
        let oown = d.parts.(owner).own in
        let seg_hi = min iv.Interval.hi oown.Interval.hi in
        let seg = Interval.make !cursor seg_hi in
        if not (Interval.is_empty seg) then begin
          copy_part_to_part t ~src:d.parts.(owner) ~dst:p seg;
          if owner <> dst then
            xfers :=
              {
                dir = Fabric.P2p (owner, dst);
                bytes = Interval.length seg * elem_bytes t;
                tag = t.name ^ ":repart";
              }
              :: !xfers
        end;
        cursor := max seg_hi (!cursor + 1)
      done)
    new_parts;
  Array.iteri
    (fun g p ->
      Memory.free (mem_of cfg g) p.buf;
      Miss_buffer.release p.miss)
    d.parts;
  t.state <- Distributed { parts = new_parts; spec; ranges = Array.copy ranges };
  t.written_since_halo_sync <- false;
  List.rev !xfers

let ensure_distributed cfg t ~spec ~ranges =
  let num_gpus = cfg.Rt_config.num_gpus in
  if Array.length ranges <> num_gpus then invalid_arg "Darray.ensure_distributed: ranges size";
  match t.state with
  | Distributed d when covers t d spec ranges ~num_gpus -> []
  | Distributed d
    when cfg.Rt_config.schedule <> Mgacc_sched.Policy.Equal
         && t.device_fresh
         && Array.length d.ranges = Array.length ranges
         && d.spec = spec
         && spec.tile = None ->
      repartition cfg t d ~spec ~ranges ~num_gpus
  | _ ->
      Log.debug (fun m ->
          m "%s: %s -> distributed (stride %d, halo %d/%d%s)" t.name (state_name t) spec.stride
            spec.left spec.right
            (match spec.tile with
            | None -> ""
            | Some ts -> Printf.sprintf ", tile %dx%d" ts.pr ts.pc));
      let flush = flush_to_host cfg t in
      free_state cfg t;
      let parts =
        Array.init num_gpus (fun g ->
            let window, own, tile = part_shape spec ranges.(g) ~length:t.length ~g ~num_gpus in
            {
              window;
              own;
              tile;
              buf = alloc_buf cfg g t (part_size window tile);
              miss = Miss_buffer.create (mem_of cfg g) ~name:t.name ~elem_bytes:(elem_bytes t);
            })
      in
      t.state <- Distributed { parts; spec; ranges = Array.copy ranges };
      t.written_since_halo_sync <- false;
      flush @ load_from_host cfg t

let release cfg t =
  let xfers = if t.needs_copyout then flush_to_host cfg t else [] in
  free_state cfg t;
  t.device_fresh <- false;
  xfers

(* Eviction under fleet memory pressure: write dirty data back to the
   host view and free the device storage. A clean array evicts for free
   (writeback-cache semantics — only the D2h of dirty data costs wire
   time); the array stays usable, a later [ensure_*] reloads it. The
   flush descriptors are retagged ":spill" so eviction traffic is
   distinguishable from program copyout in traces. *)
let spill_to_host cfg t =
  let retag (x : xfer) =
    match String.index_opt x.tag ':' with
    | Some i when String.sub x.tag i (String.length x.tag - i) = ":flush" ->
        { x with tag = String.sub x.tag 0 i ^ ":spill" }
    | _ -> x
  in
  let xfers = List.map retag (flush_to_host cfg t) in
  free_state cfg t;
  xfers

let mark_device_written t =
  t.device_fresh <- true;
  t.written_since_halo_sync <- true

let mark_halo_synced t = t.written_since_halo_sync <- false

let buf_for t ~gpu =
  match t.state with
  | Unallocated -> invalid_arg (Printf.sprintf "Darray.buf_for: %s unallocated" t.name)
  | Replicated r -> r.bufs.(gpu)
  | Distributed d -> d.parts.(gpu).buf

let part_for t ~gpu =
  match t.state with
  | Distributed d -> d.parts.(gpu)
  | Unallocated | Replicated _ ->
      invalid_arg (Printf.sprintf "Darray.part_for: %s not distributed" t.name)

let replica_of t =
  match t.state with
  | Replicated r -> r
  | Unallocated | Distributed _ ->
      invalid_arg (Printf.sprintf "Darray.replica_of: %s not replicated" t.name)

