open Mgacc_sim

type t = {
  name : string;
  cpu : Spec.cpu;
  link : Spec.link;
  devices : Device.t array;
  fabric : Fabric.t;
  trace : Trace.t;
  default_omp_threads : int;
}

(* A machine with a per-device spec array, allowing mixed GPUs. *)
let custom_hetero ?flavor ?topology ~name ~cpu ~gpus ~link ~omp_threads () =
  let num_gpus = Array.length gpus in
  if num_gpus <= 0 then invalid_arg "Machine.custom_hetero: no GPUs";
  {
    name;
    cpu;
    link;
    devices = Array.mapi (fun id gpu -> Device.create ~id gpu) gpus;
    fabric = Fabric.create ?flavor ?topology link ~num_gpus;
    trace = Trace.create ();
    default_omp_threads = omp_threads;
  }

let custom ?flavor ?topology ~name ~cpu ~gpu ~link ~num_gpus ~omp_threads () =
  if num_gpus <= 0 then invalid_arg "Machine.custom: num_gpus <= 0";
  custom_hetero ?flavor ?topology ~name ~cpu ~gpus:(Array.make num_gpus gpu) ~link ~omp_threads ()

let desktop ?(num_gpus = 2) () =
  if num_gpus < 1 || num_gpus > 2 then invalid_arg "Machine.desktop: 1 or 2 GPUs";
  custom ~name:"Desktop Machine" ~cpu:Spec.core_i7_970 ~gpu:Spec.tesla_c2075
    ~link:Spec.pcie_gen2_desktop ~num_gpus ~omp_threads:12 ()

let supernode ?(num_gpus = 3) () =
  if num_gpus < 1 || num_gpus > 3 then invalid_arg "Machine.supernode: 1 to 3 GPUs";
  custom ~name:"Supercomputer Node" ~cpu:Spec.dual_xeon_x5670 ~gpu:Spec.tesla_m2050
    ~link:Spec.pcie_gen2_supernode ~num_gpus ~omp_threads:24 ()

let desktop_mixed () =
  custom_hetero
    ~name:"Mixed Desktop (C2075 + M2050)"
    ~cpu:Spec.core_i7_970
    ~gpus:[| Spec.tesla_c2075; Spec.tesla_m2050 |]
    ~link:Spec.pcie_gen2_desktop ~omp_threads:12 ()

(* QDR-InfiniBand-class internode wire shared by every clustered preset. *)
let qdr_topology ~gpus_per_node =
  {
    Fabric.gpus_per_node;
    internode_bandwidth = 3.2 *. 1024.0 *. 1024.0 *. 1024.0;
    internode_latency = 25e-6;
  }

let cluster ?(nodes = 2) ?(gpus_per_node = 2) () =
  if nodes < 1 || gpus_per_node < 1 then invalid_arg "Machine.cluster";
  custom
    ~topology:(qdr_topology ~gpus_per_node)
    ~name:(Printf.sprintf "GPU Cluster (%d nodes x %d C2075)" nodes gpus_per_node)
    ~cpu:Spec.core_i7_970 ~gpu:Spec.tesla_c2075 ~link:Spec.pcie_gen2_desktop
    ~num_gpus:(nodes * gpus_per_node) ~omp_threads:12 ()

(* Cross-node flows also share a fat-tree spine of bisection
   [internode_bandwidth * nodes / oversub]: per-node injection is
   unchanged, but an all-to-all phase saturates the core, which the
   collective cost model can see. *)
let fat_tree ?(oversub = 2.0) ~nodes ~gpus_per_node () =
  if nodes < 1 || gpus_per_node < 1 then invalid_arg "Machine.fat_tree";
  custom
    ~flavor:(Fabric.Fat_tree { oversub })
    ~topology:(qdr_topology ~gpus_per_node)
    ~name:
      (Printf.sprintf "Fat-tree Cluster (%d nodes x %d C2075, %gx oversub)" nodes gpus_per_node
         oversub)
    ~cpu:Spec.core_i7_970 ~gpu:Spec.tesla_c2075 ~link:Spec.pcie_gen2_desktop
    ~num_gpus:(nodes * gpus_per_node) ~omp_threads:12 ()

(* [rails] independent inter-node networks; each node pair's traffic is
   pinned to one rail, so aggregate cross-node bandwidth scales with the
   rail count. *)
let multi_rail ?(rails = 2) ~nodes ~gpus_per_node () =
  if nodes < 1 || gpus_per_node < 1 then invalid_arg "Machine.multi_rail";
  custom
    ~flavor:(Fabric.Multi_rail { rails })
    ~topology:(qdr_topology ~gpus_per_node)
    ~name:
      (Printf.sprintf "Multi-rail Cluster (%d nodes x %d C2075, %d rails)" nodes gpus_per_node
         rails)
    ~cpu:Spec.core_i7_970 ~gpu:Spec.tesla_c2075 ~link:Spec.pcie_gen2_desktop
    ~num_gpus:(nodes * gpus_per_node) ~omp_threads:12 ()

(* Same-node peer transfers ride dedicated NVLink-class port pairs
   (20 GB/s, 5 us) instead of PCIe and the host root complex. *)
let nv_mesh ~nodes ~gpus_per_node () =
  if nodes < 1 || gpus_per_node < 1 then invalid_arg "Machine.nv_mesh";
  custom
    ~flavor:
      (Fabric.Nvlink_mesh
         { nv_bandwidth = 20.0 *. 1024.0 *. 1024.0 *. 1024.0; nv_latency = 5e-6 })
    ~topology:(qdr_topology ~gpus_per_node)
    ~name:(Printf.sprintf "NVLink-mesh Cluster (%d nodes x %d C2075)" nodes gpus_per_node)
    ~cpu:Spec.core_i7_970 ~gpu:Spec.tesla_c2075 ~link:Spec.pcie_gen2_desktop
    ~num_gpus:(nodes * gpus_per_node) ~omp_threads:12 ()

(* ---------------- machine spec strings ---------------- *)

type spec =
  | Preset of string
  | Cluster_spec of { nodes : int; gpus_per_node : int }
  | Fat_tree_spec of { nodes : int; gpus_per_node : int; oversub : float }
  | Multi_rail_spec of { nodes : int; gpus_per_node : int; rails : int }
  | Nv_mesh_spec of { nodes : int; gpus_per_node : int }

let spec_grammar =
  "desktop|desktop-mixed|supernode|cluster, or cluster:NxM, fattree:NxM[:OVERSUB], \
   multirail:NxM[:RAILS], nvmesh:NxM (N nodes x M GPUs each)"

let spec_of_string s =
  let fail () = Error (Printf.sprintf "unknown machine %S (%s)" s spec_grammar) in
  let geometry g =
    match String.index_opt g 'x' with
    | None -> None
    | Some i -> (
        try
          let nodes = int_of_string (String.sub g 0 i)
          and gpus_per_node = int_of_string (String.sub g (i + 1) (String.length g - i - 1)) in
          if nodes >= 1 && gpus_per_node >= 1 then Some (nodes, gpus_per_node) else None
        with _ -> None)
  in
  match String.split_on_char ':' s with
  | [ ("desktop" | "desktop-mixed" | "supernode" | "cluster") ] -> Ok (Preset s)
  | [ "cluster"; g ] -> (
      match geometry g with
      | Some (nodes, gpus_per_node) -> Ok (Cluster_spec { nodes; gpus_per_node })
      | None -> fail ())
  | [ "fattree"; g ] -> (
      match geometry g with
      | Some (nodes, gpus_per_node) -> Ok (Fat_tree_spec { nodes; gpus_per_node; oversub = 2.0 })
      | None -> fail ())
  | [ "fattree"; g; ov ] -> (
      match (geometry g, float_of_string_opt ov) with
      | Some (nodes, gpus_per_node), Some oversub when oversub >= 1.0 ->
          Ok (Fat_tree_spec { nodes; gpus_per_node; oversub })
      | _ -> fail ())
  | [ "multirail"; g ] -> (
      match geometry g with
      | Some (nodes, gpus_per_node) -> Ok (Multi_rail_spec { nodes; gpus_per_node; rails = 2 })
      | None -> fail ())
  | [ "multirail"; g; r ] -> (
      match (geometry g, int_of_string_opt r) with
      | Some (nodes, gpus_per_node), Some rails when rails >= 1 ->
          Ok (Multi_rail_spec { nodes; gpus_per_node; rails })
      | _ -> fail ())
  | [ "nvmesh"; g ] -> (
      match geometry g with
      | Some (nodes, gpus_per_node) -> Ok (Nv_mesh_spec { nodes; gpus_per_node })
      | None -> fail ())
  | _ -> fail ()

let spec_to_string = function
  | Preset name -> name
  | Cluster_spec { nodes; gpus_per_node } -> Printf.sprintf "cluster:%dx%d" nodes gpus_per_node
  | Fat_tree_spec { nodes; gpus_per_node; oversub } ->
      Printf.sprintf "fattree:%dx%d:%g" nodes gpus_per_node oversub
  | Multi_rail_spec { nodes; gpus_per_node; rails } ->
      Printf.sprintf "multirail:%dx%d:%d" nodes gpus_per_node rails
  | Nv_mesh_spec { nodes; gpus_per_node } -> Printf.sprintf "nvmesh:%dx%d" nodes gpus_per_node

let spec_gpus = function
  | Preset "desktop" | Preset "desktop-mixed" -> 2
  | Preset "supernode" -> 3
  | Preset _ -> 4 (* cluster: 2 nodes x 2 GPUs *)
  | Cluster_spec { nodes; gpus_per_node }
  | Fat_tree_spec { nodes; gpus_per_node; _ }
  | Multi_rail_spec { nodes; gpus_per_node; _ }
  | Nv_mesh_spec { nodes; gpus_per_node } ->
      nodes * gpus_per_node

let of_spec = function
  | Preset "desktop" -> desktop ()
  | Preset "desktop-mixed" -> desktop_mixed ()
  | Preset "supernode" -> supernode ()
  | Preset _ -> cluster ()
  | Cluster_spec { nodes; gpus_per_node } -> cluster ~nodes ~gpus_per_node ()
  | Fat_tree_spec { nodes; gpus_per_node; oversub } -> fat_tree ~oversub ~nodes ~gpus_per_node ()
  | Multi_rail_spec { nodes; gpus_per_node; rails } -> multi_rail ~rails ~nodes ~gpus_per_node ()
  | Nv_mesh_spec { nodes; gpus_per_node } -> nv_mesh ~nodes ~gpus_per_node ()

let num_gpus t = Array.length t.devices

let device t i =
  if i < 0 || i >= num_gpus t then invalid_arg (Printf.sprintf "Machine.device: %d" i);
  t.devices.(i)

let launch_kernel_span ?causes t ~dev ~ready ~threads ~label cost =
  let d = device t dev in
  let start, finish = Device.launch d ~ready ~threads cost in
  let id =
    Trace.record t.trace ?causes
      ~resource:(Timeline.name d.Device.compute)
      ~category:Trace.Kernel ~label ~start ~finish ~bytes:0 ()
  in
  (start, finish, id)

let host_compute t ~ready ~threads ~label cost =
  let duration = Cpu_model.duration t.cpu ~threads cost in
  let start = ready and finish = ready +. duration in
  ignore
    (Trace.record t.trace ~resource:"cpu" ~category:Trace.Host_compute ~label ~start ~finish
       ~bytes:0 ());
  (start, finish)

let category_of_direction = function
  | Fabric.H2d _ -> Trace.Host_to_device
  | Fabric.D2h _ -> Trace.Device_to_host
  | Fabric.P2p _ -> Trace.Peer

let run_transfers_spans t ~label (b : Fabric.batch) =
  Fabric.run t.fabric b;
  for i = 0 to b.len - 1 do
    let bytes = b.bytes.(i) in
    b.span.(i) <-
      (if bytes > 0 then begin
         for k = b.cause_from.(i) to Fabric.causes_upto b i - 1 do
           Trace.cause t.trace (Mgacc_util.Int_buf.get b.causes k)
         done;
         let direction = b.dirs.(i) in
         Trace.record t.trace ~tag:b.tags.(i)
           ~resource:(Fabric.resource_name t.fabric direction)
           ~category:(category_of_direction direction)
           ~label ~start:(Float.Array.get b.ready i) ~finish:(Float.Array.get b.finish i) ~bytes ()
       end
       else -1)
  done

let transfer_sync t ~ready direction ~bytes ~label =
  if bytes = 0 then ready
  else begin
    let duration = Fabric.transfer_time_alone t.fabric direction ~bytes in
    let finish = ready +. duration in
    ignore
      (Trace.record t.trace
         ~resource:(Fabric.resource_name t.fabric direction)
         ~category:(category_of_direction direction)
         ~label ~start:ready ~finish ~bytes ());
    finish
  end

let overhead_span ?causes t ~ready ~seconds ~label =
  if seconds <= 0.0 then (ready, None)
  else begin
    let finish = ready +. seconds in
    let id =
      Trace.record t.trace ?causes ~resource:"cpu" ~category:Trace.Overhead ~label ~start:ready
        ~finish ~bytes:0 ()
    in
    (finish, Some id)
  end

let reset t =
  Trace.clear t.trace;
  Array.iter Device.reset t.devices
