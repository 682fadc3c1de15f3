type coherence = Eager | Lazy
type collective = Direct | Ring | Auto

type t = {
  machine : Mgacc_gpusim.Machine.t;
  num_gpus : int;
  chunk_bytes : int;
  two_level_dirty : bool;
  overlap : bool;
  coherence : coherence;
  collective : collective;
  translator : Mgacc_translator.Kernel_plan.options;
  schedule : Mgacc_sched.Policy.t;
  keep_resident : bool;
}

let make ?num_gpus ?(chunk_bytes = 1024 * 1024) ?(two_level_dirty = true) ?(overlap = false)
    ?(coherence = Eager) ?(collective = Direct)
    ?(translator = Mgacc_translator.Kernel_plan.default_options)
    ?(schedule = Mgacc_sched.Policy.Equal) ?(keep_resident = false) machine =
  let available = Mgacc_gpusim.Machine.num_gpus machine in
  let num_gpus = Option.value ~default:available num_gpus in
  if num_gpus < 1 || num_gpus > available then invalid_arg "Rt_config.make: bad num_gpus";
  if chunk_bytes < 8 then invalid_arg "Rt_config.make: chunk_bytes too small";
  {
    machine;
    num_gpus;
    chunk_bytes;
    two_level_dirty;
    overlap;
    coherence;
    collective;
    translator;
    schedule;
    keep_resident;
  }

let lazy_coherence t = t.coherence = Lazy && t.num_gpus > 1
let planned_collectives t = t.collective <> Direct && t.num_gpus > 1

type switch = {
  name : string;
  spellings : string list;
  doc : string;
  read : t -> string;
  write : t -> string -> t option;
}

(* [values] pairs each spelling with the field value it stands for,
   default first; [get]/[put] read and write that field. *)
let switch name values ~get ~put ~doc =
  {
    name;
    spellings = List.map fst values;
    doc;
    read = (fun t -> let v = get t in fst (List.find (fun (_, v') -> v' = v) values));
    write = (fun t s -> Option.map (put t) (List.assoc_opt s values));
  }

let off_on = [ ("off", false); ("on", true) ]

let switches =
  [
    switch "overlap" off_on
      ~get:(fun t -> t.overlap)
      ~put:(fun t overlap -> { t with overlap })
      ~doc:"dependency-driven communication/computation overlap (off = barrier semantics)";
    switch "coherence"
      [ ("eager", Eager); ("lazy", Lazy) ]
      ~get:(fun t -> t.coherence)
      ~put:(fun t coherence -> { t with coherence })
      ~doc:
        "inter-GPU replica coherence: eager ships every dirty chunk everywhere after each loop; \
         lazy ships only the next reader's window and pulls the rest on demand";
    switch "collective"
      [ ("direct", Direct); ("ring", Ring); ("auto", Auto) ]
      ~get:(fun t -> t.collective)
      ~put:(fun t collective -> { t with collective })
      ~doc:
        "broadcast-group transfer planning: direct keeps each group's own star or binomial tree; \
         ring forces node-grouped pipelined rings; auto picks direct, ring or hierarchical \
         staging per group from a payload/topology cost model";
    switch "fuse" off_on
      ~get:(fun t -> t.translator.enable_fusion)
      ~put:(fun t enable_fusion -> { t with translator = { t.translator with enable_fusion } })
      ~doc:
        "translator kernel-fusion pass: fuse adjacent compatible parallel loops, contract \
         group-local temporaries and transpose strided read-only arrays when the cost model \
         finds it profitable (off = today's one-loop-one-kernel plans, bit for bit)";
    switch "decomp"
      [ ("1d", false); ("2d", true) ]
      ~get:(fun t -> t.translator.enable_decomp2d)
      ~put:(fun t enable_decomp2d -> { t with translator = { t.translator with enable_decomp2d } })
      ~doc:
        "block decomposition of distributed arrays: 1d slices whole rows per GPU (today's plans, \
         bit for bit); 2d tiles row-major arrays over a GPU grid so stencil halo traffic scales \
         with the tile perimeter instead of the row width";
  ]

let find name =
  match List.find_opt (fun s -> s.name = name) switches with
  | Some s -> s
  | None -> invalid_arg ("Rt_config.find: no switch " ^ name)

let set t name value =
  let s = find name in
  match s.write t value with
  | Some t -> Ok t
  | None ->
      Error (Printf.sprintf "unknown %s mode %S (%s)" name value (String.concat "|" s.spellings))
