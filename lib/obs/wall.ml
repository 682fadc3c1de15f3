type layer =
  | Parse
  | Plan
  | Host
  | Kernel_compile
  | Load
  | Kernels
  | Reconcile
  | Collective_plan
  | Comms
  | Charge
  | Hook
  | Data
  | Report
  | Other

let all =
  [ Parse; Plan; Host; Kernel_compile; Load; Kernels; Reconcile; Collective_plan; Comms; Charge; Hook; Data; Report; Other ]

let index = function
  | Parse -> 0
  | Plan -> 1
  | Host -> 2
  | Kernel_compile -> 3
  | Load -> 4
  | Kernels -> 5
  | Reconcile -> 6
  | Collective_plan -> 7
  | Comms -> 8
  | Charge -> 9
  | Hook -> 10
  | Data -> 11
  | Report -> 12
  | Other -> 13

let name = function
  | Parse -> "parse"
  | Plan -> "plan"
  | Host -> "host code"
  | Kernel_compile -> "kernel compile"
  | Load -> "load"
  | Kernels -> "kernel executor"
  | Reconcile -> "reconcile"
  | Collective_plan -> "collective plan"
  | Comms -> "comms (fabric)"
  | Charge -> "charge"
  | Hook -> "hook (rest)"
  | Data -> "data directives"
  | Report -> "report"
  | Other -> "other"

let layers = List.length all

(* Nanoseconds, as an immediate int: no clock read allocates. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let on = ref false
let own = Array.make layers 0
let opened = Array.make layers 0

(* The open spans: [current] is the innermost, [stack.(0 .. depth-1)] the
   ones it interrupted, outermost first. [since] is when [current] last
   started counting. *)
let max_depth = 64
let stack = Array.make max_depth 0
let depth = ref 0
let current = ref (index Other)
let since = ref 0
let began = ref 0
let ended = ref 0

(* Credit the time since the last switch to the innermost span. *)
let switch () =
  let t = now () in
  own.(!current) <- own.(!current) + (t - !since);
  since := t

let start () =
  Array.fill own 0 layers 0;
  Array.fill opened 0 layers 0;
  depth := 0;
  current := index Other;
  on := true;
  began := now ();
  since := !began

let stop () =
  if !on then begin
    switch ();
    ended := !since;
    on := false
  end

let enter l =
  if !on then begin
    if !depth >= max_depth then invalid_arg "Wall.enter: spans nested too deep";
    switch ();
    stack.(!depth) <- !current;
    incr depth;
    let i = index l in
    current := i;
    opened.(i) <- opened.(i) + 1
  end

let leave () =
  if !on && !depth > 0 then begin
    switch ();
    decr depth;
    current := stack.(!depth)
  end

let seconds l = float_of_int own.(index l) *. 1e-9
let spans l = opened.(index l)
let elapsed () = float_of_int ((if !on then now () else !ended) - !began) *. 1e-9

let pp ppf () =
  let total = elapsed () in
  let t = Mgacc_util.Table.create ~headers:[ "layer"; "ms"; "share"; "spans" ] in
  List.iter
    (fun l ->
      let s = seconds l in
      if s > 0.0 then
        Mgacc_util.Table.add_row t
          [
            name l;
            Printf.sprintf "%.3f" (s *. 1e3);
            Printf.sprintf "%.3f" (if total > 0.0 then s /. total else 0.0);
            (if l = Other then "" else string_of_int (spans l));
          ])
    all;
  Mgacc_util.Table.add_separator t;
  Mgacc_util.Table.add_row t [ "total"; Printf.sprintf "%.3f" (total *. 1e3); "1.000"; "" ];
  Format.pp_print_string ppf (Mgacc_util.Table.render t)
