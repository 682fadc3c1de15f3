module Kernel_plan = Mgacc_translator.Kernel_plan
module Program_plan = Mgacc_translator.Program_plan
module Parser = Mgacc_minic.Parser

type entry = {
  plans : Program_plan.t;
  mutable measured_seconds : float option;
  mutable footprint_bytes : int option;
}

(* The key is the plan's whole identity, compared structurally: every
   translator option (a field added to [Kernel_plan.options] joins the
   key by construction), the machine shape and the source text. *)
type t = {
  tbl : (Kernel_plan.options * string * string, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { tbl = Hashtbl.create 16; hits = 0; misses = 0 }

let lookup ?(options = Kernel_plan.default_options) ?(machine = "") ?(name = "<job>") t source =
  let key = (options, machine, source) in
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      t.hits <- t.hits + 1;
      (e, true)
  | None ->
      t.misses <- t.misses + 1;
      let program = Parser.parse ~file:name source in
      let plans = Program_plan.build ~options program in
      let e = { plans; measured_seconds = None; footprint_bytes = None } in
      Hashtbl.replace t.tbl key e;
      (e, false)

let record_measurement e ~seconds ~footprint_bytes =
  e.measured_seconds <- Some seconds;
  if footprint_bytes > 0 then e.footprint_bytes <- Some footprint_bytes

let hits t = t.hits
let misses t = t.misses
let size t = Hashtbl.length t.tbl
