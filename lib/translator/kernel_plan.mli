(** Per-loop compilation plan: what the paper's translator emits.

    A plan bundles the normalized loop, its access summaries, the array
    configuration information, and the instrumentation/optimization
    decisions (layout transformation targets, which arrays need write-miss
    checks, which need dirty tracking). The runtime consumes plans: the
    data loader reads placements, the launcher compiles the body with the
    plan's coalescing classifier, and the communication manager reads the
    reconciliation needs. *)

open Mgacc_minic

type options = {
  enable_distribution : bool;
      (** honour [localaccess] for placement (off = everything replicated) *)
  enable_layout_transform : bool;
  enable_miss_check_elim : bool;
      (** drop write-miss checks when writes are provably in-window *)
  enable_fusion : bool;
      (** run the translator's fusion/contraction/relayout pass (default
          off: plans and reports stay bit-identical to the unfused
          translator) *)
  enable_decomp2d : bool;
      (** analyze stencil loops for 2-D (row x column) block decomposition
          (default off: the 1-D split stays bit-identical) *)
}

val default_options : options

type window = Whole_array | Affine_window of { coeff : int; cmin : int; cmax : int }
(** Per-GPU read-window shape of a launch, used by the lazy-coherence
    consumer lookahead (computed by [Program_plan], memoized per plan). *)

type t = {
  loop : Mgacc_analysis.Loop_info.t;
  accesses : Mgacc_analysis.Access.array_access list;
  configs : Mgacc_analysis.Array_config.t list;
  free_vars : string list;
  options : options;
  inner_parallel : (Mgacc_analysis.Loop_info.t * int) option;
      (** nested [#pragma acc loop] and its vector width, if present *)
  tile2d : Mgacc_analysis.Tile2d.t option;
      (** 2-D decomposition eligibility (present only under
          [enable_decomp2d] on an eligible stencil loop) *)
  window_memo : (string, window option) Hashtbl.t;
      (** per-array cache of [Program_plan.read_window_of] results *)
}

val of_loop : ?options:options -> Mgacc_analysis.Loop_info.t -> t

val thread_multiplier : t -> int
(** Occupancy multiplier from nested parallelism: the inner loop's vector
    width, or 1 when the kernel is flat. *)

val config_for : t -> string -> Mgacc_analysis.Array_config.t option

val placement_of : t -> string -> Mgacc_analysis.Array_config.placement
(** Effective placement after applying [options] (distribution disabled
    collapses everything to replicated). Defaults to replicated for arrays
    without a config. *)

val layout_transformed : t -> string -> bool
(** Whether the coalescing layout transformation applies to the array under
    the plan's options (baseline localaccess-gated rule, or the fusion-mode
    relayout below). *)

val relayout_arrays : t -> string list
(** Arrays of this plan selected by {!fusion_relayout}, in config order.
    The runtime charges their one-time repack on first launch. *)

val needs_miss_check : t -> string -> bool
(** True for distributed arrays with plain writes that are not provably
    in-window (or when elimination is disabled): the kernel carries a
    bounds check per write and misses are buffered. *)

val needs_dirty_tracking : t -> num_gpus:int -> string -> bool
(** Replicated arrays with plain writes need dirty tracking — but only when
    more than one GPU participates. *)

val schedule_hint : t -> [ `Uniform | `Irregular ]
(** [`Irregular] when per-iteration work varies with the parallel index:
    an inner loop's trip count is tainted (BFS's per-node degree), or a
    tainted branch guards an inner loop (BFS's frontier test). The
    scheduler then seeds an equal split and relies on runtime feedback,
    since a static cost model cannot see the skew. Dynamic subscripts
    with fixed trip counts (MD's neighbor gathers) stay [`Uniform]. *)

val static_iter_cost : t -> Mgacc_gpusim.Cost.t
(** Compile-time estimate of the cost of {e one} straight-line pass over
    the loop body: arithmetic counted per operator, each array access
    charged 8 bytes under the plan's coalescing classification. Control
    flow is not simulated (branches contribute both arms, nested loops one
    trip), which is fine for its consumer — the scheduler only compares
    device throughputs on the {e same} cost vector. *)

val classifier : t -> string -> Ast.expr -> Mgacc_analysis.Coalesce.mode
(** The coalescing classifier for kernel compilation, with the layout
    transformation applied to qualifying arrays. *)
