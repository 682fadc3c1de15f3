(** Cost-model-guided kernel fusion + temporary contraction (the
    translator's ACC-Saturator-style optimization pass, docs/FUSION.md).

    Runs between parsing and planning when [enable_fusion] is set.
    Adjacent [#pragma acc parallel loop] statements fuse into one kernel
    when (a) both are plain data-parallel maps (no clauses, reductions,
    localaccess windows, or nested pragmas), (b) their normalized
    iteration spaces are identical pure expressions, (c) every array
    dependence crossing the seam is provably iteration-local (literal
    affine subscripts with matching coefficients touching the same
    element only in the same iteration), and (d) the cost model finds
    the saved launch overhead plus reconciliation bytes outweigh the
    occupancy-pressure proxy of the bigger body. Arrays whose entire
    life is one fused body (one [create] clause, one host declaration,
    literal-affine top-level sites that are written before read)
    contract to kernel-local scalars and leave the darray/coherence
    layer entirely. *)

open Mgacc_minic

type summary = {
  groups : (Loc.t * int list) list;
      (** every surviving parallel loop (fused or not), mapped to the
          {e original} loop ids it absorbed — singletons for untouched
          loops, so labels keep naming source loops after positions
          shift *)
  contracted : string list;  (** arrays scalarized out of existence *)
}

val empty_summary : summary

val apply : Ast.program -> Ast.program * summary
(** Rewrite the program. Programs with no legal profitable fusion are
    returned with identical structure (and an identity summary). *)

(** {2 Cost-model tunables (documented in docs/FUSION.md)} *)
