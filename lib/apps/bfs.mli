(** BFS: level-synchronized breadth-first search over a padded adjacency
    structure (modeled on the SHOC graph-traversal benchmark).

    One parallel loop executed once per frontier level (~10 kernel
    executions on the default graph). The adjacency array carries
    [localaccess stride(max_degree)] and the degree array [stride(1)] — 2
    of the 3 arrays, matching the paper's Table II — while the levels
    array is written through data-dependent indices and must stay
    replicated: its dirty-chunk reconciliation is the heavy irregular
    GPU-GPU traffic that makes BFS the paper's hardest case.

    Note on determinism: the final [levels] array is deterministic (every
    same-sweep writer stores the same value), but the [changed] counter can
    exceed the sequential count when several GPUs discover the same node —
    it is only used as a continue flag, exactly as in SHOC. *)

type params = { nodes : int; max_degree : int; seed : int }

val default_params : params
(** 50000 nodes, max degree 16. *)

val paper_params : params
(** ~1M nodes x 112 max degree: the paper's 444.9 MB footprint. *)

val app : params -> App_common.t

val run_cuda : machine:Mgacc.Machine.t -> params -> int array * Mgacc.Report.t
(** Hand-written single-GPU CUDA baseline; returns the levels array. *)
