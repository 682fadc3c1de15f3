(** Deterministic synthetic workload generation.

    The benchmark programs generate their inputs *inside* the mini-C source
    with this exact LCG, so the OpenMP, PGI-style and proposal versions all
    see identical data; the hand-written CUDA baselines regenerate the same
    data here in OCaml. {!lcg_next} must therefore match the mini-C
    expression [seed = (seed * 1103515245 + 12345) % 2147483648] bit for
    bit (all values fit OCaml's 63-bit ints). *)

val lcg_next : int -> int
(** One LCG step; the state is also the output (in [\[0, 2^31)]). *)

val lcg_c_snippet : string
(** The mini-C statement implementing one step (for embedding in sources,
    assumes an int variable [seed]). *)

(** {1 MD (Lennard-Jones with fixed-size neighbor lists)} *)

val md_positions : seed:int -> atoms:int -> float array
(** [3*atoms] coordinates in a cubic box, matching the mini-C generator. *)

val md_neighbors : seed:int -> atoms:int -> max_neighbors:int -> int array
(** Padded neighbor lists: mostly near-ring neighbors with random jumps,
    matching the mini-C generator. *)

(** {1 KMEANS} *)

val kmeans_points : seed:int -> points:int -> features:int -> clusters:int -> float array
(** Clustered feature vectors ([points*features], row-major), matching the
    mini-C generator. *)

(** {1 BFS (padded adjacency)} *)

val bfs_graph :
  seed:int -> nodes:int -> max_degree:int -> int array * int array
(** [(edges, degree)] with [edges] sized [nodes*max_degree] (padded with
    -1) and power-law-ish degrees, matching the mini-C generator. *)
