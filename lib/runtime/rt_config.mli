(** Runtime configuration: the machine, the GPU count, and the knobs the
    evaluation ablates. *)

type coherence =
  | Eager  (** reconcile every replica after every kernel (paper §IV-D) *)
  | Lazy
      (** consumer-driven: ship only the intervals the next reader's
          window covers, defer the rest and pull on demand
          (docs/COHERENCE.md) *)

type collective =
  | Direct  (** every logical transfer ships point-to-point, bit-identical
                to the original runtime *)
  | Ring
      (** broadcast-shaped transfer groups are lowered to node-grouped,
          segment-pipelined rings (docs/MODEL.md "Collectives") *)
  | Auto
      (** per-group NCCL-style cost model picks direct, ring or
          hierarchical staging from payload size and topology *)

type t = {
  machine : Mgacc_gpusim.Machine.t;
  num_gpus : int;  (** devices actually used (<= machine's) *)
  chunk_bytes : int;  (** second-level dirty-bit chunk payload size *)
  two_level_dirty : bool;  (** ablation B: false = single-level dirty bits *)
  overlap : bool;
      (** dependency-driven communication/computation overlap: gate each
          transfer and replay on the events it actually depends on instead
          of the bulk-synchronous barrier chain (docs/OVERLAP.md). [false]
          keeps the original barrier semantics bit-for-bit. *)
  coherence : coherence;
      (** replica-reconciliation policy: both run the same merges and
          differ in three choices (docs/COHERENCE.md). [Eager] (the
          paper's) gives every destination a whole-array read window,
          ships dirty chunks and broadcasts reduction results as a star;
          [Lazy] ships ranged runs inside the next reader's window,
          defers the rest, tracks per-replica validity intervals and
          broadcasts down a binomial tree or defers. *)
  collective : collective;
      (** how broadcast-shaped transfer groups are scheduled on the
          fabric. [Direct] keeps the legacy point-to-point stars
          bit-for-bit. *)
  translator : Mgacc_translator.Kernel_plan.options;
  schedule : Mgacc_sched.Policy.t;
      (** iteration-partitioning policy (default: the paper's equal split) *)
  keep_resident : bool;
      (** fleet warm-pool mode: keep device allocations alive across data
          regions and at session finish (flushing only copyout data), so
          the fleet's admission controller can later evict them with real
          spill traffic. [false] keeps the classic release-at-region-exit
          semantics bit-for-bit. *)
}

val make :
  ?num_gpus:int ->
  ?chunk_bytes:int ->
  ?two_level_dirty:bool ->
  ?overlap:bool ->
  ?coherence:coherence ->
  ?collective:collective ->
  ?translator:Mgacc_translator.Kernel_plan.options ->
  ?schedule:Mgacc_sched.Policy.t ->
  ?keep_resident:bool ->
  Mgacc_gpusim.Machine.t ->
  t
(** Defaults: all of the machine's GPUs, 1 MB chunks (the paper's choice),
    two-level dirty bits, overlap off (barrier semantics), eager
    coherence (the paper's reconcile-every-replica protocol), direct
    collectives (legacy point-to-point schedules), the translator's default options
    (placement, layout and miss-check optimizations on; fusion off; 1-D
    decomposition) and the equal-split schedule. *)

val lazy_coherence : t -> bool
(** [coherence = Lazy] and more than one GPU (with a single replica the
    eager and lazy protocols coincide, so the lazy bookkeeping is
    skipped). *)

val planned_collectives : t -> bool
(** [collective <> Direct] and more than one GPU (no collective exists
    on one device). *)

(** {1 Mode switches}

    The one place a run's mode switches are named and spelled: the CLI
    builds its [--overlap], [--coherence], [--collective], [--fuse] and
    [--decomp] flags from {!switches}, and every other caller that names
    a mode by its spelling goes through {!find} and {!set}. *)

type switch = {
  name : string;  (** the CLI flag (without dashes), also its JSON key *)
  spellings : string list;
      (** every accepted value, the default first: the first spelling is
          what {!make} gives *)
  doc : string;  (** the flag's help text *)
  read : t -> string;  (** the spelling of the field's current value *)
  write : t -> string -> t option;
      (** the config with the field set to a spelling's value; [None] for
          an unknown spelling. Every other field is left alone. *)
}

val switches : switch list
(** [overlap], [coherence], [collective], [fuse] and [decomp], in that
    order. [fuse] and [decomp] write [translator.enable_fusion] and
    [translator.enable_decomp2d]. *)

val find : string -> switch
(** The switch of that name. Raises [Invalid_argument] for a name not in
    {!switches} (a caller's bug, not a user's input). *)

val set : t -> string -> string -> (t, string) result
(** [set t name value] sets switch [name] to the value spelled [value].
    An unknown spelling is [Error "unknown <name> mode \"<value>\" (a|b)"],
    listing the switch's spellings. *)
