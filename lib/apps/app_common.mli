(** Shared harness for the three benchmark applications.

    Each application exposes a parameterized mini-C source; this module
    runs it as the paper's four variants — OpenMP baseline, "PGI"-style
    single-GPU OpenACC (extension directives ignored), hand-written CUDA
    (provided by the app), and the proposal on N GPUs — and checks GPU
    results against the sequential reference. *)

open Mgacc

type t = {
  name : string;
  source : string;
  result_arrays : string list;
      (** arrays whose final contents define correctness (compared
          element-wise against the sequential reference) *)
}

val sequential : t -> Host_interp.env
(** The semantic reference run. *)

val openmp : ?threads:int -> machine:Machine.t -> t -> Host_interp.env * Report.t

val pgi : machine:Machine.t -> t -> Host_interp.env * Report.t
(** Single GPU, [localaccess]/[reductiontoarray]-driven optimizations
    disabled except basic replication (models a stock OpenACC compiler).
    Array reductions still execute (the program would not compile
    otherwise) but placement and layout optimizations are off. *)

val proposal : Rt_config.t -> t -> Host_interp.env * Report.t
(** The paper's runtime under [config], on its machine and GPU count; the
    report's variant is [proposal(N)] for the config's [num_gpus]. *)

val verify : t -> against:Host_interp.env -> Host_interp.env -> (unit, string) result
(** Compare the result arrays element-wise (1e-6 relative tolerance for
    doubles). *)

val check_exn : t -> against:Host_interp.env -> Host_interp.env -> unit
(** Like {!verify} but raises [Failure]. *)
