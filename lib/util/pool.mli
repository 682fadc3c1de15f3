(** A fixed set of worker domains that run one job's tasks with the caller.

    A job is [n] tasks, numbered [0 .. n-1]; {!run} publishes it, the
    caller and every worker claim tasks from one atomic counter until none
    is left, and {!run} returns once every task has returned. Workers
    persist from job to job and block on a condition variable between
    jobs; none is ever spawned after {!create}.

    One domain drives a pool at a time, and a task must not call {!run}
    on its own pool. Whatever a task writes is visible to the caller when
    {!run} returns, and whatever the caller wrote before {!run} is visible
    to every task. *)

type t

val create : workers:int -> t
(** Spawn [workers] domains ([0] runs every job inline on the caller).
    They are joined at exit. Raises [Invalid_argument] on a negative
    count. *)

val workers : t -> int
(** The worker domains started. Only "pool: zero workers run a job
    inline, in order" and "pool: 10,000 jobs reuse the same workers" read
    it. *)

val run : t -> int -> (int -> unit) -> unit
(** [run t n f] runs [f k] once for every [k] in [\[0, n)], in no set
    order and on no set domain; a job of one task, and every job of a
    zero-worker pool, runs inline in index order. If tasks raise, every
    task still runs, and [run] then raises the exception of the lowest
    task that raised; the workers go on to the next job. Allocates
    nothing unless a task raises. *)

val shutdown : t -> unit
(** Stop and join the workers; later jobs run inline. Idempotent. Runs keep
    their pool until the program exits; the pool tests stop the pools they
    start. *)
