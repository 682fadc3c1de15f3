(** Closure compilation of mini-C: the one evaluator of the language.

    Code is lowered once ({!Lower}) to the first-order {!Form} and built
    from it into OCaml closures over a slotted {!Frame.t}; running it is
    then just closure application with no name resolution. A
    parallel-loop body compiles to a kernel ({!compile}), which serves
    every execution target — host OpenMP simulation, single-GPU CUDA
    baseline, and each GPU partition of the multi-GPU runtime — differing
    only in the views bound into the frame. Host code compiles through the
    same form and builder ({!host}), with four more forms allowed: user
    function calls, array declarations, [return], and directives, which a
    {!stager} turns into runtime actions.

    {b The form.} A node of the form is a statement, an int operand or a
    double operand, each its own type. An operand is a slot (a variable,
    or the constant slot of a literal), a load, an operator, a builtin
    call or a conversion. A load is a view slot and a subscript that
    {!Lower} classifies once ({!Form.lin}): one slot, [a*b ± c] or [j ±
    c] over int slots, or code. Loads, stores, reduction updates, strips
    and launch-time proofs all read that one classification. A
    commutative int operator has its slot operand on the right, and so
    does an int comparison; reading a slot has no effect, so no order,
    fault or charge moves. A counted loop carries its comparison, counter,
    bound, step and negation, and in a kernel the source of its counter's
    values ({!Form.src}); whether it runs over strips is {!Lower.strips},
    a pure predicate over its lowered body.

    Doubles never cross a closure boundary boxed: a double operand
    compiles to code that leaves its value in a float slot (the
    destination variable's own slot for a declaration or plain
    assignment, else a temporary), and moves through views with the
    slot-passing accessors of {!View.t}. Evaluation order is fixed: the
    right operand of a binary operator runs before the left, a plain
    element assignment runs its value before its subscript, and a
    compound one its subscript first; so a statement with two faults
    raises the same located error whatever closure it builds to.

    {b Kept shapes.} Every user of an operand has one generic closure that
    reads a double operand as code and a slot (a slot's code is a no-op)
    and an int operand as code returning its value; the right operand
    still runs first. A user has a closure of its own for a shape, matched
    over the form, only where an end-to-end workload runs it heavily
    (docs/PERF.md, "Executor shapes kept by the census", gives the runs
    per run, and tier-1 "kernel: inlined passes and kept shapes perf
    gates" times each against an ineligible twin):
    - a slot with a float operator over two loads at linear subscripts,
      fused into one closure (spmv's [s + vals\[i*k + e\] * x\[c\]]);
    - a double comparison of two slots (kmeans's [dist < best]);
    - a double load at a slot subscript into a temporary (spmv's [y\[i\]
      * inv]);
    - an [if] over a slot compared with a slot (spmv's [c >= 0], with an
      [else] bfs's [e == 0]), a slot operator compared with a slot, with
      an [else] (bfs's [seed % 10 < 8]), and a load at a linear subscript
      compared with a slot, without one (bfs's [levels\[i\] == level],
      kmeans's [bc != membership\[i\]]);
    - an int operator over two slots, over two slot operators (bfs's
      [(i + 1) + seed % 2000]) and over code and a slot (bfs's [(i + 1) %
      n], spmv's [(i + 1 + seed % 500) % n]);
    - a plain int assignment or declaration of a slot, a slot operator or
      a load at a linear subscript (all four workloads), and [v = x op b]
      with [b] a slot, which applies the operator itself, to an affine [x]
      (the generators' LCG) or to code (bfs's [j = (i + 1 + seed % 2000) %
      n]);
    - int stores of a slot at a slot, of a slot operator at a slot (bfs's
      [levels\[j\] = level + 1]) and of a slot at a linear subscript
      (bfs's [edges\[i*maxdeg + e\] = j]);
    - a counted loop, and blocks of two to four statements without the
      array loop (all four workloads).

    Division and remainder by a positive int literal [d] need no hardware
    divide: [d = 2^k] is a shift or a mask, with the dividend biased by [d
    - 1] when it is negative so the quotient truncates toward zero; any
    other [d <= 2^30] divides a dividend in [\[0, 2^31)] by [(x * m) lsr
    s], [s = 31 + ceil(log2 d)] and [m = ceil(2^s / d)], which keeps [x *
    m] below [2^63] and is exact (Granlund and Montgomery, PLDI 1994); any
    other dividend, and a larger divisor, takes the hardware [/] or
    [mod]. Every result equals OCaml's [/] and [mod] (C's truncation
    toward zero). A literal 0 stays a located run-time error.

    {b Strips.} A counted loop whose lowered body {!Lower.strips} admits
    (double scalars and, in a kernel, [reductiontoarray] updates of double
    arrays, over double loads at linear subscripts; its doc gives the
    rule) reserves strips when it is built. An entry of two trips or more
    whose loads' first and last elements lie in their views' read windows
    and whose updates' in their views' reduction windows ({!View.t.rwin}),
    under an operator the window accepts, runs one statement at a time
    over strips of 64 trips: each load's first element and move per trip
    are computed once for all its passes, loads read in place,
    accumulators and updates fold in trip order, each update's view is
    marked once, and every scalar declared outside the body, element and
    the counter end bit for bit as one trip at a time leaves them (a
    scalar the body declares is dead after the loop and keeps no last
    value). Any other entry runs one trip at a time and raises what it
    raised before, at the same trip (an entry of one trip costs no less
    over strips). Either way the loop pays its charge once, when it ends.
    A function that host code calls builds its frame per call, so its
    loops run one trip at a time.

    A kernel's frame can be proven for a launch ({!t.prove}): a strip
    operand whose subscript's three slots each have a known source over
    the launch (a literal; a parameter no statement writes, at its bound
    value; the parallel index, over the launch's iterations; or the
    counter of a counted loop enclosing the operand, the strip loop itself
    included, stepping by one from an init of such a slot towards a bound
    of one, which no statement of its body writes) and whose interval of
    elements, from the corners of [a*b] under an overflow guard, lies in
    its window as above (for a load, of an array no update folds into),
    is proven, and no entry of that launch checks it. An entry checks only
    its unproven operands, so a fault keeps its error and its trip. Host
    [main], the OpenMP runner and the sequential path prove nothing and
    check every operand on every entry.

    {b Charges.} A kernel charges the {!Frame.t.cost} of the frame it runs
    in: arithmetic by operator type, and array traffic by the coalescing
    mode the [classify] callback assigns to each syntactic access site
    (this is where the data-layout transformation changes the accounting).
    The charges are static, a fold over the form: each {e segment}, a
    piece of straight-line code that, once started, runs every operation
    in it exactly once unless it faults (a block up to and including its
    first statement that can jump, each [if] and [?:] branch, the right
    side of [&&] and [||], a loop's test, step and body, and a parallel
    iteration), sums an int op per int operator, comparison, [if] and
    [?:], a flop per float operator, double comparison and negation, a
    builtin's own cost, per load its access class, and per linear
    subscript its class's int ops, and pays that sum with one add when it
    starts, and nothing when it is zero. A counted loop cannot jump, so it
    counts its trips and pays once when it ends: (body + 3 int ops) per
    trip, plus 2 for the test that ends it, and 1 more per test for a
    negated bound. The totals equal those of charging each operation as it
    runs, except after a fault: an operation that raises ([Bounds], a
    window violation, a division by zero) leaves the rest of its segment
    paid for and any enclosing counted loop unpaid. No caller reads a
    counter after a fault; the launch that raised is abandoned. Charges
    the runtime's views make themselves (dirty bits, miss checks) are
    dynamic and stay in the views. A kernel frame gets a counter of its
    own, so a compiled kernel is re-entrant. Host code pays nothing.

    A compiled kernel's closures capture no mutable state that runs: the
    segment charges they capture are computed while building and only
    read after, and everything a running iteration writes (slots,
    temporaries, a counted loop's trip count, the cost counter) is in its
    frame or local to the call. So frames of one compiled kernel may run
    on different domains at the same time, each touching only its own
    frame and the views bound in it; the multi-GPU launch relies on this
    ([Mgacc_runtime.Launch]). Host code is single-domain.

    Loads read in place: a subscript inside the view's read window
    ({!View.t.lo}) is one checked read of the view's backing array, and
    only one outside it calls the view's accessor ([load_f], [get_i]), so
    a bad read raises what the accessor raises; every load, fused or not,
    goes through one read helper. Stores write in place the same way
    inside the view's write window ({!View.t.whi}), which only host arrays
    open, and call [store_f]/[set_i] outside it, so a device view's dirty
    marks, ownership and miss checks see every write and a bad host store
    still raises [View.Bounds]. Reduction updates go through the
    accessors, except over strips.

    Kernel restrictions enforced when lowering (with located errors): no
    user function calls, no array declarations, no [return], and no data
    or update directives inside a kernel body, and a [reductiontoarray]
    statement must be a reduction with its declared operator. Conditions
    test non-zero in their own type; integer division and modulo by zero
    raise a located {!Loc.Error}. *)

open Mgacc_minic

type t = {
  run_iter : Frame.t -> int -> unit;  (** execute one iteration at index i *)
  make_frame : unit -> Frame.t;
      (** a fresh frame with a zeroed cost counter, which the iterations
          run in it charge *)
  prove : Frame.t -> lo:int -> hi:int -> unit;
      (** [prove fr ~lo ~hi], once the frame's views and scalars are bound
          for a launch of iterations [\[lo, hi)] (non-empty), records in
          the frame's proof slots which strip operands stay inside their
          windows on every entry of that launch ("Strips" above). The frame
          must then run only iterations of [\[lo, hi)], with those views
          and scalars. It allocates nothing, and does nothing for a kernel
          with no strip loop. A frame never proven checks every operand on
          every entry. *)
  params : (string * Frame.slot * Ast.typ) list;
      (** parameter binding sites, in the order given to {!compile} *)
}

val compile :
  loop:Mgacc_analysis.Loop_info.t ->
  params:(string * Ast.typ) list ->
  classify:(string -> Ast.expr -> Mgacc_analysis.Coalesce.mode) ->
  t
(** [params] lists the kernel's free variables (loop-uniform scalars and
    arrays) with their host types; [classify array subscript] chooses the
    coalescing mode charged for that access site. A [break] or [continue]
    escaping an iteration raises a located {!Loc.Error} when it runs; a
    body a kernel may not hold raises one here. *)

(** {1 Host code} *)

type stager = {
  directive : Frame.scope -> Ast.stmt -> (Frame.t -> unit) -> Frame.t -> unit;
      (** [directive scope pragma inner] is called once per data or update
          directive site, with the names in force at the pragma and the
          compiled annotated statement; it returns what the site does. *)
  parallel_loop :
    Frame.scope ->
    Mgacc_analysis.Loop_info.t ->
    (Frame.t -> int -> int -> unit) ->
    Frame.t ->
    unit;
      (** [parallel_loop scope loop sequential] is called once per
          parallel-loop site, with [loop] normalized ([loop_id] 0) and
          [sequential fr lo hi], which runs iterations [lo, hi) in order in
          the frame (a [break]/[continue] escaping an iteration raises a
          located error); it returns what the site does. *)
}

type host
(** A program's host code, compiled function by function on first use. *)

val host : Ast.program -> stager -> host
(** The program must already typecheck. *)

val compile_function : host -> string -> Frame.scope * (unit -> Frame.t)
(** Compile the named function and its callees. Returns the names in force
    at the end of its body and a runner that executes the body in a fresh
    frame and returns that frame. *)

val eval_int : host -> Frame.scope -> Ast.expr -> Frame.t -> int
val eval_float : host -> Frame.scope -> Ast.expr -> Frame.t -> float
(** Compile an expression against the names of [scope] and run it on a
    frame of the function that scope belongs to. [eval_float] is where a
    double leaves the executor boxed. *)
