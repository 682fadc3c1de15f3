type t = {
  mutex : Mutex.t;
  wake : Condition.t;  (* workers: a new job, or shutdown *)
  idle : Condition.t;  (* the caller: the job's last task done, or a worker out of its job *)
  next : int Atomic.t;  (* the job's next unclaimed task *)
  finished : int Atomic.t;  (* tasks of the job that have returned or raised *)
  mutable job : int -> unit;
  mutable tasks : int;
  mutable generation : int;  (* jobs published so far *)
  mutable inside : int;  (* workers holding the job's fields *)
  mutable failure : (int * exn) option;  (* the lowest task that raised *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

let nop (_ : int) = ()

let record_failure t k e =
  Mutex.lock t.mutex;
  (match t.failure with Some (j, _) when j < k -> () | _ -> t.failure <- Some (k, e));
  Mutex.unlock t.mutex

let run_one t job k = try job k with e -> record_failure t k e

(* Claim and run tasks until none is left; the number run. *)
let rec drain t job tasks ran =
  let k = Atomic.fetch_and_add t.next 1 in
  if k < tasks then begin
    run_one t job k;
    drain t job tasks (ran + 1)
  end
  else ran

(* A worker copies the job's fields under the lock and counts itself
   inside, so the caller cannot publish the next job until it has left. *)
let rec work t seen =
  Mutex.lock t.mutex;
  while t.generation = seen && not t.stop do
    Condition.wait t.wake t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let generation = t.generation and job = t.job and tasks = t.tasks in
    t.inside <- t.inside + 1;
    Mutex.unlock t.mutex;
    let ran = drain t job tasks 0 in
    ignore (Atomic.fetch_and_add t.finished ran);
    Mutex.lock t.mutex;
    t.inside <- t.inside - 1;
    Condition.signal t.idle;
    Mutex.unlock t.mutex;
    work t generation
  end

let shutdown t =
  Mutex.lock t.mutex;
  let domains = t.domains in
  t.stop <- true;
  t.domains <- [||];
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  Array.iter Domain.join domains

let create ~workers =
  if workers < 0 then invalid_arg "Pool.create: negative worker count";
  let t =
    {
      mutex = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      next = Atomic.make 0;
      finished = Atomic.make 0;
      job = nop;
      tasks = 0;
      generation = 0;
      inside = 0;
      failure = None;
      stop = false;
      domains = [||];
    }
  in
  t.domains <- Array.init workers (fun _ -> Domain.spawn (fun () -> work t 0));
  if workers > 0 then at_exit (fun () -> shutdown t);
  t

let workers t = Array.length t.domains

(* About a millisecond of [Domain.cpu_relax]. *)
let spin_limit = 20_000

let rec spin t tasks n =
  if n > 0 && Atomic.get t.finished < tasks then begin
    Domain.cpu_relax ();
    spin t tasks (n - 1)
  end

let raise_failure t =
  match t.failure with
  | None -> ()
  | Some (_, e) ->
      t.failure <- None;
      raise e

let run t tasks job =
  if tasks <= 1 || Array.length t.domains = 0 then begin
    for k = 0 to tasks - 1 do
      run_one t job k
    done;
    raise_failure t
  end
  else begin
    Mutex.lock t.mutex;
    while t.inside > 0 do
      Condition.wait t.idle t.mutex
    done;
    t.job <- job;
    t.tasks <- tasks;
    Atomic.set t.finished 0;
    Atomic.set t.next 0;
    t.generation <- t.generation + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    let ran = drain t job tasks 0 in
    ignore (Atomic.fetch_and_add t.finished ran);
    (* What is left is running on workers: wait for it awake for a
       while, as a worker that has just finished would take long to wake
       a sleeping caller, then asleep. *)
    spin t tasks spin_limit;
    if Atomic.get t.finished < tasks then begin
      Mutex.lock t.mutex;
      while Atomic.get t.finished < tasks do
        Condition.wait t.idle t.mutex
      done;
      Mutex.unlock t.mutex
    end;
    raise_failure t
  end
