type t = {
  mutable flops : int;
  mutable int_ops : int;
  mutable coalesced_bytes : int;
  mutable broadcast_bytes : int;
  mutable random_accesses : int;
  mutable random_bytes : int;
}

let zero () =
  {
    flops = 0;
    int_ops = 0;
    coalesced_bytes = 0;
    broadcast_bytes = 0;
    random_accesses = 0;
    random_bytes = 0;
  }

let scale t k =
  {
    flops = t.flops * k;
    int_ops = t.int_ops * k;
    coalesced_bytes = t.coalesced_bytes * k;
    broadcast_bytes = t.broadcast_bytes * k;
    random_accesses = t.random_accesses * k;
    random_bytes = t.random_bytes * k;
  }

let is_zero t =
  t.flops = 0 && t.int_ops = 0 && t.coalesced_bytes = 0 && t.broadcast_bytes = 0
  && t.random_accesses = 0 && t.random_bytes = 0
