let lcg_next seed = ((seed * 1103515245) + 12345) mod 2147483648

let lcg_c_snippet = "seed = (seed * 1103515245 + 12345) % 2147483648;"

(* The float expressions below must mirror the mini-C sources exactly
   (same operation order) so the CUDA baselines see identical inputs. *)

let md_positions ~seed ~atoms =
  let pos = Array.make (3 * atoms) 0.0 in
  let s = ref seed in
  for i = 0 to (3 * atoms) - 1 do
    s := lcg_next !s;
    pos.(i) <- 100.0 *. float_of_int !s /. 2147483648.0
  done;
  pos

let md_neighbors ~seed ~atoms ~max_neighbors =
  let nl = Array.make (atoms * max_neighbors) 0 in
  let s = ref seed in
  for i = 0 to atoms - 1 do
    for k = 0 to max_neighbors - 1 do
      s := lcg_next !s;
      let r = !s mod 4 in
      s := lcg_next !s;
      let j = if r = 0 then !s mod atoms else (i + 1 + (!s mod 64)) mod atoms in
      nl.((i * max_neighbors) + k) <- j
    done
  done;
  nl

let kmeans_points ~seed ~points ~features ~clusters =
  let x = Array.make (points * features) 0.0 in
  let s = ref seed in
  for i = 0 to points - 1 do
    s := lcg_next !s;
    let c = !s mod clusters in
    for j = 0 to features - 1 do
      s := lcg_next !s;
      x.((i * features) + j) <- (10.0 *. float_of_int c) +. (float_of_int (!s mod 1000) /. 100.0)
    done
  done;
  x

let bfs_graph ~seed ~nodes ~max_degree =
  let edges = Array.make (nodes * max_degree) (-1) in
  let degree = Array.make nodes 0 in
  let s = ref seed in
  for i = 0 to nodes - 1 do
    s := lcg_next !s;
    let deg = 1 + (!s mod max_degree) in
    degree.(i) <- deg;
    for e = 0 to deg - 1 do
      if e = 0 then edges.(i * max_degree) <- (i + 1) mod nodes
      else begin
        s := lcg_next !s;
        let j =
          if !s mod 10 < 8 then (i + 1 + (!s mod 2000)) mod nodes else !s mod nodes
        in
        edges.((i * max_degree) + e) <- j
      end
    done
  done;
  (edges, degree)
