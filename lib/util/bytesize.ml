let kib = 1024
let mib = 1024 * 1024
let gib = 1024 * 1024 * 1024

let to_string n =
  let f = float_of_int n in
  if n >= gib then Printf.sprintf "%.1fGB" (f /. float_of_int gib)
  else if n >= mib then Printf.sprintf "%.1fMB" (f /. float_of_int mib)
  else if n >= kib then Printf.sprintf "%.1fKB" (f /. float_of_int kib)
  else Printf.sprintf "%dB" n
