type t = Equal | Proportional | Adaptive

let of_string = function
  | "static" | "equal" -> Ok Equal
  | "proportional" -> Ok Proportional
  | "adaptive" -> Ok Adaptive
  | other ->
      Error (Printf.sprintf "unknown schedule %S (static|proportional|adaptive)" other)

let to_string = function
  | Equal -> "static"
  | Proportional -> "proportional"
  | Adaptive -> "adaptive"
