type t = { file : string; line : int; col : int }

let dummy = { file = "<none>"; line = 0; col = 0 }
let make ~file ~line ~col = { file; line; col }
let to_string t = Printf.sprintf "%s:%d:%d" t.file t.line t.col

exception Error of t * string

let error loc fmt = Format.kasprintf (fun msg -> raise (Error (loc, msg))) fmt
