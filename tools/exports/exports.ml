(* The export census behind tools/check.sh's dead-code ratchets:

     dune exec tools/exports/exports.exe

   run from the repository root. It reads every [lib/*/*.mli] and every
   program source (the [.ml] files under lib, bin, bench, examples and
   tools; tests are not programs) and prints one line per finding:

     bare  lib/D/m.mli v    no program file other than m.ml has the word v
     val   lib/D/m.mli M.v  no program file other than m.ml names M.v
     field lib/D/m.mli M.f  no program file other than m.ml reads field f
     ref   lib/D/m.ml M.r   a top-level ref that no program file sets

   [bare] is the old by-name census, over raw text: any value, field or
   comment of the same name hides an export, so it can only count too
   low. The others match code, with comments and string literals blanked.
   [val] matches qualified names: [M.v] and [P.M.v] for any library path
   [P], an alias [module A = P.M] in the same file or re-exported by
   lib/core/mgacc.ml ([A.v]), and a bare [v] in a file that opens [M]
   ([open], [let open], [include] or a local [M.( .. )]). A record field
   is read by [x.f] (not followed by [<-]) or by [{ f] / [; f], which a
   pattern and a construction share, so the census errs towards "read".
   A ref is set by [r :=], [incr r] or [decr r], named like a value, its
   own module included. *)

let read path = In_channel.with_open_bin path In_channel.input_all
let is_letter c = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c = '_'
let is_upper c = c >= 'A' && c <= 'Z'
let is_word_char c = is_letter c || (c >= '0' && c <= '9')
let is_ident_char c = is_word_char c || c = '\''
let is_space c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

(* The source with comments, string literals (quoted [{id|..|id}] ones
   included) and character literals blanked to spaces, newlines kept. *)
let code_of src =
  let n = String.length src in
  let b = Bytes.of_string src in
  let blank i j =
    for k = i to j - 1 do
      if Bytes.get b k <> '\n' then Bytes.set b k ' '
    done
  in
  (* The index after a string literal whose opening quote is before [i]. *)
  let rec string_end i =
    if i >= n then n
    else match src.[i] with '\\' -> string_end (i + 2) | '"' -> i + 1 | _ -> string_end (i + 1)
  in
  (* The index after a quoted string opening at [i], if one does. *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (src.[!j] = '_' || (src.[!j] >= 'a' && src.[!j] <= 'z')) do
      incr j
    done;
    if !j < n && src.[!j] = '|' then begin
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let k = String.length close in
      let rec find p = if p + k > n then n else if String.sub src p k = close then p + k else find (p + 1) in
      Some (find (!j + 1))
    end
    else None
  in
  (* A quote at [i] opens a character literal ['x'] or ['\..']; any other
     quote is a type variable's or a primed name's. *)
  let char_end i =
    if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then Some (i + 3)
    else if i + 1 < n && src.[i + 1] = '\\' then
      Option.map succ (String.index_from_opt src (i + 2) '\'')
    else None
  in
  let rec code i =
    if i < n then
      let skip j =
        blank i j;
        code j
      in
      match src.[i] with
      | '"' -> skip (string_end (i + 1))
      | '(' when i + 1 < n && src.[i + 1] = '*' -> skip (comment (i + 2) 1)
      | '{' -> ( match quoted_end i with Some j -> skip j | None -> code (i + 1))
      | '\'' when i = 0 || not (is_ident_char src.[i - 1]) -> (
          match char_end i with Some j -> skip j | None -> code (i + 1))
      | _ -> code (i + 1)
  and comment i depth =
    if i + 1 >= n then n
    else if src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment (i + 2) (depth - 1)
    else if src.[i] = '(' && src.[i + 1] = '*' then comment (i + 2) (depth + 1)
    else if src.[i] = '"' then comment (string_end (i + 1)) depth
    else if src.[i] = '{' then
      comment (match quoted_end i with Some j -> j | None -> i + 1) depth
    else comment (i + 1) depth
  in
  code 0;
  Bytes.to_string b

(* A lowercase name in code and the module path written before it. *)
type name = {
  path : string list;
  name : string;
  after_dot : bool;  (** [x.name] or [x.M.name]: a field access *)
  after_brace : bool;  (** [{ name] or [; name] *)
  assigns : bool;  (** followed by [<-] or [:=] *)
  bumps : bool;  (** after [incr] or [decr] *)
}

let ident_end s i =
  let rec go j = if j < String.length s && is_ident_char s.[j] then go (j + 1) else j in
  go i

(* Every lowercase name with its path, in order, and every module path
   followed by [.(] (a local open). *)
let scan code =
  let n = String.length code in
  let names = ref [] and local_opens = ref [] and prev = ref "" in
  let rec go i =
    if i >= n then ()
    else if (not (is_letter code.[i])) || (i > 0 && is_ident_char code.[i - 1]) then go (i + 1)
    else
      let rec path acc j =
        let e = ident_end code j in
        let id = String.sub code j (e - j) in
        if is_upper id.[0] && e + 1 < n && code.[e] = '.' && code.[e + 1] = '(' then begin
          local_opens := List.rev (id :: acc) :: !local_opens;
          e + 1
        end
        else if is_upper id.[0] && e + 1 < n && code.[e] = '.' && is_letter code.[e + 1] then
          path (id :: acc) (e + 1)
        else begin
          if not (is_upper id.[0]) then begin
            let before = ref (i - 1) and after = ref e in
            while !before >= 0 && is_space code.[!before] do
              decr before
            done;
            while !after < n && is_space code.[!after] do
              incr after
            done;
            let op = if !after + 1 < n then String.sub code !after 2 else "" in
            let at_before c = !before >= 0 && code.[!before] = c in
            names :=
              {
                path = List.rev acc;
                name = id;
                after_dot = at_before '.';
                after_brace = at_before '{' || at_before ';';
                assigns = op = "<-" || op = ":=";
                bumps = !prev = "incr" || !prev = "decr";
              }
              :: !names
          end;
          prev := id;
          e
        end
      in
      go (path [] i)
  in
  go 0;
  (List.rev !names, !local_opens)

(* Each match of [re] in [s], as its groups [gs]. *)
let matches re gs s =
  let rec go acc i =
    match Str.search_forward re s i with
    | exception Not_found -> List.rev acc
    | j -> go (List.map (fun g -> Str.matched_group g s) gs :: acc) (j + 1)
  in
  go [] 0

let path_re = "\\([A-Z][A-Za-z0-9_'.]*\\)"
let open_re = Str.regexp ("\\b\\(open!?\\|include\\)[ \n\t]+" ^ path_re)
let alias_re = Str.regexp ("\\bmodule[ \n\t]+\\([A-Z][A-Za-z0-9_']*\\)[ \n\t]*=[ \n\t]*" ^ path_re)
let val_re = Str.regexp "^val \\([a-z_][A-Za-z0-9_']*\\)"
let ref_re = Str.regexp "^let \\([a-z_][A-Za-z0-9_']*\\)[^=\n]*= *ref\\b"
let aliases code = List.map (function [ a; p ] -> (a, p) | _ -> assert false) (matches alias_re [ 1; 2 ] code)
let split_path p = List.filter (( <> ) "") (String.split_on_char '.' p)
let last path = List.nth path (List.length path - 1)

type file = {
  file : string;
  raw : string;
  names : name list;  (** each path resolved to the lib module it names *)
  opens : string list;  (** the lib modules opened anywhere in the file, its own included *)
}

let rec files_under dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if not (Sys.is_directory p) then [ p ]
           else if e = "_build" || e.[0] = '.' then []
           else files_under p)

let module_of path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Whether [w] occurs in [s] as a word, as [grep -w] sees one. *)
let has_word s w =
  let n = String.length s and k = String.length w in
  let re = Str.regexp_string w in
  let rec from i =
    match Str.search_forward re s i with
    | exception Not_found -> false
    | j ->
        ((j = 0 || not (is_word_char s.[j - 1])) && (j + k >= n || not (is_word_char s.[j + k])))
        || from (j + 1)
  in
  from 0

(* The fields of every record in an interface's code. *)
let record_fields code =
  let rec records acc i =
    match String.index_from_opt code i '{' with
    | None -> List.rev acc
    | Some j ->
        let k = String.index_from code j '}' in
        records (String.sub code (j + 1) (k - j - 1) :: acc) (k + 1)
  in
  List.concat_map
    (fun body ->
      List.filter_map
        (fun decl ->
          match String.index_opt decl ':' with
          | None -> None
          | Some c -> (
              match
                List.filter
                  (fun w -> w <> "" && w <> "mutable")
                  (String.split_on_char ' ' (String.map (fun c -> if is_space c then ' ' else c) (String.sub decl 0 c)))
              with
              | [ f ] -> Some f
              | _ -> None))
        (String.split_on_char ';' body))
    (records [] 0)

let () =
  let mlis = List.filter (fun p -> Filename.check_suffix p ".mli") (files_under "lib") in
  let modules = List.map module_of mlis in
  let global = aliases (code_of (read "lib/core/mgacc.ml")) in
  (* The lib module a path names, if any, following aliases. *)
  let resolve local path =
    let rec go fuel m =
      if List.mem m modules || fuel = 0 then Some m
      else
        match List.assoc_opt m local with
        | Some p -> go (fuel - 1) (last (split_path p))
        | None -> ( match List.assoc_opt m global with Some p -> go (fuel - 1) (last (split_path p)) | None -> None)
    in
    if path = [] then None else go 8 (last path)
  in
  let programs =
    List.concat_map files_under [ "lib"; "bin"; "bench"; "examples"; "tools" ]
    |> List.filter (fun p -> Filename.check_suffix p ".ml")
    |> List.map (fun file ->
           let raw = read file in
           let code = code_of raw in
           let names, local_opens = scan code in
           let local = aliases code in
           let names =
             List.filter_map
               (fun (nm : name) ->
                 if nm.path = [] then Some nm
                 else Option.map (fun m -> { nm with path = [ m ] }) (resolve local nm.path))
               names
           in
           let opened = List.map (fun g -> split_path (List.hd g)) (matches open_re [ 2 ] code) in
           let opens = List.filter_map (resolve local) ([ module_of file ] :: opened @ local_opens) in
           { file; raw; names; opens })
  in
  (* Whether a name in [f] is [m]'s: qualified by it, or bare under an open. *)
  let of_module m f (nm : name) = match nm.path with [] -> List.mem m f.opens | p -> p = [ m ] in
  let report = ref [] in
  let say kind file what = report := Printf.sprintf "%s %s %s" kind file what :: !report in
  List.iter
    (fun mli ->
      let m = module_of mli in
      let src = read mli in
      let others = List.filter (fun f -> module_of f.file <> m) programs in
      let used p = List.exists (fun f -> List.exists (p f) f.names) others in
      List.iter
        (fun v ->
          if not (List.exists (fun f -> has_word f.raw v) others) then say "bare" mli v;
          if not (used (fun f nm -> nm.name = v && of_module m f nm)) then say "val" mli (m ^ "." ^ v))
        (List.map List.hd (matches val_re [ 1 ] src));
      List.iter
        (fun fld ->
          let reads _ nm = nm.name = fld && ((nm.after_dot && not nm.assigns) || nm.after_brace) in
          if not (used reads) then say "field" mli (m ^ "." ^ fld))
        (record_fields (code_of src)))
    mlis;
  List.iter
    (fun f ->
      if String.starts_with ~prefix:"lib/" f.file then
        let m = module_of f.file in
        List.iter
          (fun g ->
            let r = List.hd g in
            let sets file nm = nm.name = r && (nm.assigns || nm.bumps) && of_module m file nm in
            if not (List.exists (fun file -> List.exists (sets file) file.names) programs) then
              say "ref" f.file (m ^ "." ^ r))
          (matches ref_re [ 1 ] (code_of f.raw)))
    programs;
  List.iter print_endline (List.sort compare !report)
