(* Table 1: lines of code of VSwapper.  We report the paper's numbers for
   the KVM implementation next to the line counts of this OCaml
   reproduction's core components (counted from the source tree when it
   is reachable from the working directory). *)

let count_lines path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    Some !n
  with Sys_error _ -> None

let rec find_root dir depth =
  if depth > 6 then None
  else if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
  else find_root (Filename.concat dir Filename.parent_dir_name) (depth + 1)

let component_loc root files =
  List.fold_left
    (fun acc f ->
      match (acc, count_lines (Filename.concat root f)) with
      | Some a, Some b -> Some (a + b)
      | _ -> None)
    (Some 0) files

let run ~scale:_ =
  let root = find_root (Sys.getcwd ()) 0 in
  let loc files =
    match root with
    | None -> "n/a"
    | Some r -> (
        match component_loc r files with
        | Some n -> string_of_int n
        | None -> "n/a")
  in
  let mapper = loc [ "lib/core/mapper.ml"; "lib/core/mapper.mli" ] in
  let preventer = loc [ "lib/core/preventer.ml"; "lib/core/preventer.mli" ] in
  Metrics.Table.render
    ~title:"lines of code of the VSwapper components"
    ~headers:
      [ "component"; "paper user"; "paper kernel"; "paper sum"; "this repro" ]
    [
      [ "Swap Mapper"; "174"; "235"; "409"; mapper ];
      [ "False Reads Preventer"; "10"; "1964"; "1974"; preventer ];
    ]

let exp =
  Exp.make ~id:"tab1" ~title:"VSwapper implementation size"
    ~paper_claim:
      "Mapper: 409 lines (174 user + 235 kernel); Preventer: 1974 lines (10 \
       user + 1964 kernel); total 2383"
    run
