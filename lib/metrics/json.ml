(* Strict RFC 8259 JSON parser used to lint the --json summary files.

   The point of strictness: the bench writer once emitted positive
   deltas as [+2.943] (printf %+.3f), which stock parsers reject, so a
   permissive hand-rolled checker would have waved the bug through.
   This parser accepts exactly the RFC grammar — no leading '+', no
   leading zeros, no trailing commas, no comments, one top-level
   value. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Bad of int * string

let fail pos msg = raise (Bad (pos, msg))

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | Some _ | None -> continue_ := false
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st.pos (Printf.sprintf "expected %C, got %C" c c')
  | None -> fail st.pos (Printf.sprintf "expected %C, got end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" word)

let is_digit = function '0' .. '9' -> true | _ -> false

let parse_number st =
  let start = st.pos in
  (match peek st with Some '-' -> advance st | _ -> ());
  (* int part: '0' alone, or [1-9] digits — no leading zeros, and a
     leading '+' never reaches here (it is not a value start). *)
  (match peek st with
  | Some '0' -> (
      advance st;
      match peek st with
      | Some c when is_digit c -> fail st.pos "leading zero"
      | _ -> ())
  | Some c when is_digit c ->
      while match peek st with Some c -> is_digit c | None -> false do
        advance st
      done
  | _ -> fail st.pos "malformed number");
  (match peek st with
  | Some '.' -> (
      advance st;
      match peek st with
      | Some c when is_digit c ->
          while match peek st with Some c -> is_digit c | None -> false do
            advance st
          done
      | _ -> fail st.pos "digit required after decimal point")
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') -> (
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      match peek st with
      | Some c when is_digit c ->
          while match peek st with Some c -> is_digit c | None -> false do
            advance st
          done
      | _ -> fail st.pos "digit required in exponent")
  | _ -> ());
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Number f
  | None -> fail start ("unreadable number " ^ s)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some (('"' | '\\' | '/') as c) ->
            advance st;
            Buffer.add_char b c;
            go ()
        | Some 'b' -> advance st; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char b '\012'; go ()
        | Some 'n' -> advance st; Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance st; Buffer.add_char b '\r'; go ()
        | Some 't' -> advance st; Buffer.add_char b '\t'; go ()
        | Some 'u' ->
            advance st;
            for _ = 1 to 4 do
              match peek st with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance st
              | _ -> fail st.pos "bad \\u escape"
            done;
            Buffer.add_char b '?';
            go ()
        | Some c -> fail st.pos (Printf.sprintf "bad escape \\%C" c)
        | None -> fail st.pos "unterminated escape")
    | Some c when Char.code c < 0x20 ->
        fail st.pos "unescaped control character in string"
    | Some c ->
        advance st;
        Buffer.add_char b c;
        go ()
  in
  go ();
  String (Buffer.contents b)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> parse_string st
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected %C" c)
  | None -> fail st.pos "unexpected end of input"

and parse_obj st =
  expect st '{';
  skip_ws st;
  match peek st with
  | Some '}' ->
      advance st;
      Obj []
  | _ ->
      let rec members acc =
        skip_ws st;
        let key =
          match parse_string st with String s -> s | _ -> assert false
        in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
            advance st;
            members ((key, v) :: acc)
        | Some '}' ->
            advance st;
            Obj (List.rev ((key, v) :: acc))
        | _ -> fail st.pos "expected ',' or '}' in object"
      in
      members []

and parse_list st =
  expect st '[';
  skip_ws st;
  match peek st with
  | Some ']' ->
      advance st;
      List []
  | _ ->
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
            advance st;
            elements (v :: acc)
        | Some ']' ->
            advance st;
            List (List.rev (v :: acc))
        | _ -> fail st.pos "expected ',' or ']' in array"
      in
      elements []

let parse s =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail st.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (pos, msg) ->
      Error (Printf.sprintf "at byte %d: %s" pos msg)

let validate s = Result.map (fun _ -> ()) (parse s)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
