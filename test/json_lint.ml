(* Lint files with the strict Metrics.Json parser; exit 1 naming the
   first offence.  The paper-figure golden and the smoke matrix in
   bench/ run this over every summary `vswapper_sim run --json` emits,
   so an invalid byte (like the old `+2.943` delta) fails `dune
   runtest` instead of the next consumer. *)
let () =
  let ok = ref true in
  Array.iteri
    (fun i file ->
      if i > 0 then begin
        let ic = open_in_bin file in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Metrics.Json.validate s with
        | Ok () -> ()
        | Error msg ->
            Printf.eprintf "%s: invalid JSON: %s\n" file msg;
            ok := false
      end)
    Sys.argv;
  if not !ok then exit 1
