(* Fault-plan semantics: decisions are pure hashes of
   (seed, sector, attempt), so they must be reproducible across plans
   with the same seed, independent of query order, persistent for media
   errors and attempt-varying for transient ones. *)

let check = Alcotest.check

let plan ?(seed = 42) ?(media = 0.0) ?(transient = 0.0) ?(degraded = 0.0)
    ?(mult = 4.0) () =
  Faults.Plan.create
    (Faults.Config.make ~seed ~media_rate:media ~transient_rate:transient
       ~degraded_rate:degraded ~degraded_mult:mult ())

let none_injects_nothing () =
  let p = Faults.Plan.none in
  Alcotest.(check bool) "is none" true (Faults.Plan.is_none p);
  for sector = 0 to 999 do
    Alcotest.(check bool) "no error" true
      (Faults.Plan.read_error p ~sector ~nsectors:8 ~attempt:0 = None);
    Alcotest.(check bool) "no degrade" true
      (Faults.Plan.degraded_mult p ~sector = None)
  done

let zero_rates_inject_nothing () =
  let p = plan () in
  for sector = 0 to 999 do
    Alcotest.(check bool) "no error at rate 0" true
      (Faults.Plan.read_error p ~sector ~nsectors:8 ~attempt:0 = None)
  done

let rate_one_always_injects () =
  let p = plan ~media:1.0 () in
  for sector = 0 to 99 do
    check
      Alcotest.(option string)
      "media everywhere" (Some "media")
      (Option.map Faults.Error.to_string
         (Faults.Plan.read_error p ~sector:(sector * 8) ~nsectors:8 ~attempt:3))
  done

let same_seed_same_decisions () =
  let q sector attempt p =
    Faults.Plan.read_error p ~sector ~nsectors:8 ~attempt
  in
  let a = plan ~seed:7 ~media:0.01 ~transient:0.05 ()
  and b = plan ~seed:7 ~media:0.01 ~transient:0.05 () in
  (* Query [b] in reverse order: decisions must not depend on draw
     order, which is what makes parallel sweeps byte-reproducible. *)
  let decisions_a =
    List.init 500 (fun i -> q (i * 8) (i mod 3) a)
  in
  let decisions_b =
    List.rev (List.init 500 (fun i -> q ((499 - i) * 8) ((499 - i) mod 3) b))
  in
  Alcotest.(check bool) "order-independent and seed-stable" true
    (decisions_a = decisions_b);
  let c = plan ~seed:8 ~media:0.01 ~transient:0.05 () in
  let decisions_c = List.init 500 (fun i -> q (i * 8) (i mod 3) c) in
  Alcotest.(check bool) "different seed differs somewhere" true
    (decisions_a <> decisions_c)

let media_errors_persist_across_attempts () =
  (* A media error is a property of the sector: retrying must find it
     again on every attempt. *)
  let p = plan ~media:0.05 () in
  let faulty = ref [] in
  for i = 0 to 999 do
    let sector = i * 8 in
    if Faults.Plan.read_error p ~sector ~nsectors:8 ~attempt:0 <> None then
      faulty := sector :: !faulty
  done;
  Alcotest.(check bool) "found some media errors" true (!faulty <> []);
  List.iter
    (fun sector ->
      for attempt = 0 to 5 do
        check
          Alcotest.(option string)
          "persists" (Some "media")
          (Option.map Faults.Error.to_string
             (Faults.Plan.read_error p ~sector ~nsectors:8 ~attempt))
      done)
    !faulty

let transient_errors_vary_by_attempt () =
  (* Transient decisions re-hash with the attempt number, so at a
     moderate rate a retried read eventually succeeds. *)
  let p = plan ~transient:0.2 () in
  let recovered = ref 0 and hit = ref 0 in
  for i = 0 to 499 do
    let sector = i * 8 in
    if Faults.Plan.read_error p ~sector ~nsectors:8 ~attempt:0 <> None then begin
      incr hit;
      let rec retry attempt =
        if attempt > 8 then ()
        else if Faults.Plan.read_error p ~sector ~nsectors:8 ~attempt = None
        then incr recovered
        else retry (attempt + 1)
      in
      retry 1
    end
  done;
  Alcotest.(check bool) "some transient errors hit" true (!hit > 0);
  Alcotest.(check bool) "retries recover most of them" true
    (!recovered > !hit / 2)

let media_beats_transient () =
  (* When both rates are 1 every read fails, and the hard error wins. *)
  let p = plan ~media:1.0 ~transient:1.0 () in
  check
    Alcotest.(option string)
    "media precedence" (Some "media")
    (Option.map Faults.Error.to_string
       (Faults.Plan.read_error p ~sector:0 ~nsectors:64 ~attempt:0))

let degraded_mult_applies () =
  let p = plan ~degraded:1.0 ~mult:3.5 () in
  (match Faults.Plan.degraded_mult p ~sector:123 with
  | Some m -> check (Alcotest.float 1e-9) "mult" 3.5 m
  | None -> Alcotest.fail "expected degraded latency at rate 1");
  let q = plan ~degraded:0.0 ~mult:3.5 () in
  Alcotest.(check bool) "rate 0 never degrades" true
    (Faults.Plan.degraded_mult q ~sector:123 = None)

let czram_stream_independent_and_persistent () =
  (* The czram pool-corruption stream draws from its own key: enabling
     it must not move where disk read faults land, and a corrupt page
     stays corrupt (no attempt in the key). *)
  let p = plan ~media:0.05 () in
  let disk_faults =
    List.init 500 (fun i ->
        Faults.Plan.read_error p ~sector:(i * 8) ~nsectors:8 ~attempt:0)
  in
  let q = plan ~media:0.05 () in
  let czram_faults = List.init 500 (fun page -> Faults.Plan.czram_error q ~page) in
  let disk_faults' =
    List.init 500 (fun i ->
        Faults.Plan.read_error q ~sector:(i * 8) ~nsectors:8 ~attempt:0)
  in
  Alcotest.(check bool) "disk stream unmoved by czram draws" true
    (disk_faults = disk_faults');
  Alcotest.(check bool) "some pool corruption at 5%" true
    (List.exists (fun e -> e <> None) czram_faults);
  Alcotest.(check bool) "czram pattern differs from the disk's" true
    (czram_faults <> disk_faults);
  List.iteri
    (fun page e ->
      (match e with
      | Some err ->
          check Alcotest.string "corruption is a media error" "media"
            (Faults.Error.to_string err)
      | None -> ());
      Alcotest.(check bool) "re-reading the pool re-finds it" true
        (Faults.Plan.czram_error q ~page = e))
    czram_faults;
  Alcotest.(check bool) "none plan never corrupts" true
    (List.for_all
       (fun page -> Faults.Plan.czram_error Faults.Plan.none ~page = None)
       (List.init 100 Fun.id))

let remote_stream_transient_retryable () =
  (* Link timeouts re-hash the attempt, so a retry can succeed; the
     stream is independent of the disk's transient stream. *)
  let p = plan ~transient:0.3 () in
  let hit = ref 0 and recovered = ref 0 in
  for sector = 0 to 499 do
    match Faults.Plan.remote_error p ~sector ~attempt:0 with
    | Some err ->
        incr hit;
        check Alcotest.string "timeouts are transient" "transient"
          (Faults.Error.to_string err);
        let rec retry attempt =
          if attempt > 8 then ()
          else if Faults.Plan.remote_error p ~sector ~attempt = None then
            incr recovered
          else retry (attempt + 1)
        in
        retry 1
    | None -> ()
  done;
  Alcotest.(check bool) "some link timeouts at 30%" true (!hit > 0);
  Alcotest.(check bool) "retries clear most flaps" true
    (!recovered > !hit / 2);
  let disk =
    List.init 500 (fun s ->
        Faults.Plan.read_error p ~sector:s ~nsectors:8 ~attempt:0)
  in
  let remote =
    List.init 500 (fun s -> Faults.Plan.remote_error p ~sector:s ~attempt:0)
  in
  Alcotest.(check bool) "remote pattern differs from the disk's" true
    (disk <> remote)

(* A rate or multiplier out of range fails at [Plan.create], naming the
   field; a NaN rate would otherwise compare false and inject nothing.
   Rates above 1 pass: the sweeps scale a --fault-rate in [0, 1] by up
   to 10. *)
let bad_config_fails_loudly () =
  let create cfg = ignore (Faults.Plan.create cfg) in
  let d = Faults.Config.none in
  List.iter create
    [
      d;
      Faults.Config.make ~seed:3 ~media_rate:0.01 ~transient_rate:1.0
        ~degraded_rate:10.0 ~degraded_mult:1.0 ~czram_rate:5.0 ();
    ];
  List.iter
    (fun (field, cfg) ->
      match create cfg with
      | () -> Alcotest.failf "%s: out-of-range value accepted" field
      | exception Invalid_argument msg ->
          check Alcotest.string field
            (Printf.sprintf "Faults.Plan.create: Faults.Config.%s must be %s"
               field
               (if field = "degraded_mult" then "finite and >= 1"
                else "finite and >= 0"))
            msg)
    [
      ("media_rate", { d with media_rate = -0.1 });
      ("media_rate", { d with media_rate = Float.nan });
      ("transient_rate", { d with transient_rate = Float.infinity });
      ("transient_rate", { d with transient_rate = -1e-9 });
      ("degraded_rate", { d with degraded_rate = Float.nan });
      ("czram_rate", { d with czram_rate = Float.neg_infinity });
      ("degraded_mult", { d with degraded_mult = 0.5 });
      ("degraded_mult", { d with degraded_mult = Float.nan });
      ("degraded_mult", { d with degraded_mult = Float.infinity });
    ]

let tests =
  [
    ( "faults:plan",
      [
        Alcotest.test_case "none injects nothing" `Quick none_injects_nothing;
        Alcotest.test_case "zero rates" `Quick zero_rates_inject_nothing;
        Alcotest.test_case "rate one" `Quick rate_one_always_injects;
        Alcotest.test_case "seeded determinism" `Quick same_seed_same_decisions;
        Alcotest.test_case "media persists" `Quick
          media_errors_persist_across_attempts;
        Alcotest.test_case "transient varies" `Quick
          transient_errors_vary_by_attempt;
        Alcotest.test_case "media precedence" `Quick media_beats_transient;
        Alcotest.test_case "degraded mult" `Quick degraded_mult_applies;
        Alcotest.test_case "czram stream" `Quick
          czram_stream_independent_and_persistent;
        Alcotest.test_case "remote stream" `Quick
          remote_stream_transient_retryable;
        Alcotest.test_case "bad config fails loudly" `Quick
          bad_config_fails_loudly;
      ] );
  ]
