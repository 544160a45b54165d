(* The testkit's own contract: seeded generation is deterministic, valid
   cases really validate, shrinking terminates, corpus files round-trip,
   the oracle registry is coherent, and a whole fuzz session is a pure
   function of (oracles, corpus, seed, budget). *)

open Storage_model
open Storage_spec
module Engine = Storage_engine
module Testkit = Storage_testkit
module Seeded = Testkit.Seeded
module Gen = Testkit.Gen
module Shrink = Testkit.Shrink
module Oracle = Testkit.Oracle
module Corpus = Testkit.Corpus
module Fuzz = Testkit.Fuzz

let bytes_of x = Marshal.to_string x [ Marshal.No_sharing ]

let check_same_bytes msg a b =
  Alcotest.(check bool) msg true (String.equal (bytes_of a) (bytes_of b))

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* ------------------------------------------------------------------ *)
(* Seeded pools *)

let test_draw_deterministic () =
  let pool = Seeded.pool () in
  let a = Seeded.draw ~seed:[| 17; 2004 |] ~n:50 pool in
  let b = Seeded.draw ~seed:[| 17; 2004 |] ~n:50 pool in
  let names ds = List.map (fun d -> d.Design.name) ds in
  Alcotest.(check (list string)) "same seed, same draw" (names a) (names b);
  let c = Seeded.draw ~seed:[| 18; 2004 |] ~n:50 pool in
  Alcotest.(check bool) "different seed, different draw" false
    (names a = names c)

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_case_deterministic () =
  (* Same per-case seed, twice, compared before any evaluation touches
     the derived memo: byte-identical designs and scenarios. *)
  List.iter
    (fun seed ->
      let a = Gen.case ~seed ~index:0 in
      let b = Gen.case ~seed ~index:0 in
      check_same_bytes
        (Printf.sprintf "design bytes for seed 0x%Lx" seed)
        a.Gen.design b.Gen.design;
      check_same_bytes
        (Printf.sprintf "scenarios for seed 0x%Lx" seed)
        a.Gen.scenarios b.Gen.scenarios;
      Alcotest.(check bool) "same kind" true (a.Gen.kind = b.Gen.kind))
    [ 1L; 42L; 0xDEADBEEFL; -7L ]

let test_valid_cases_validate () =
  let master = Storage_workload.Prng.create ~seed:2004L in
  for index = 0 to 29 do
    let seed = Storage_workload.Prng.next_int64 master in
    let case = Gen.case ~seed ~index in
    Alcotest.(check bool) "scenarios non-empty" true
      (case.Gen.scenarios <> []);
    match case.Gen.kind with
    | Gen.Valid ->
      Alcotest.(check bool)
        (Printf.sprintf "valid case %d validates" index)
        true
        (Result.is_ok (Design.validate case.Gen.design))
    | Gen.Mutant f ->
      Alcotest.(check bool) "mutant factor in range" true
        (f >= 0.25 *. 0.85 && f <= 64. *. 1.15)
  done

let test_frontier_factor () =
  let d = List.hd (Seeded.pool ()) in
  match Gen.frontier_factor d with
  | Some f ->
    Alcotest.(check bool) "factor in [0.25, 64]" true (f >= 0.25 && f <= 64.);
    Alcotest.(check bool) "frontier factor breaks validation" true
      (Result.is_error (Design.validate (Seeded.scaled ~factor:f d)))
  | None ->
    Alcotest.(check bool) "still valid at 64x" true
      (Result.is_ok (Design.validate (Seeded.scaled ~factor:64. d)))

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let test_shrink_terminates () =
  let d = List.hd (Seeded.pool ()) in
  (* keep = always: shrinks all the way to a fixpoint (or the cap). *)
  let shrunk, steps = Shrink.minimize ~keep:(fun _ -> true) d in
  Alcotest.(check bool) "bounded" true (steps <= 64);
  Alcotest.(check bool) "fixpoint or cap" true
    (steps = 64 || Shrink.candidates shrunk = []);
  (* keep = never: the original survives untouched. *)
  let same, zero = Shrink.minimize ~keep:(fun _ -> false) d in
  Alcotest.(check int) "no step taken" 0 zero;
  Alcotest.(check bool) "unchanged" true (same == d);
  (* Determinism: same keep, same path. *)
  let shrunk', steps' = Shrink.minimize ~keep:(fun _ -> true) d in
  Alcotest.(check int) "same step count" steps steps';
  check_same_bytes "same shrunk design" shrunk shrunk'

(* ------------------------------------------------------------------ *)
(* Spec writer and corpus round-trips *)

let sample_entry () =
  let case = Gen.case ~seed:0x5EEDL ~index:3 in
  {
    Corpus.oracle = "self-test-fail";
    seed = 0x5EEDL;
    case_index = 3;
    message = "synthetic failure\nwith a newline to sanitize";
    shrink_steps = 2;
    design = case.Gen.design;
    scenarios = case.Gen.scenarios;
  }

let test_spec_writer_fixpoint () =
  let case = Gen.case ~seed:0xF00DL ~index:0 in
  let s1 = ok (Spec.design_to_string ~scenarios:case.Gen.scenarios case.Gen.design) in
  let d = ok (Spec.design_of_string ~validate:false s1) in
  let scs = ok (Spec.scenarios_of_string s1) in
  let s2 = ok (Spec.design_to_string ~scenarios:scs d) in
  Alcotest.(check string) "write . parse . write = write" s1 s2;
  Alcotest.(check (list string)) "scenario names survive"
    (List.map fst case.Gen.scenarios)
    (List.map fst scs)

let test_corpus_roundtrip () =
  let e = sample_entry () in
  let s1 = ok (Corpus.to_string e) in
  let e' = ok (Corpus.of_string s1) in
  Alcotest.(check string) "oracle" e.Corpus.oracle e'.Corpus.oracle;
  Alcotest.(check int64) "seed" e.Corpus.seed e'.Corpus.seed;
  Alcotest.(check int) "case index" e.Corpus.case_index e'.Corpus.case_index;
  Alcotest.(check int) "shrink steps" e.Corpus.shrink_steps
    e'.Corpus.shrink_steps;
  Alcotest.(check string) "message survives, one line"
    "synthetic failure with a newline to sanitize" e'.Corpus.message;
  Alcotest.(check (list string)) "scenario names"
    (List.map fst e.Corpus.scenarios)
    (List.map fst e'.Corpus.scenarios);
  let s2 = ok (Corpus.to_string e') in
  Alcotest.(check string) "serialization fixpoint" s1 s2;
  Alcotest.(check string) "filename" "self-test-fail-case3-0x5eed.ssdep"
    (Corpus.filename e)

(* ------------------------------------------------------------------ *)
(* Oracle registry *)

let test_registry () =
  let names = List.map (fun o -> o.Oracle.name) Oracle.all in
  Alcotest.(check int) "unique names"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "self-test-fail not in defaults" false
    (List.exists (fun o -> o.Oracle.name = "self-test-fail") Oracle.defaults);
  Alcotest.(check int) "all = defaults + self-test"
    (List.length Oracle.defaults + 1)
    (List.length Oracle.all);
  Alcotest.(check bool) "find self-test-fail" true
    (Oracle.find "self-test-fail" <> None);
  Alcotest.(check bool) "find bogus" true (Oracle.find "bogus" = None)

let with_ctx f =
  let engine = Engine.create () in
  let aux = Engine.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () ->
      Engine.shutdown engine;
      Engine.shutdown aux)
    (fun () -> f { Oracle.engine; aux })

let test_defaults_hold_on_pool () =
  (* Every production oracle passes (or skips) on a known-good pool
     design — the fuzzer's clean-run baseline in miniature. *)
  with_ctx @@ fun ctx ->
  let d = List.hd (Seeded.pool ()) in
  let scs =
    Gen.scenarios (Storage_workload.Prng.create ~seed:11L) d
  in
  List.iter
    (fun o ->
      match o.Oracle.check ctx d scs with
      | Oracle.Pass | Oracle.Skip _ -> ()
      | Oracle.Fail msg -> Alcotest.failf "%s failed: %s" o.Oracle.name msg)
    Oracle.defaults

(* ------------------------------------------------------------------ *)
(* Fuzz sessions *)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  dir

let self_test = [ Option.get (Oracle.find "self-test-fail") ]

let finding_strings (o : Fuzz.outcome) =
  List.map (fun f -> ok (Corpus.to_string f.Fuzz.entry)) o.Fuzz.findings

let test_fuzz_deterministic () =
  (* Two sessions, same seed and budget, separate corpus directories:
     identical findings and identical corpus files. The self-test oracle
     fails every case, exercising shrink + persist on each. *)
  Engine.with_engine @@ fun engine ->
  let run dir =
    ok (Fuzz.run ~oracles:self_test ~corpus_dir:dir ~engine ~seed:42L
          ~budget:3 ())
  in
  let dir_a = fresh_dir "ssdep-testkit-a" and dir_b = fresh_dir "ssdep-testkit-b" in
  let a = run dir_a and b = run dir_b in
  Alcotest.(check int) "3 cases" 3 a.Fuzz.cases;
  Alcotest.(check int) "3 findings" 3 (List.length a.Fuzz.findings);
  Alcotest.(check (list string)) "identical findings" (finding_strings a)
    (finding_strings b);
  let listing dir = Array.to_list (Sys.readdir dir) |> List.sort compare in
  Alcotest.(check (list string)) "identical corpus filenames"
    (listing dir_a) (listing dir_b);
  List.iter
    (fun f ->
      let read d = In_channel.with_open_text (Filename.concat d f) In_channel.input_all in
      Alcotest.(check string) ("identical corpus file " ^ f) (read dir_a)
        (read dir_b))
    (listing dir_a)

let test_corpus_replay_and_skip () =
  Engine.with_engine @@ fun engine ->
  let dir = fresh_dir "ssdep-testkit-replay" in
  let seeded =
    ok (Fuzz.run ~oracles:self_test ~corpus_dir:dir ~engine ~seed:7L
          ~budget:1 ())
  in
  Alcotest.(check int) "one finding seeded" 1 (List.length seeded.Fuzz.findings);
  (* Replay with the recorded oracle active: the entry still fails. *)
  let again =
    ok (Fuzz.run ~oracles:Oracle.all ~corpus_dir:dir ~engine ~seed:7L
          ~budget:0 ())
  in
  Alcotest.(check int) "replayed" 1 again.Fuzz.replayed;
  Alcotest.(check int) "not fixed" 0 again.Fuzz.fixed;
  (match again.Fuzz.findings with
  | [ f ] ->
    Alcotest.(check bool) "marked as replay" true f.Fuzz.replayed;
    Alcotest.(check string) "oracle preserved" "self-test-fail"
      f.Fuzz.entry.Corpus.oracle
  | fs -> Alcotest.failf "expected 1 replay finding, got %d" (List.length fs));
  (* Replay with only the production registry: the self-test entry is
     not active, so a default run stays clean — the property that lets a
     demonstration counterexample live in the checked-in corpus. *)
  let default_run =
    ok (Fuzz.run ~corpus_dir:dir ~engine ~seed:7L ~budget:0 ())
  in
  Alcotest.(check int) "inactive oracle not replayed" 0
    default_run.Fuzz.replayed;
  Alcotest.(check int) "no findings" 0 (List.length default_run.Fuzz.findings);
  (* Single-file replay reproduces the failure through Oracle.all... *)
  let path =
    match (List.hd seeded.Fuzz.findings).Fuzz.file with
    | Some p -> p
    | None -> Alcotest.fail "finding not persisted"
  in
  (match ok (Fuzz.replay ~engine path) with
  | Some f ->
    Alcotest.(check bool) "replay marks replayed" true f.Fuzz.replayed
  | None -> Alcotest.fail "replay should still fail");
  (* ...and errors out when the recorded oracle is not in the set. *)
  match Fuzz.replay ~oracles:Oracle.defaults ~engine path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-oracle error"

let t name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "testkit.gen",
      [
        t "draw is seed-deterministic" test_draw_deterministic;
        t "cases are seed-deterministic" test_case_deterministic;
        t "valid cases validate, mutants bounded" test_valid_cases_validate;
        t "frontier factor brackets validity" test_frontier_factor;
      ] );
    ( "testkit.shrink",
      [ t "minimize terminates deterministically" test_shrink_terminates ] );
    ( "testkit.corpus",
      [
        t "spec writer fixpoint" test_spec_writer_fixpoint;
        t "entry round-trip" test_corpus_roundtrip;
      ] );
    ( "testkit.oracle",
      [
        t "registry coherent" test_registry;
        t "defaults pass on pool design" test_defaults_hold_on_pool;
      ] );
    ( "testkit.fuzz",
      [
        t "sessions are reproducible" test_fuzz_deterministic;
        t "corpus replay, fix-skip and single-file replay"
          test_corpus_replay_and_skip;
      ] );
  ]
