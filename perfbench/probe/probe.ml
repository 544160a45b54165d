(* The benchmark's in-process side. It computes the reference outputs the
   benchmark checks the ssdep binary against, generates the seeded serve
   inputs, and replays each workload in-process with spans around the
   calls into every layer (the traced run). Every subcommand prints JSON
   on stdout: one object, or for serve-inputs one object per request.

     probe grid-ref SCALE RTO_H RPO_H
     probe grid-trace SCALE RTO_H RPO_H BUDGET ANNEAL_SEED TRACE_OUT
     probe fleet-trace PRESET TRIALS YEARS SEED,SEED,... REF_DIR TRACE_OUT
     probe serve-inputs SEED COLD EXAMPLE.ssdep... > inputs.jsonl
     probe serve-trace TRACE_OUT SEED COLD EXAMPLE.ssdep...
     probe calibrate *)

open Storage_units
open Storage_model
module Json = Storage_report.Json
module Engine = Storage_optimize.Engine
module Candidate = Storage_optimize.Candidate
module Objective = Storage_optimize.Objective
module Pareto = Storage_optimize.Pareto
module Solver = Storage_optimize.Solver
module Memo = Storage_parallel.Memo
module Whatif = Storage_presets.Whatif
module Baseline = Storage_presets.Baseline
module Fleet = Storage_fleet.Fleet
module Spec = Storage_spec.Spec

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("probe: " ^ m); exit 2) fmt

let print_json fields = print_endline (Json.to_string (Json.Obj fields))
let seconds ns = float_of_int ns /. 1e9

(* The engine `ssdep` builds for a serial command-line run. *)
let cli_engine () =
  match Engine.of_cli ~jobs:(Some 1) ~stats:false () with
  | Ok e -> e
  | Error m -> fail "%s" m

(* --- calibration --- *)

(* A fixed workload that shares no code with the program but has its
   shape: short-lived allocation, string hashing, float arithmetic and
   sorting. Its time tracks how fast the machine runs OCaml right now. *)
let calibration_kernel () =
  let table = Hashtbl.create 4096 in
  let acc = ref 0. in
  for i = 0 to 199_999 do
    let key = string_of_int (i * 7919 mod 50_021) in
    let v = Option.value ~default:0. (Hashtbl.find_opt table key) in
    Hashtbl.replace table key (v +. sqrt (float_of_int i));
    if i mod 1000 = 0 then
      acc :=
        !acc
        +. List.fold_left ( +. ) 0.
             (List.sort compare
                (List.init 500 (fun j ->
                     float_of_int ((i + (j * 104_729)) mod 977))))
  done;
  !acc

let kernel_ns () =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (calibration_kernel ()));
  Span.now_ns () - t0

(* Work timed in this process one piece after another drifts with the
   machine's speed as run.py's timings do, and is scaled the same way: by
   the kernel's time on either side of it, to a machine on which the
   kernel takes 100 ms. Returns [f ()] and its scaled wall time. *)
let last_kernel_ns = ref 0

let calibrated f =
  if !last_kernel_ns = 0 then last_kernel_ns := kernel_ns ();
  Gc.full_major ();
  let t0 = Span.now_ns () in
  let v = f () in
  let wall = Span.now_ns () - t0 in
  let before = !last_kernel_ns in
  Gc.full_major ();
  last_kernel_ns := kernel_ns ();
  (v, wall * 2 * 100_000_000 / (before + !last_kernel_ns))

let calibrated_off f = calibrated (fun () -> fst (Span.time_off f))

(* --- grid-sweep --- *)

(* The inputs `ssdep optimize --grid-scale S --rto R --rpo P` builds. *)
let grid_inputs ~scale ~rto ~rpo =
  let business =
    Business.make
      ~outage_penalty_rate:(Money_rate.usd_per_hour 50_000.)
      ~loss_penalty_rate:(Money_rate.usd_per_hour 50_000.)
      ~recovery_time_objective:(Duration.hours rto)
      ~recovery_point_objective:(Duration.hours rpo) ()
  in
  ( Whatif.search_kit ~business (),
    Whatif.search_space ~scale (),
    [ Baseline.scenario_array; Baseline.scenario_site ] )

let by_cost a b =
  Money.compare a.Objective.worst_total_cost b.Objective.worst_total_cost

let outcome_fields ~considered ~feasible ~frontier ~best =
  [
    ("considered", Json.Int considered);
    ("feasible", Json.Int feasible);
    ( "frontier",
      Json.List
        (List.map (fun s -> Json.String s.Objective.design.Design.name) frontier)
    );
    ( "best",
      match best with
      | None -> Json.Null
      | Some s -> Json.String s.Objective.design.Design.name );
    ( "best_total_usd",
      match best with
      | None -> Json.Null
      | Some s -> Json.Float (Money.to_usd s.Objective.worst_total_cost) );
  ]

let grid_ref ~scale ~rto ~rpo =
  let kit, space, scenarios = grid_inputs ~scale ~rto ~rpo in
  let engine = cli_engine () in
  let r =
    Storage_optimize.Search.run ~engine (Candidate.enumerate kit space)
      scenarios
  in
  Engine.shutdown engine;
  print_json
    (("grid_points", Json.Int (Candidate.point_count space))
    :: outcome_fields ~considered:r.considered ~feasible:r.feasible_count
         ~frontier:r.frontier ~best:r.best)

(* [Objective.summarize]'s fold over one design's per-scenario reports. *)
let summarize_reports design reports =
  let outlays = (List.hd reports).Evaluate.outlays.Cost.total in
  let worst_penalties =
    List.fold_left
      (fun acc r -> Money.max acc r.Evaluate.penalties.Cost.total)
      Money.zero reports
  in
  {
    Objective.design;
    reports;
    outlays;
    worst_recovery_time =
      List.fold_left
        (fun acc r -> Duration.max acc r.Evaluate.recovery_time)
        Duration.zero reports;
    worst_loss =
      List.fold_left
        (fun acc r ->
          let l = r.Evaluate.data_loss.Data_loss.loss in
          if Data_loss.compare_loss l acc > 0 then l else acc)
        (Data_loss.Updates Duration.zero) reports;
    worst_penalties;
    worst_total_cost = Money.add outlays worst_penalties;
    feasible =
      List.for_all
        (fun r ->
          r.Evaluate.errors = []
          && r.Evaluate.data_loss.Data_loss.loss <> Data_loss.Entire_object
          && Option.value ~default:true r.Evaluate.meets_rto
          && Option.value ~default:true r.Evaluate.meets_rpo)
        reports;
  }

(* One design through the engine's evaluation cache, as
   [Objective.summarize ~engine] does it via [Eval_cache.run_all]: keys
   from the two fingerprints, one memo-table probe per scenario, the
   scenario-independent half prepared once on the first miss. The table
   is the cache's own [Memo], bounded like the command line's. *)
let summarize_cached memo design scenarios =
  let keys =
    Span.record "design.fingerprint" (fun () ->
        List.map (Eval_cache.key design) scenarios)
  in
  let prep =
    lazy (Span.record "evaluate.prepare" (fun () -> Evaluate.prepare design))
  in
  let reports =
    List.map2
      (fun key scenario ->
        Span.record "eval_cache.lookup" (fun () ->
            Memo.find_or_add memo key (fun () ->
                let p = Lazy.force prep in
                Span.record "evaluate.run_prepared" (fun () ->
                    Evaluate.run_prepared p scenario))))
      keys scenarios
  in
  summarize_reports design reports

(* The model stages of every accepted candidate, each timed on its own
   over a fresh enumeration, in [Evaluate]'s order. Attribution only:
   this pass runs under its own root and stays out of the closure sum. *)
let stage_pass kit space scenarios =
  Span.record "attribution" @@ fun () ->
  Seq.iter
    (fun d ->
      if Storage_lint.accepts d then begin
        ignore (Design.validate d);
        ignore
          (Span.record "evaluate.stage.utilization" (fun () ->
               Utilization.compute d));
        ignore
          (Span.record "evaluate.stage.outlays" (fun () -> Cost.outlays d));
        List.iter
          (fun sc ->
            let dl =
              Span.record "evaluate.stage.data_loss" (fun () ->
                  Data_loss.compute d sc)
            in
            let rt =
              Span.record "evaluate.stage.recovery_time" (fun () ->
                  match dl.Data_loss.source_level with
                  | None | Some 0 -> Duration.zero
                  | Some source_level -> (
                    match Recovery_time.compute d sc ~source_level with
                    | Ok t -> t.Recovery_time.total
                    | Error _ -> Duration.zero))
            in
            ignore
              (Span.record "evaluate.stage.penalties" (fun () ->
                   Cost.penalties d.Design.business ~recovery_time:rt
                     ~loss:dl.Data_loss.loss)))
          scenarios
      end)
    (Candidate.enumerate kit space)

let span_fields table =
  let get name =
    match Hashtbl.find_opt table name with
    | Some t -> t
    | None -> { Span.calls = 0; self_ns = 0; total_ns = 0; self_words = 0 }
  in
  let self_s name = Json.Float (seconds (get name).Span.self_ns) in
  let words_per_call name =
    let t = get name in
    Json.Float
      (if t.Span.calls = 0 then 0.
       else float_of_int t.Span.self_words /. float_of_int t.Span.calls)
  in
  (get, self_s, words_per_call)

type search_outcome = {
  considered : int;
  feasible : int;
  frontier : Objective.summary list;
  best : Objective.summary option;
  hits : int;
  misses : int;
  evicted : int;
}

(* [Search.run] without --top-k, serially: every summary is retained, the
   feasible ones sorted by cost at the end. *)
let search_replay kit space scenarios =
  let engine = cli_engine () in
  let memo = Memo.create ?max_entries:(Engine.cache_bound engine) ~size:256 () in
  let front = ref Pareto.empty in
  let evaluated = ref [] and feasible = ref [] in
  let feasible_sorted =
    Span.record "search.run" @@ fun () ->
    Seq.iter
      (fun d ->
        if Span.record "lint.accepts" (fun () -> Storage_lint.accepts d) then begin
          let s =
            Span.record "objective.summarize" (fun () ->
                summarize_cached memo d scenarios)
          in
          evaluated := s :: !evaluated;
          Span.record "pareto.insert" (fun () -> front := Pareto.insert !front s);
          if s.Objective.feasible then feasible := s :: !feasible
        end)
      (Span.seq "candidate.enumerate" (Candidate.enumerate kit space));
    List.sort by_cost (List.rev !feasible)
  in
  Engine.shutdown engine;
  {
    considered = List.length !evaluated;
    feasible = List.length feasible_sorted;
    frontier = Pareto.contents !front;
    best = (match feasible_sorted with [] -> None | b :: _ -> Some b);
    hits = Memo.hits memo;
    misses = Memo.misses memo;
    evicted = Memo.evicted memo;
  }

(* `ssdep optimize --solver anneal` on a fresh engine, with the share of
   its cache lookups that hit. *)
let anneal_run kit space scenarios ~budget ~seed =
  let engine = cli_engine () in
  let result =
    Span.record "solver.anneal" (fun () ->
        Solver.run ~engine ~budget ~seed ~method_:Solver.Anneal kit space
          scenarios)
  in
  let cache = Eval_cache.of_engine engine in
  let hits = Eval_cache.hits cache in
  let lookups = hits + Eval_cache.misses cache in
  Engine.shutdown engine;
  (result, float_of_int hits /. float_of_int (max 1 lookups))

(* The program's own [Search.run] on a fresh command-line engine, and the
   hits, misses and evictions of that engine's cache. *)
let search_real kit space scenarios =
  let engine = cli_engine () in
  let r =
    Storage_optimize.Search.run ~engine (Candidate.enumerate kit space)
      scenarios
  in
  let cache = Eval_cache.of_engine engine in
  let counts =
    (Eval_cache.hits cache, Eval_cache.misses cache, Eval_cache.evicted cache)
  in
  Engine.shutdown engine;
  (r, counts)

let names summaries = List.map (fun s -> s.Objective.design.Design.name) summaries

let replay_matches (real, (hits, misses, evicted)) replay =
  let best = Option.map (fun s -> s.Objective.design.Design.name) in
  real.Storage_optimize.Search.considered = replay.considered
  && real.feasible_count = replay.feasible
  && names real.frontier = names replay.frontier
  && best real.best = best replay.best
  && (hits, misses, evicted) = (replay.hits, replay.misses, replay.evicted)

let grid_trace ~scale ~rto ~rpo ~budget ~anneal_seed ~trace_out =
  let kit, space, scenarios = grid_inputs ~scale ~rto ~rpo in
  (* Noise on a shared machine only ever adds time, so each side of a
     comparison is the fastest of its runs. *)
  let fastest times = List.fold_left min max_int times in
  (* The program's [Search.run] against the replay with spans off, in
     turn: one round to grow the heap, then three timed. The ratio shows
     whether the replay still does what [Search.run] does. *)
  let round () =
    let real, real_ns =
      calibrated_off (fun () -> search_real kit space scenarios)
    in
    let replay, replay_ns =
      calibrated_off (fun () -> search_replay kit space scenarios)
    in
    (replay_matches real replay, real_ns, replay_ns)
  in
  let rounds = List.init 4 (fun _ -> round ()) in
  let matches = List.for_all (fun (m, _, _) -> m) rounds in
  let timed = List.tl rounds in
  let replay_ratio =
    float_of_int (fastest (List.map (fun (_, _, ns) -> ns) timed))
    /. float_of_int (fastest (List.map (fun (_, ns, _) -> ns) timed))
  in
  (* One grid-sweep unit with spans off, then three times traced and off
     again; only the last traced unit's spans are kept. Traced, a unit
     runs under one root: the part of the root no layer covers is tracing
     overhead plus any layer the spans miss. The overhead is the fastest
     traced time over the fastest untraced one. *)
  let grid_unit () =
    Span.record "grid-sweep" (fun () ->
        let search = search_replay kit space scenarios in
        (search, anneal_run kit space scenarios ~budget ~seed:anneal_seed))
  in
  let _, first_off_ns = calibrated_off grid_unit in
  let pairs =
    List.init 3 (fun _ ->
        Span.reset ();
        let outcome, traced_ns = calibrated grid_unit in
        let _, off_ns = calibrated_off grid_unit in
        (outcome, traced_ns, off_ns))
  in
  let overhead =
    float_of_int (fastest (List.map (fun (_, t, _) -> t) pairs))
    /. float_of_int
         (fastest (first_off_ns :: List.map (fun (_, _, o) -> o) pairs))
  in
  let (search, (anneal, anneal_hit_ratio)), _, _ = List.nth pairs 2 in
  stage_pass kit space scenarios;
  Span.write_chrome trace_out;
  let table = Span.totals () in
  let get, self_s, words_per_call = span_fields table in
  let evaluate_words =
    float_of_int
      ((get "evaluate.prepare").Span.self_words
      + (get "evaluate.run_prepared").Span.self_words)
    /. float_of_int (max 1 (get "evaluate.run_prepared").Span.calls)
  in
  let gap =
    match (anneal.Solver.best, search.best) with
    | Some a, Some g ->
      Money.to_usd a.Objective.worst_total_cost
      /. Money.to_usd g.Objective.worst_total_cost
      -. 1.
    | _ -> Float.nan
  in
  print_json
    (outcome_fields ~considered:search.considered ~feasible:search.feasible
       ~frontier:search.frontier ~best:search.best
    @ [
        ("anneal_feasible", Json.Bool (anneal.Solver.best <> None));
        ("replay_matches_search", Json.Bool matches);
        ("overhead", Json.Float overhead);
        ( "layers",
          Json.Obj
            [
              ("candidate.enumerate_s", self_s "candidate.enumerate");
              ("candidate.words", words_per_call "candidate.enumerate");
              ("lint.accepts_s", self_s "lint.accepts");
              ("design.fingerprint_s", self_s "design.fingerprint");
              ("design.fingerprint.words", words_per_call "design.fingerprint");
              ("eval_cache.lookup_s", self_s "eval_cache.lookup");
              ( "eval_cache.hit_ratio",
                Json.Float
                  (float_of_int search.hits
                  /. float_of_int (max 1 (search.hits + search.misses))) );
              ("eval_cache.evicted", Json.Int search.evicted);
              ("evaluate.prepare_s", self_s "evaluate.prepare");
              ("evaluate.run_prepared_s", self_s "evaluate.run_prepared");
              ("evaluate.words", Json.Float evaluate_words);
              ("objective.summarize_s", self_s "objective.summarize");
              ("pareto.insert_s", self_s "pareto.insert");
              ("pareto.frontier_size", Json.Int (List.length search.frontier));
              ("search.self_s", self_s "search.run");
              ("search.replay_drift", Json.Float (Float.abs (replay_ratio -. 1.)));
              ("anneal.solver_s", self_s "solver.anneal");
              ("anneal.evaluations", Json.Int anneal.Solver.stats.evaluations);
              ("anneal.cache_hit_ratio", Json.Float anneal_hit_ratio);
              ("anneal.optimum_gap", Json.Float gap);
            ] );
        ( "attribution",
          Json.Obj
            (List.map
               (fun stage ->
                 ( Printf.sprintf "evaluate.stage.%s_s" stage,
                   self_s ("evaluate.stage." ^ stage) ))
               [ "utilization"; "outlays"; "penalties"; "recovery_time";
                 "data_loss" ]) );
      ])

(* --- fleet --- *)

(* The designs `ssdep fleet -d NAME` accepts. *)
let fleet_design name =
  let designs =
    Whatif.all
    @ [ ("erasure", Whatif.erasure_coded ~fragments:9 ~required:6 ~links:10) ]
  in
  match List.assoc_opt name designs with
  | Some d -> d
  | None -> fail "unknown fleet design %S" name

(* The configuration `ssdep fleet --trials N --seed S --horizon-years H`
   builds. *)
let fleet_config ~trials ~seed ~horizon_years =
  Fleet.config ~trials ~horizon_years ~seed
    ~rates:
      (Fleet.rates ~default_afr:0.02 ~building_burst_per_year:0.005
         ~site_burst_per_year:0.002 ())
    ()

let fleet_trace ~preset ~trials ~horizon_years ~seeds ~ref_dir ~trace_out =
  let design = fleet_design preset in
  let engine = cli_engine () in
  Storage_obs.enable ();
  let sim_run = Storage_obs.Timer.make "sim.run" in
  let sim_run_events = Storage_obs.Timer.make "sim.run_events" in
  let sim_events = Storage_obs.Counter.make "sim.events" in
  let fallbacks = Storage_obs.Counter.make "fleet.full_horizon_fallbacks" in
  let run_s = ref 0. and run_events_s = ref 0. in
  let events = ref 0 and fallback_count = ref 0 in
  let failures = ref 0 and multi = ref 0 in
  let untraced_ns = ref 0 in
  List.iter
    (fun seed ->
      let config = fleet_config ~trials ~seed ~horizon_years in
      (* The real [Fleet.run]: its JSON is what the binary must print. *)
      let report =
        Span.record "fleet.run" (fun () -> Fleet.run ~engine ~config design)
      in
      Out_channel.with_open_text
        (Filename.concat ref_dir (Int64.to_string seed ^ ".json"))
        (fun oc ->
          output_string oc
            (Json.to_string_pretty (Fleet.to_json report) ^ "\n"));
      failures := !failures + report.Fleet.failures;
      multi := !multi + report.Fleet.multi_event_trials;
      (* The same trials again, one at a time, with the per-trial seeds
         [Fleet.run] draws from its master stream: with spans off, traced,
         and off again, for the tracing overhead. *)
      let replay () =
        let master = Storage_workload.Prng.create ~seed in
        for index = 0 to trials - 1 do
          let seed = Storage_workload.Prng.next_int64 master in
          let horizon = config.Fleet.horizon and rates = config.Fleet.rates in
          Span.record "fleet.trial" (fun () ->
              ignore
                (Span.record "fleet.sample" (fun () ->
                     Fleet.sample_events ~rates ~horizon ~seed design));
              ignore
                (Span.record "fleet.run_trial" (fun () ->
                     Fleet.run_trial ~rates ~horizon ~seed ~index design)))
        done
      in
      let (), before_ns = Span.time_off replay in
      let r0 = Storage_obs.Timer.total_seconds sim_run
      and e0 = Storage_obs.Timer.total_seconds sim_run_events
      and n0 = Storage_obs.Counter.value sim_events
      and f0 = Storage_obs.Counter.value fallbacks in
      replay ();
      run_s := !run_s +. Storage_obs.Timer.total_seconds sim_run -. r0;
      run_events_s :=
        !run_events_s +. Storage_obs.Timer.total_seconds sim_run_events -. e0;
      events := !events + Storage_obs.Counter.value sim_events - n0;
      fallback_count :=
        !fallback_count + Storage_obs.Counter.value fallbacks - f0;
      let (), after_ns = Span.time_off replay in
      untraced_ns := !untraced_ns + ((before_ns + after_ns) / 2))
    seeds;
  Engine.shutdown engine;
  Span.write_chrome trace_out;
  let table = Span.totals () in
  let get, self_s, _ = span_fields table in
  let total name = (get name).Span.total_ns in
  let trial_count = trials * List.length seeds in
  (* [run_trial] samples its trace again before executing it, so its
     execution is its duration minus the separately timed sampling.
     Aggregation is what [Fleet.run] spends beyond the same trials; those
     are taken from the replay with spans off, whose span-less trials a
     traced [run_trial] would overstate by the collections the spans'
     own allocation causes. *)
  let execute_ns = total "fleet.run_trial" - total "fleet.sample" in
  let aggregate_ns = total "fleet.run" - (!untraced_ns - total "fleet.sample") in
  print_json
    [
      ( "overhead",
        Json.Float
          (float_of_int (total "fleet.trial") /. float_of_int !untraced_ns) );
      ( "layers",
        Json.Obj
          [
            ("fleet.sample_s", self_s "fleet.sample");
            ("fleet.execute_s", Json.Float (seconds execute_ns));
            ("fleet.aggregate_s", Json.Float (seconds aggregate_ns));
            ( "fleet.words_per_trial",
              Json.Float
                (float_of_int
                   ((get "fleet.sample").self_words
                   + (get "fleet.run_trial").self_words)
                /. float_of_int trial_count) );
            ("sim.run_s", Json.Float !run_s);
            ("sim.run_events_s", Json.Float !run_events_s);
            ( "sim.events_per_failure",
              Json.Float (float_of_int !events /. float_of_int (max 1 !failures))
            );
            ("fleet.multi_event_trials", Json.Int !multi);
            ("fleet.fallbacks", Json.Int !fallback_count);
          ] );
    ]

(* --- serve --- *)

let render ?scenarios d =
  match Spec.design_to_string ?scenarios d with
  | Ok text -> Some text
  | Error _ -> None

(* What the daemon answers to [POST /evaluate] with [body]: parse, one
   evaluation per [[scenario]], the JSON reports plus a newline. *)
let expected_response body =
  match (Spec.design_of_string body, Spec.scenarios_of_string body) with
  | Ok d, Ok (_ :: _ as scenarios) ->
    Some
      (Json.to_string_pretty
         (Json_output.reports
            (List.map (fun (n, sc) -> (n, Evaluate.run d sc)) scenarios))
      ^ "\n")
  | _ -> None

let baseline_scenarios =
  [
    ("array failure", Baseline.scenario_array);
    ("site disaster", Baseline.scenario_site);
  ]

(* The hot set: the what-if presets and the example design files, each
   rendered in the design language. The cold pool: [cold] distinct grid
   designs drawn without replacement, seeded. Each request comes with
   the response the daemon must give. *)
let serve_requests ~seed ~cold ~examples =
  let with_expect kind body =
    match expected_response body with
    | Some expect -> (kind, body, expect)
    | None -> fail "no evaluable response for a %s body" kind
  in
  let presets =
    List.filter_map
      (fun (_, d) -> render ~scenarios:baseline_scenarios d)
      Whatif.all
  in
  let files =
    List.filter_map
      (fun path ->
        let text = In_channel.with_open_bin path In_channel.input_all in
        match (Spec.design_of_string text, Spec.scenarios_of_string text) with
        | Ok d, Ok scenarios ->
          let scenarios =
            if scenarios = [] then baseline_scenarios else scenarios
          in
          render ~scenarios d
        | _ -> fail "cannot load %s" path)
      examples
  in
  let grid =
    Array.of_seq
      (Candidate.enumerate (Whatif.search_kit ())
         (Whatif.search_space ~scale:5 ()))
  in
  if cold > Array.length grid then fail "cold pool larger than the grid";
  let rng = Storage_workload.Prng.create ~seed in
  (* Partial Fisher-Yates: the first [cold] slots become a seeded sample. *)
  let rec draw i acc =
    if List.length acc = cold then List.rev acc
    else begin
      let j = i + Storage_workload.Prng.int rng (Array.length grid - i) in
      let d = grid.(j) in
      grid.(j) <- grid.(i);
      grid.(i) <- d;
      match render ~scenarios:baseline_scenarios d with
      | Some body -> draw (i + 1) (body :: acc)
      | None -> draw (i + 1) acc
    end
  in
  List.map (with_expect "hot") (presets @ files)
  @ List.map (with_expect "cold") (draw 0 [])

let serve_inputs ~seed ~cold ~examples =
  List.iter
    (fun (kind, body, expect) ->
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("kind", Json.String kind);
                ("body", Json.String body);
                ("expect", Json.String expect);
              ])))
    (serve_requests ~seed ~cold ~examples)

(* The request path of [POST /evaluate], replayed in-process on the same
   inputs: parse, fingerprint, evaluate through a cache (cold bodies
   miss; hot bodies are replayed twice and timed the second time, a
   hit), encode. The replay runs with spans off, traced, and off again;
   the traced run over the mean of the others is the tracing overhead. *)
let serve_trace ~seed ~cold ~examples ~trace_out =
  let requests = serve_requests ~seed ~cold ~examples in
  let mismatches = ref 0 in
  let replay cache rid (kind, body, expect) ~label =
    Span.record ~rid "serve.request" @@ fun () ->
    let design, scenarios =
      Span.record ~rid "spec.parse" (fun () ->
          match (Spec.design_of_string body, Spec.scenarios_of_string body) with
          | Ok d, Ok s -> (d, s)
          | _ -> fail "unparsable %s body" kind)
    in
    ignore
      (Span.record ~rid "design.fingerprint" (fun () ->
           Design.fingerprint design));
    let named =
      Span.record ~rid label (fun () ->
          List.map (fun (n, sc) -> (n, Eval_cache.run cache design sc)) scenarios)
    in
    let response =
      Span.record ~rid "json.encode" (fun () ->
          Json.to_string_pretty (Json_output.reports named) ^ "\n")
    in
    if response <> expect then incr mismatches
  in
  let replay_all () =
    let cache = Eval_cache.create ~max_entries:8192 () in
    List.iteri
      (fun i r -> replay cache (i + 1) r ~label:"eval_cache.run.cold")
      requests;
    let n = List.length requests in
    List.iteri
      (fun i ((kind, _, _) as r) ->
        if kind = "hot" then
          replay cache (n + i + 1) r ~label:"eval_cache.run.hot")
      requests
  in
  let (), before_ns = Span.time_off replay_all in
  let t0 = Span.now_ns () in
  replay_all ();
  let traced_ns = Span.now_ns () - t0 in
  let (), after_ns = Span.time_off replay_all in
  Span.write_chrome trace_out;
  let table = Span.totals () in
  let get, _, words_per_call = span_fields table in
  let per_call_ms name =
    let t = get name in
    Json.Float
      (if t.Span.calls = 0 then 0.
       else seconds t.Span.self_ns *. 1e3 /. float_of_int t.Span.calls)
  in
  print_json
    [
      ("mismatches", Json.Int !mismatches);
      ( "overhead",
        Json.Float
          (2. *. float_of_int traced_ns /. float_of_int (before_ns + after_ns))
      );
      ( "layers",
        Json.Obj
          [
            ("spec.parse_ms", per_call_ms "spec.parse");
            ("design.fingerprint_ms", per_call_ms "design.fingerprint");
            ("design.fingerprint.words", words_per_call "design.fingerprint");
            ("eval_cache.run_ms.hot", per_call_ms "eval_cache.run.hot");
            ("eval_cache.run_ms.cold", per_call_ms "eval_cache.run.cold");
            ("json.encode_ms", per_call_ms "json.encode");
          ] );
    ]

let calibrate () = print_json [ ("seconds", Json.Float (seconds (kernel_ns ()))) ]

let () =
  let int s = match int_of_string_opt s with Some n -> n | None -> fail "bad integer %S" s in
  let float s = match float_of_string_opt s with Some x -> x | None -> fail "bad number %S" s in
  let int64 s = match Int64.of_string_opt s with Some n -> n | None -> fail "bad seed %S" s in
  match List.tl (Array.to_list Sys.argv) with
  | [ "grid-ref"; scale; rto; rpo ] ->
    grid_ref ~scale:(int scale) ~rto:(float rto) ~rpo:(float rpo)
  | [ "grid-trace"; scale; rto; rpo; budget; seed; trace_out ] ->
    grid_trace ~scale:(int scale) ~rto:(float rto) ~rpo:(float rpo)
      ~budget:(int budget) ~anneal_seed:(int64 seed) ~trace_out
  | [ "fleet-trace"; preset; trials; years; seeds; ref_dir; trace_out ] ->
    fleet_trace ~preset ~trials:(int trials) ~horizon_years:(float years)
      ~seeds:(List.map int64 (String.split_on_char ',' seeds))
      ~ref_dir ~trace_out
  | "serve-inputs" :: seed :: cold :: examples ->
    serve_inputs ~seed:(int64 seed) ~cold:(int cold) ~examples
  | "serve-trace" :: trace_out :: seed :: cold :: examples ->
    serve_trace ~seed:(int64 seed) ~cold:(int cold) ~examples ~trace_out
  | [ "calibrate" ] -> calibrate ()
  | _ -> fail "usage: see the header of perfbench/probe/probe.ml"
