(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation from the framework's own outputs, then times the evaluation
   hot paths with Bechamel (one Test.make per experiment).

   Usage:
     dune exec bench/main.exe                 # all artifacts + micro-benches
     dune exec bench/main.exe table5          # one artifact
     dune exec bench/main.exe validate        # simulator-vs-model check
     dune exec bench/main.exe pareto          # design-space search ablation
     dune exec bench/main.exe micro           # micro-benchmarks only
     dune exec bench/main.exe parallel        # multicore engine benchmark
     dune exec bench/main.exe stream          # streaming-pipeline memory bench
     dune exec bench/main.exe serve           # evaluation-service load gen
     dune exec bench/main.exe solver          # solver-vs-grid parity bench

   The parallel mode times the design-space search over a few hundred
   generated candidates — serial versus 2/4/8-domain Pool evaluation, and
   an iterative three-pass what-if session serial-uncached versus the full
   engine (domains + shared Eval_cache) — and writes the measurements to
   BENCH_parallel.json. Wall-clock (Unix.gettimeofday), best of three.

   The stream mode checks the streaming search's memory contract — a
   10^5-candidate grid must peak (live words after forced major
   collections) within 2x of a 10^3-candidate run, with frontier and
   best byte-identical to the materialized reference loop — and writes
   BENCH_stream.json. *)

open Bechamel
open Toolkit
open Storage_units
open Storage_model
open Storage_presets
module J = Storage_report.Json
module Engine = Storage_optimize.Engine
module Search = Storage_optimize.Search
module Solver = Storage_optimize.Solver
module Fleet = Storage_fleet.Fleet

(* The search benches' kit (cello workload on the baseline preset
   hardware) and their two hardware-failure scenarios. *)
let kit =
  {
    Storage_optimize.Candidate.workload = Cello.workload;
    business = Baseline.business;
    primary = Baseline.disk_array;
    tape_library = Baseline.tape_library;
    vault = Baseline.vault;
    remote_array = Baseline.remote_array;
    san = Baseline.san;
    shipment = Baseline.air_shipment;
    wan = (fun links -> Baseline.oc3 ~links);
  }

let array_and_site = [ Baseline.scenario_array; Baseline.scenario_site ]

(* --- artifact regeneration --- *)

let artifacts : (string * (unit -> string)) list =
  [
    ("table2", Paper_tables.table2);
    ("table3", Paper_tables.table3);
    ("table4", Paper_tables.table4);
    ("figure1", Paper_tables.figure1);
    ("figure2", Paper_tables.figure2);
    ("table5", Paper_tables.table5);
    ("table6", Paper_tables.table6);
    ("figure3", Paper_tables.figure3);
    ("figure4", Paper_tables.figure4);
    ("figure5", Paper_tables.figure5);
    ("table7", Paper_tables.table7);
  ]

let print_artifact name =
  match List.assoc_opt name artifacts with
  | Some render ->
    print_endline (render ());
    print_newline ()
  | None -> Printf.eprintf "unknown artifact %s\n" name

(* --- simulator-vs-model validation --- *)

let validate () =
  print_endline "Simulator-vs-model validation (baseline, 14 failure phases):";
  let config = { Storage_sim.Sim.default_config with warmup = Duration.weeks 12. } in
  let ok = ref true in
  List.iter
    (fun scenario ->
      let model = Evaluate.run Baseline.design scenario in
      let worst =
        match model.Evaluate.data_loss.Data_loss.loss with
        | Data_loss.Updates d -> Duration.to_seconds d
        | Data_loss.Entire_object -> infinity
      in
      let offsets =
        List.init 14 (fun i -> Duration.hours (float_of_int i *. 12.))
      in
      let runs =
        Storage_sim.Sim.sweep_failure_phase ~config Baseline.design scenario
          ~offsets
      in
      let max_dl =
        List.fold_left
          (fun acc (m : Storage_sim.Sim.measured) ->
            match m.Storage_sim.Sim.data_loss with
            | Data_loss.Updates d -> Float.max acc (Duration.to_seconds d)
            | Data_loss.Entire_object -> acc)
          0. runs
      in
      let pass = max_dl <= worst +. 1. in
      if not pass then ok := false;
      Printf.printf "  %-18s max sim DL %8.1f hr <= model %8.1f hr  %s\n"
        (Fmt.str "%a" Storage_device.Location.pp_scope
           scenario.Scenario.scope)
        (max_dl /. 3600.) (worst /. 3600.)
        (if pass then "ok" else "VIOLATION"))
    Baseline.scenarios;
  print_endline (if !ok then "validation passed" else "validation FAILED");
  if not !ok then exit 1

(* --- design-space search ablation --- *)

let pareto () =
  let candidates =
    Storage_optimize.Candidate.enumerate kit
      Storage_optimize.Candidate.default_space
  in
  let result = Search.run candidates array_and_site in
  Fmt.pr "%a@." Search.pp result

(* --- ablations: the design choices DESIGN.md calls out --- *)

(* 1. The devBW erratum: the paper prints max(enclBW, slots*slotBW); its
   case study requires min. Show what each formula predicts. *)
let ablate_devbw () =
  print_endline "Ablation 1: devBW = min vs max of enclosure/slot bandwidth";
  let report device used_mib =
    let open Storage_device in
    let slots =
      float_of_int device.Device.max_bandwidth_slots
      *. Rate.to_mib_per_sec device.Device.slot_bandwidth
    in
    let encl = Rate.to_mib_per_sec device.Device.enclosure_bandwidth in
    Printf.printf
      "  %-13s demand %6.1f MiB/s  min-rule %6.1f MiB/s -> %5.2f%%   \
       max-rule %6.1f MiB/s -> %5.2f%%\n"
      device.Device.name used_mib (Float.min encl slots)
      (100. *. used_mib /. Float.min encl slots)
      (Float.max encl slots)
      (100. *. used_mib /. Float.max encl slots)
  in
  let u = Utilization.compute Baseline.design in
  List.iter
    (fun (d : Utilization.device_report) ->
      let open Storage_device in
      if not (Device.is_capacity_only d.Utilization.device) then
        report d.Utilization.device
          (Rate.to_mib_per_sec d.Utilization.total.Device.bandwidth_used))
    u.Utilization.devices;
  print_endline
    "  (Table 5 prints 2.4% and 3.4%: only the min rule reproduces them.)\n"

(* 2. Recovery semantics: provisioning overlapped with the transfer (the
   reading Table 7 requires) vs strictly serialized (what the simulator
   executes). *)
let ablate_recovery_semantics () =
  print_endline
    "Ablation 2: recovery-time semantics (parallel vs strict provisioning)";
  let strict_total (t : Recovery_time.timeline) =
    List.fold_left
      (fun rt (h : Recovery_time.hop) ->
        let arrival = Duration.add rt h.Recovery_time.transit in
        Duration.sum
          [
            Duration.max arrival h.Recovery_time.par_fix;
            h.Recovery_time.ser_fix;
            h.Recovery_time.transfer;
          ])
      Duration.zero t.Recovery_time.hops
  in
  List.iter
    (fun (name, design, scenario) ->
      let r = Evaluate.run design scenario in
      match r.Evaluate.recovery with
      | Some t ->
        Printf.printf "  %-28s parallel %7.2f hr   strict %7.2f hr\n" name
          (Duration.to_hours t.Recovery_time.total)
          (Duration.to_hours (strict_total t))
      | None -> ())
    [
      ("baseline, array", Baseline.design, Baseline.scenario_array);
      ("baseline, site", Baseline.design, Baseline.scenario_site);
      ("asyncB x1, site", Whatif.async_mirror ~links:1, Baseline.scenario_site);
      ("asyncB x10, site", Whatif.async_mirror ~links:10, Baseline.scenario_site);
    ];
  print_endline
    "  (Table 7's 21.7 hr single-link site cell matches the parallel form;\n\
    \   the simulator executes the strict form.)\n"

(* 3. Vault accumulation window sweep (generalizes the weekly-vault
   what-if). *)
let vault_design acc_weeks =
  let open Storage_protection in
  let open Storage_hierarchy in
  let vault_schedule =
    Schedule.simple
      ~acc:(Duration.weeks acc_weeks)
      ~prop:(Duration.hours 24.) ~hold:(Duration.hours 12.)
      ~retention_count:(max 1 (int_of_float (ceil (156. /. acc_weeks))))
      ()
  in
  let hierarchy =
    Hierarchy.make_exn
      [
        {
          Hierarchy.technique = Technique.Primary_copy { raid = Raid.Raid1 };
          device = Baseline.disk_array;
          link = None;
        };
        {
          technique = Technique.Split_mirror Baseline.split_mirror_schedule;
          device = Baseline.disk_array;
          link = None;
        };
        {
          technique = Technique.Backup Baseline.backup_schedule;
          device = Baseline.tape_library;
          link = Some Baseline.san;
        };
        {
          technique = Technique.Vaulting vault_schedule;
          device = Baseline.vault;
          link = Some Baseline.air_shipment;
        };
      ]
  in
  Design.make
    ~name:(Printf.sprintf "vault/%.0fwk" acc_weeks)
    ~workload:Cello.workload ~hierarchy ~business:Baseline.business ()

let ablate_vault_window () =
  print_endline
    "Ablation 3: vault accumulation window vs site-disaster loss and cost";
  Storage_optimize.Sensitivity.sweep vault_design ~values:[ 1.; 2.; 4.; 8. ]
    Baseline.scenario_site
  |> List.iter (fun p ->
         Fmt.pr "  %a@." Storage_optimize.Sensitivity.pp_point p);
  print_newline ()

(* 4. Mirror link-count sweep: where does adding links stop paying? *)
let ablate_links () =
  print_endline "Ablation 4: OC-3 link count vs recovery time and total cost";
  List.iter
    (fun links ->
      let d = Whatif.async_mirror ~links in
      let array = Evaluate.run d Baseline.scenario_array in
      let site = Evaluate.run d Baseline.scenario_site in
      Printf.printf
        "  %2d links: array RT %6.2f hr, site RT %6.2f hr, outlays %s, worst \
         total %s\n"
        links
        (Duration.to_hours array.Evaluate.recovery_time)
        (Duration.to_hours site.Evaluate.recovery_time)
        (Money.to_string array.Evaluate.outlays.Cost.total)
        (Money.to_string
           (Money.max array.Evaluate.total_cost site.Evaluate.total_cost)))
    [ 1; 2; 3; 4; 6; 8; 10 ];
  print_newline ()

(* 5. RAID organization of the primary array. *)
let ablate_raid () =
  print_endline "Ablation 5: primary-array RAID organization";
  let open Storage_protection in
  let open Storage_hierarchy in
  List.iter
    (fun raid ->
      let hierarchy =
        Hierarchy.make_exn
          [
            {
              Hierarchy.technique = Technique.Primary_copy { raid };
              device = Baseline.disk_array;
              link = None;
            };
            {
              technique = Technique.Split_mirror Baseline.split_mirror_schedule;
              device = Baseline.disk_array;
              link = None;
            };
            {
              technique = Technique.Backup Baseline.backup_schedule;
              device = Baseline.tape_library;
              link = Some Baseline.san;
            };
          ]
      in
      let d =
        Design.make
          ~name:(Raid.to_string raid)
          ~workload:Cello.workload ~hierarchy ~business:Baseline.business ()
      in
      let u = Utilization.compute d in
      let o = Cost.outlays d in
      Printf.printf
        "  %-10s array capacity %5.1f%%  outlays %s  disk-failure tolerant: %b\n"
        (Raid.to_string raid)
        (100. *. u.Utilization.system_capacity_fraction)
        (Money.to_string o.Cost.total)
        (Raid.tolerates_disk_failure raid))
    [ Raid.Raid0; Raid.Raid1; Raid.Raid5 { stripe_width = 6 }; Raid.Raid10 ];
  print_newline ()

(* 6. Workload growth: when does the baseline hardware stop fitting? *)
let ablate_growth () =
  print_endline "Ablation 6: workload growth vs baseline hardware";
  List.iter
    (fun factor ->
      let workload = Storage_workload.Workload.grow Cello.workload ~factor in
      let d =
        Design.make
          ~name:(Printf.sprintf "cello x%.2f" factor)
          ~workload ~hierarchy:Baseline.design.Design.hierarchy
          ~business:Baseline.business ()
      in
      let u = Utilization.compute d in
      Printf.printf "  x%.2f: array cap %5.1f%%, tape cap %5.1f%%  %s\n" factor
        (100.
        *. (List.hd u.Utilization.devices).Utilization.total
             .Storage_device.Device.capacity_fraction)
        (100.
        *. (List.nth u.Utilization.devices 1).Utilization.total
             .Storage_device.Device.capacity_fraction)
        (match Design.validate d with
        | Ok () -> "fits"
        | Error (e :: _) -> "OVERCOMMITTED: " ^ e
        | Error [] -> "fits"))
    [ 0.5; 1.0; 1.1; 1.15; 1.25; 1.5; 2.0 ];
  print_newline ()

(* 7. Tail risk: expectation vs Monte-Carlo distribution. *)
let ablate_tail_risk () =
  print_endline
    "Ablation 7: expected vs sampled 10-year cost (tail risk per design)";
  let weighted =
    [
      { Risk.scenario = Baseline.scenario_object; frequency_per_year = 12. };
      { Risk.scenario = Baseline.scenario_array; frequency_per_year = 0.2 };
      { Risk.scenario = Baseline.scenario_site; frequency_per_year = 0.01 };
    ]
  in
  List.iter
    (fun (name, d) ->
      let expectation = Risk.assess d weighted in
      let dist =
        Risk.monte_carlo ~samples:4000 d weighted ~horizon_years:10.
      in
      Printf.printf "  %-32s E %-9s mc-mean %-9s p95 %-9s p99 %s\n" name
        (Money.to_string
           (Money.scale 10. expectation.Risk.expected_annual_cost))
        (Money.to_string dist.Risk.mean)
        (Money.to_string dist.Risk.p95)
        (Money.to_string dist.Risk.p99))
    [
      ("baseline", Baseline.design);
      ("weekly vault, daily F, snapshot", Whatif.weekly_vault_daily_full_snapshot);
      ("asyncB mirror, 2 links", Whatif.async_mirror ~links:2);
    ];
  print_newline ()

let ablate () =
  ablate_devbw ();
  ablate_recovery_semantics ();
  ablate_vault_window ();
  ablate_links ();
  ablate_raid ();
  ablate_growth ();
  ablate_tail_risk ()

(* --- shared measurements ---

   Each quantity a [--check] gate bounds is measured by one function
   below; the mode that writes its BENCH_*.json and the gate both call
   it, each with its own repeats and grid. *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let time_best_of ?(repeats = 3) f =
  let rec go best n =
    if n = 0 then best
    else
      let _, dt = timed (fun () -> Sys.opaque_identity (f ())) in
      go (Float.min best dt) (n - 1)
  in
  go infinity repeats

let write_bench_json name json =
  Out_channel.with_open_text name (fun oc ->
      output_string oc (J.to_string_pretty json);
      output_char oc '\n');
  print_endline ("  wrote " ^ name)

(* One streaming top-10 search on a fresh engine bounded at 512 cache
   entries: the search every streaming measurement times. *)
let search ~cache ~jobs candidates scenarios =
  let engine = Engine.create ~jobs ~cache ~cache_bound:512 () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () -> Search.run ~engine ~top_k:10 candidates scenarios)

(* Streaming throughput (serial-throughput and parallel-speedup gates,
   stream's headline): best wall time of a cache-off search over
   [grid ()]. Cache off is the configuration a one-shot sweep over an
   all-distinct grid runs in — it cannot hit, so key building and memo
   bookkeeping would be pure overhead — and the grid is unmonitored:
   [peak_live_words]' sampling costs more than the evaluations. *)
let search_seconds ~repeats ~jobs grid scenarios =
  time_best_of ~repeats (fun () -> search ~cache:false ~jobs (grid ()) scenarios)

(* Peak live words (peak-live-words gate, stream's memory runs): the
   maximum of [Gc.stat().live_words] right after a forced major
   collection, sampled before [f], every 1024 candidates of the sequence
   [f] passes through its [monitored] argument, and once after [f] with
   its result still live — which is what exposes a materialized path's
   O(grid) retention. [Gc.top_heap_words] would be the obvious candidate
   but is useless here: it is monotonic over the process lifetime and, on
   OCaml 5.1, tracks the allocator's sawtooth high-water mark — the
   runtime has no heap compaction, so the number reflects allocation
   churn and fragmentation, not the working set. Returns the result, the
   wall time and the peak. *)
let peak_live_words f =
  let peak = ref 0 in
  let sample () =
    Gc.full_major ();
    let live = (Gc.stat ()).Gc.live_words in
    if live > !peak then peak := live
  in
  let monitored cs =
    Seq.mapi (fun i d -> if i mod 1024 = 0 then sample (); d) cs
  in
  sample ();
  let result, seconds = timed (fun () -> f monitored) in
  sample ();
  (result, seconds, !peak)

(* Fleet throughput (fleet-trials-per-sec gate, fleet mode): the report
   of a [config] run of [d] on a fresh [jobs]-domain engine and the best
   wall time of [repeats] runs. *)
let fleet_run ~repeats ~jobs ~config d =
  let run () =
    Storage_engine.with_engine ~jobs (fun engine -> Fleet.run ~engine ~config d)
  in
  let report, first = timed run in
  (report, Float.min first (time_best_of ~repeats:(repeats - 1) run))

type solver_parity = {
  grid : Solver.result;
  grid_seconds : float;
  anneal : Solver.result;
  anneal_seconds : float;
  anneal_budget : int;
}

(* Solver-vs-grid parity (solver-vs-grid gate, solver mode): the grid
   search over the tier grid, then annealing with the same pinned seed,
   budgeted at [solver_budget_fraction] of the candidates the grid
   evaluated, both on one cache-off [jobs]-domain engine. *)
let solver_parity ~jobs (b : Baselines.tier) scenarios =
  let space =
    Storage_optimize.Candidate.scaled_space ~scale:b.Baselines.grid_scale
  in
  let engine = Engine.create ~jobs ~cache:false () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let solve method_ ?budget () =
    timed (fun () ->
        Solver.run ~engine ?budget ~seed:b.Baselines.solver_seed ~method_ kit
          space scenarios)
  in
  let grid, grid_seconds = solve Solver.Grid () in
  let anneal_budget =
    Int.max 1
      (int_of_float
         (b.Baselines.solver_budget_fraction
         *. float_of_int grid.Solver.stats.Solver.evaluations))
  in
  let anneal, anneal_seconds = solve Solver.Anneal ~budget:anneal_budget () in
  { grid; grid_seconds; anneal; anneal_seconds; anneal_budget }

let best_total (r : Solver.result) =
  Option.map
    (fun (s : Storage_optimize.Objective.summary) ->
      s.Storage_optimize.Objective.worst_total_cost)
    r.Solver.best

let matches_grid p r =
  Option.compare Money.compare (best_total r) (best_total p.grid) = 0

(* Share of the grid's evaluations [r] spent. *)
let fraction_of_grid p (r : Solver.result) =
  float_of_int r.Solver.stats.Solver.evaluations
  /. float_of_int p.grid.Solver.stats.Solver.evaluations

(* --- multicore evaluation-engine benchmark --- *)

(* A widened grid: a few hundred candidates, the scale §4.2's automated
   what-if exploration is about. *)
let parallel_space =
  {
    Storage_optimize.Candidate.default_space with
    Storage_optimize.Candidate.pit_accumulations =
      [ Duration.hours 2.; Duration.hours 6.; Duration.hours 12.;
        Duration.hours 24. ];
    pit_retentions = [ 2; 3; 4 ];
    backup_accumulations =
      [ Duration.hours 12.; Duration.hours 24.; Duration.hours 48.;
        Duration.weeks 1. ];
    vault_accumulations =
      [ Duration.weeks 1.; Duration.weeks 2.; Duration.weeks 4. ];
    mirror_links = [ 1; 2; 3; 4; 6; 8; 10 ];
  }

let parallel_bench () =
  (* Record engine statistics throughout, so the benchmark artifact keeps
     the cache hit rates, per-stage evaluate timings and per-domain task
     counts behind each wall-clock number. *)
  Storage_obs.enable ();
  let candidates =
    List.of_seq (Storage_optimize.Candidate.enumerate kit parallel_space)
  in
  let scenarios = Baseline.scenarios in
  let n = List.length candidates in
  let cores = Storage_parallel.Pool.default_jobs () in
  Printf.printf
    "Multicore engine benchmark: %d candidates x %d scenarios (%d core(s) \
     available)\n"
    n (List.length scenarios) cores;
  (* 1. One sweep of the whole space, serial vs 2/4/8 domains. Each run
     gets a fresh engine so nothing is cached across measurements. *)
  let sweep ~jobs cs =
    Engine.with_engine ~jobs (fun engine ->
        Search.run ~engine (List.to_seq cs) scenarios)
  in
  let serial_s = time_best_of (fun () -> sweep ~jobs:1 candidates) in
  Printf.printf "  search, serial:          %8.1f ms\n" (serial_s *. 1e3);
  let by_jobs =
    List.map
      (fun jobs ->
        let t = time_best_of (fun () -> sweep ~jobs candidates) in
        (* Honesty marker: a speedup measured with more domains than the
           machine recommends says nothing about scaling — the domains
           time-share the cores. *)
        let undersubscribed = jobs > cores in
        Printf.printf "  search, %d domains:       %8.1f ms  (%.2fx)%s\n" jobs
          (t *. 1e3) (serial_s /. t)
          (if undersubscribed then "  [more domains than cores]" else "");
        (jobs, t, undersubscribed))
      [ 2; 4; 8 ]
  in
  (* 2. An iterative what-if session (§4.2): four overlapping passes — the
     broad sweep, a re-run after adding longer-haul mirror candidates, a
     re-ranking of the snapshot family, and a full re-rank once the analyst
     has narrowed the objective. Serial-uncached pays full evaluation price
     every pass; one engine held across the session (domains sized to the
     hardware, its slot cache shared) re-evaluates only what is new. *)
  let extra =
    List.of_seq
      (Storage_optimize.Candidate.enumerate kit
         { parallel_space with
           Storage_optimize.Candidate.pit_techniques = [];
           mirror_links = [ 12; 16; 20; 24 ] })
  in
  let is_snap (d : Design.t) =
    String.length d.Design.name >= 4 && String.sub d.Design.name 0 4 = "snap"
  in
  let passes =
    [ candidates; candidates @ extra; List.filter is_snap candidates;
      candidates ]
  in
  let engine_jobs = min 4 (Storage_parallel.Pool.default_jobs ()) in
  let session ~jobs ~share_cache () =
    Engine.with_engine ~jobs (fun engine ->
        List.iter
          (fun cs ->
            (* A fresh cache per pass simulates the pre-engine behaviour;
               sharing leaves the engine's slot cache in place. *)
            if not share_cache then Eval_cache.attach engine (Eval_cache.create ());
            ignore
              (Sys.opaque_identity
                 (Search.run ~engine (List.to_seq cs) scenarios)))
          passes)
  in
  let session_serial = time_best_of (session ~jobs:1 ~share_cache:false) in
  let session_engine =
    time_best_of (session ~jobs:engine_jobs ~share_cache:true)
  in
  (* Re-run once more to report the cache's hit/miss profile. *)
  let cache = Eval_cache.create () in
  Engine.with_engine (fun engine ->
      Eval_cache.attach engine cache;
      List.iter
        (fun cs -> ignore (Search.run ~engine (List.to_seq cs) scenarios))
        passes);
  Printf.printf "  what-if session (4 passes), serial uncached: %8.1f ms\n"
    (session_serial *. 1e3);
  Printf.printf
    "  what-if session (4 passes), engine (%d domain(s) + cache): %8.1f ms  \
     (%.2fx, %d hits / %d misses)\n"
    engine_jobs (session_engine *. 1e3)
    (session_serial /. session_engine)
    (Eval_cache.hits cache) (Eval_cache.misses cache);
  write_bench_json "BENCH_parallel.json"
    (J.Obj
       [
         ("mode", J.String "parallel");
         ("cores", J.Int cores);
         ("recommended_domain_count", J.Int cores);
         ("candidates", J.Int n);
         ("scenarios", J.Int (List.length scenarios));
         ( "single_sweep",
           J.Obj
             [
               ("serial_seconds", J.Float serial_s);
               ( "by_jobs",
                 J.List
                   (List.map
                      (fun (jobs, t, undersubscribed) ->
                        J.Obj
                          [
                            ("jobs", J.Int jobs);
                            ("seconds", J.Float t);
                            ("speedup", J.Float (serial_s /. t));
                            ("undersubscribed", J.Bool undersubscribed);
                          ])
                      by_jobs) );
             ] );
         ( "whatif_session",
           J.Obj
             [
               ("passes", J.Int (List.length passes));
               ("engine_jobs", J.Int engine_jobs);
               ("serial_uncached_seconds", J.Float session_serial);
               ("engine_cached_seconds", J.Float session_engine);
               ("speedup", J.Float (session_serial /. session_engine));
               ("cache_hits", J.Int (Eval_cache.hits cache));
               ("cache_misses", J.Int (Eval_cache.misses cache));
             ] );
         ("stats", Storage_obs.snapshot ());
       ])

(* --- streaming-pipeline benchmark --- *)

(* The memory story behind the streaming search: a grid of ~10^5
   candidates evaluated through [Search.run ~top_k] must peak within 2x
   of a ~10^3-candidate run (working set = one pool window + the slim
   frontier + k survivors + the bounded cache, not the grid), while the
   materialized path retains every summary. Peak is [peak_live_words]. *)
let stream_bench () =
  let grid scale =
    Storage_optimize.Candidate.enumerate kit
      (Storage_optimize.Candidate.scaled_space ~scale)
  in
  (* Smallest scale clearing 10^5 candidates after validity filtering. *)
  let large_scale =
    let rec find s = if Seq.length (grid s) >= 100_000 then s else find (s + 1) in
    find 7
  in
  let small = grid 2 in
  let large = grid large_scale in
  let n_small = Seq.length small and n_large = Seq.length large in
  Printf.printf
    "Streaming pipeline benchmark: %d vs %d candidates x %d scenarios\n"
    n_small n_large (List.length array_and_site);
  let measure name f =
    let result, dt, peak = peak_live_words f in
    Printf.printf "  %-42s %8.1f ms   peak live %7d kwords\n" name (dt *. 1e3)
      (peak / 1000);
    (result, dt, peak)
  in
  let stream ~jobs cs monitored =
    search ~cache:true ~jobs (monitored cs) array_and_site
  in
  let t_throughput =
    search_seconds ~repeats:2 ~jobs:1 (fun () -> large) array_and_site
  in
  let throughput = float_of_int n_large /. t_throughput in
  Printf.printf
    "  throughput, %d candidates, serial, cache off: %8.1f ms  (%.0f \
     candidates/s)\n"
    n_large (t_throughput *. 1e3) throughput;
  let r_small, t_small, peak_small =
    measure (Printf.sprintf "streaming, %d candidates, serial" n_small)
      (stream ~jobs:1 small)
  in
  let _, t_large, peak_large =
    measure (Printf.sprintf "streaming, %d candidates, serial" n_large)
      (stream ~jobs:1 large)
  in
  let _, t_large4, peak_large4 =
    measure (Printf.sprintf "streaming, %d candidates, 4 domains" n_large)
      (stream ~jobs:4 large)
  in
  (* The materialized oracle on the small grid: byte-identical frontier
     and best, O(grid) retention. (Running it over the large grid would
     materialize every summary — the cost the streaming path removes.) *)
  let r_mat, t_mat, peak_mat =
    measure (Printf.sprintf "materialized, %d candidates, serial" n_small)
      (fun _ ->
        Storage_testkit.Reference.run_materialized (List.of_seq small)
          array_and_site)
  in
  let bytes x = Marshal.to_string x [ Marshal.No_sharing ] in
  let identical =
    bytes r_small.Search.frontier = bytes r_mat.Search.frontier
    && bytes r_small.Search.best = bytes r_mat.Search.best
  in
  let within_2x = peak_large <= 2 * peak_small in
  Printf.printf "  frontier/best identical to materialized: %b\n" identical;
  Printf.printf "  large-grid peak within 2x of small-grid peak: %b (%.2fx)\n"
    within_2x
    (float_of_int peak_large /. float_of_int peak_small);
  (* Wall-clock only; on a single-core host the multi-domain run is
     expected to be slower, not faster. *)
  let cores = Storage_parallel.Pool.default_jobs () in
  Printf.printf "  4-domain large-grid wall-clock ratio: %.2fx%s\n"
    (t_large /. t_large4)
    (if 4 > cores then "  [more domains than cores]" else "");
  let run name candidates jobs seconds peak =
    J.Obj
      [
        ("run", J.String name);
        ("candidates", J.Int candidates);
        ("jobs", J.Int jobs);
        ("seconds", J.Float seconds);
        ("peak_live_words", J.Int peak);
        ("undersubscribed", J.Bool (jobs > cores));
      ]
  in
  write_bench_json "BENCH_stream.json"
    (J.Obj
       [
         ("mode", J.String "stream");
         ("scenarios", J.Int (List.length array_and_site));
         ("large_scale", J.Int large_scale);
         ("recommended_domain_count", J.Int cores);
         ( "serial_throughput",
           J.Obj
             [
               ("candidates", J.Int n_large);
               ("seconds", J.Float t_throughput);
               ("candidates_per_sec", J.Float throughput);
               ("cache", J.Bool false);
             ] );
         ( "runs",
           J.List
             [
               run "streaming_small_serial" n_small 1 t_small peak_small;
               run "streaming_large_serial" n_large 1 t_large peak_large;
               run "streaming_large_4domains" n_large 4 t_large4 peak_large4;
               run "materialized_small_serial" n_small 1 t_mat peak_mat;
             ] );
         ("frontier_best_identical_to_materialized", J.Bool identical);
         ("large_peak_within_2x_of_small", J.Bool within_2x);
       ]);
  if not (identical && within_2x) then exit 1

(* --- fleet Monte Carlo benchmark --- *)

(* [bench/main.exe fleet]: the fleet-scale availability record — 1000
   five-year trials per preset design, serial and at 4 domains, with the
   full report and the measured trials/s — written to BENCH_fleet.json.
   The serial and 4-domain reports must render to identical JSON (the
   jobs-invariance contract); the record carries the comparison. The
   fleet-trials-per-sec gate of [--check] reruns the baseline preset
   against the committed floor. *)

let fleet_designs =
  [
    ("baseline", Baseline.design);
    ("async_mirror_x10", Whatif.async_mirror ~links:10);
    ("erasure_6_of_9", Whatif.erasure_coded ~fragments:9 ~required:6 ~links:10);
  ]

let fleet_bench () =
  let config = Fleet.config ~trials:1000 ~horizon_years:5. () in
  let cores = Storage_parallel.Pool.default_jobs () in
  Printf.printf
    "Fleet Monte Carlo benchmark: %d trials x %.0f-year horizon per design \
     (%d core(s))\n"
    config.Fleet.trials
    (Duration.to_years config.Fleet.horizon)
    cores;
  let ok = ref true in
  let runs =
    List.map
      (fun (name, d) ->
        let serial, t_serial = fleet_run ~repeats:1 ~jobs:1 ~config d in
        let par, t_par = fleet_run ~repeats:1 ~jobs:4 ~config d in
        let identical =
          String.equal
            (J.to_string (Fleet.to_json serial))
            (J.to_string (Fleet.to_json par))
        in
        if not identical then ok := false;
        let tps = float_of_int config.Fleet.trials /. t_serial in
        Printf.printf
          "  %-18s serial %8.1f ms (%7.1f trials/s)   4 domains %8.1f ms \
           (%.2fx)%s%s\n"
          name (t_serial *. 1e3) tps (t_par *. 1e3) (t_serial /. t_par)
          (if 4 > cores then "  [more domains than cores]" else "")
          (if identical then "" else "  JOBS-VARIANT!");
        J.Obj
          [
            ("design", J.String name);
            ("serial_seconds", J.Float t_serial);
            ("trials_per_sec", J.Float tps);
            ("four_domain_seconds", J.Float t_par);
            ("speedup", J.Float (t_serial /. t_par));
            ("jobs_invariant", J.Bool identical);
            ("report", Fleet.to_json serial);
          ])
      fleet_designs
  in
  write_bench_json "BENCH_fleet.json"
    (J.Obj
       [
         ("mode", J.String "fleet");
         ("trials", J.Int config.Fleet.trials);
         ("horizon_years", J.Float (Duration.to_years config.Fleet.horizon));
         ("seed", J.String (Int64.to_string config.Fleet.seed));
         ("cores", J.Int cores);
         ("runs", J.List runs);
       ]);
  if not !ok then exit 1

(* --- metaheuristic solver benchmark --- *)

(* [bench/main.exe solver [smoke]]: run grid search and annealing over
   the tier grid and report how much of the exhaustive sweep annealing
   needed to land on the same optimum — [solver_parity] at up to 4
   domains, the measurement behind the solver-vs-grid gate of [--check].
   Writes BENCH_solver.json; exits 1 if anneal misses the optimum. *)
let solver_bench ~smoke () =
  let b = if smoke then Baselines.smoke else Baselines.full in
  let points =
    Storage_optimize.Candidate.point_count
      (Storage_optimize.Candidate.scaled_space ~scale:b.Baselines.grid_scale)
  in
  let jobs = Int.min 4 (Storage_parallel.Pool.default_jobs ()) in
  Printf.printf
    "Solver benchmark, %s tier: %d grid points x %d scenarios, seed 0x%Lx, \
     %d job(s)\n"
    b.Baselines.name points (List.length array_and_site) b.Baselines.solver_seed
    jobs;
  let p = solver_parity ~jobs b array_and_site in
  let ok = ref true in
  let row name (r : Solver.result) seconds =
    let evals = r.Solver.stats.Solver.evaluations in
    let fraction = fraction_of_grid p r in
    let matched = matches_grid p r in
    if not matched then ok := false;
    Printf.printf
      "  %-7s best %s  %7d evaluations (%5.1f%% of grid)  %7.2f s%s\n"
      name
      (match r.Solver.best with
      | None -> "-- none feasible --"
      | Some s ->
        Fmt.str "%-32s %a"
          s.Storage_optimize.Objective.design.Design.name
          Money.pp s.Storage_optimize.Objective.worst_total_cost)
      evals (100. *. fraction) seconds
      (if matched then "" else "  MISSED-OPTIMUM!");
    J.Obj
      [
        ("method", J.String (Solver.method_name r.Solver.method_));
        ("budget", J.Int r.Solver.budget);
        ("evaluations", J.Int evals);
        ("fraction_of_grid", J.Float fraction);
        ("seconds", J.Float seconds);
        ("matched_grid", J.Bool matched);
        ( "best_total_usd",
          match best_total r with
          | None -> J.Null
          | Some m -> J.Float (Money.to_usd m) );
      ]
  in
  let row_grid = row "grid" p.grid p.grid_seconds in
  let row_anneal = row "anneal" p.anneal p.anneal_seconds in
  write_bench_json "BENCH_solver.json"
    (J.Obj
       [
         ("mode", J.String "solver");
         ("tier", J.String b.Baselines.name);
         ("grid_scale", J.Int b.Baselines.grid_scale);
         ("grid_points", J.Int points);
         ("grid_evaluations", J.Int p.grid.Solver.stats.Solver.evaluations);
         ("seed", J.String (Printf.sprintf "0x%Lx" b.Baselines.solver_seed));
         ("budget_fraction", J.Float b.Baselines.solver_budget_fraction);
         ("anneal_budget", J.Int p.anneal_budget);
         ("jobs", J.Int jobs);
         ("methods", J.List [ row_grid; row_anneal ]);
       ]);
  if not !ok then exit 1

(* --- evaluation-service load generator --- *)

(* [bench/main.exe serve]: start an in-process daemon on an ephemeral
   port, hammer /evaluate from N concurrent client domains, and report
   p50/p99 latency and throughput against the cold single-shot cost of
   spawning `ssdep evaluate --json` per request (binary located via
   SSDEP_BIN). Writes BENCH_serve.json. The same measurement backs the
   serve-warm-speedup gate of [--check]. *)

(* One request per connection, mirroring the server's
   [Connection: close] discipline. Returns (status, body). *)
let http_request ~port ~meth ~path ~body =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      let bytes = Bytes.of_string req in
      let n = Bytes.length bytes in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write fd bytes !off (n - !off)
      done;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let got = Unix.read fd chunk 0 4096 in
        if got > 0 then begin
          Buffer.add_subbytes buf chunk 0 got;
          drain ()
        end
      in
      drain ();
      let raw = Buffer.contents buf in
      let status =
        (* "HTTP/1.1 NNN ..." *)
        if String.length raw >= 12 then
          Option.value ~default:0 (int_of_string_opt (String.sub raw 9 3))
        else 0
      in
      let body =
        let n = String.length raw in
        let rec find i =
          if i + 4 > n then ""
          else if String.sub raw i 4 = "\r\n\r\n" then
            String.sub raw (i + 4) (n - i - 4)
          else find (i + 1)
        in
        find 0
      in
      (status, body))

(* The workhorse request body: the baseline case study with its two
   hardware-failure scenarios, rendered in the design language. *)
let serve_body =
  lazy
    (match
       Storage_spec.Spec.design_to_string
         ~scenarios:
           [
             ("array failure", Baseline.scenario_array);
             ("site disaster", Baseline.scenario_site);
           ]
         Baseline.design
     with
    | Ok text -> text
    | Error e -> failwith ("cannot render baseline design: " ^ e))

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(int_of_float (q *. float_of_int (n - 1)))

type serve_load = {
  clients : int;
  per_client : int;
  p50 : float;
  p99 : float;
  throughput : float;  (** requests per second, all clients together *)
  failures : int;  (** non-200 responses *)
}

let serve_load ~port ~clients ~per_client =
  let body = Lazy.force serve_body in
  (* Warm the cache (and the code paths) outside the measurement. *)
  ignore (http_request ~port ~meth:"POST" ~path:"/evaluate" ~body);
  let t0 = Unix.gettimeofday () in
  let domains =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            Array.init per_client (fun _ ->
                let t = Unix.gettimeofday () in
                let status, _ =
                  http_request ~port ~meth:"POST" ~path:"/evaluate" ~body
                in
                (Unix.gettimeofday () -. t, status))))
  in
  let samples = List.concat_map (fun d -> Array.to_list (Domain.join d)) domains in
  let wall = Unix.gettimeofday () -. t0 in
  let latencies =
    Array.of_list (List.map fst samples)
  in
  Array.sort compare latencies;
  {
    clients;
    per_client;
    p50 = percentile latencies 0.50;
    p99 = percentile latencies 0.99;
    throughput = float_of_int (clients * per_client) /. wall;
    failures =
      List.length (List.filter (fun (_, status) -> status <> 200) samples);
  }

(* Wall time of one cold `ssdep evaluate --file ... --json` — process
   start, parse, evaluate, print — which is what every scripted call
   pays without the daemon. Best of [repeats]. *)
let cold_single_shot ~ssdep_bin () =
  let path = Filename.temp_file "ssdep_bench" ".ssdep" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Lazy.force serve_body));
      let cmd =
        Printf.sprintf "%s evaluate --file %s --json > /dev/null 2>&1"
          (Filename.quote ssdep_bin) (Filename.quote path)
      in
      time_best_of ~repeats:3 (fun () ->
          if Sys.command cmd <> 0 then
            failwith ("cold single-shot failed: " ^ cmd)))
let with_serve_daemon f =
  let module Server = Storage_serve.Server in
  let engine = Engine.create ~stats:true () in
  let server =
    Server.start ~config:{ Server.default_config with Server.port = 0 } engine
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Engine.shutdown engine)
    (fun () -> f (Server.port server))

let serve_bench () =
  let clients = 4 and per_client = 100 in
  let load =
    with_serve_daemon @@ fun port ->
    Printf.printf
      "Evaluation-service load: %d clients x %d requests to /evaluate \
       (port %d)\n"
      clients per_client port;
    serve_load ~port ~clients ~per_client
  in
  Printf.printf
    "  warm p50 %8.2f ms   p99 %8.2f ms   %8.1f req/s   %d failure(s)\n"
    (load.p50 *. 1e3) (load.p99 *. 1e3) load.throughput load.failures;
  let cold =
    match Sys.getenv_opt "SSDEP_BIN" with
    | None ->
      print_endline
        "  cold single-shot: skipped (SSDEP_BIN not set; point it at the \
         ssdep binary)";
      None
    | Some ssdep_bin ->
      let t = cold_single_shot ~ssdep_bin () in
      Printf.printf
        "  cold single-shot `ssdep evaluate --json`: %8.2f ms  (%.1fx the \
         warm p50)\n"
        (t *. 1e3) (t /. load.p50);
      Some t
  in
  write_bench_json "BENCH_serve.json"
    (J.Obj
       ([
          ("mode", J.String "serve");
          ("clients", J.Int load.clients);
          ("requests_per_client", J.Int load.per_client);
          ("warm_p50_seconds", J.Float load.p50);
          ("warm_p99_seconds", J.Float load.p99);
          ("throughput_rps", J.Float load.throughput);
          ("failures", J.Int load.failures);
        ]
       @ (match cold with
         | None -> [ ("cold_single_shot", J.String "skipped") ]
         | Some t ->
           [
             ("cold_single_shot_seconds", J.Float t);
             ("warm_speedup", J.Float (t /. load.p50));
           ])
       @ [ ("stats", Storage_obs.snapshot ()) ]));
  if load.failures > 0 then exit 1

(* --- perf-regression gate --- *)

(* [bench/main.exe --check [--smoke]]: measure the evaluation hot path
   and compare against the committed floors/ceilings in
   [bench/baselines.ml]. One machine-readable "CHECK <gate> <ok|FAIL|skip>"
   line per gate on stdout, the same data in BENCH_check.json, exit code
   1 on any failure. The smoke tier runs under `dune runtest` on every
   build; the full tier is the nightly CI gate. *)
let check_bench ~smoke () =
  let b = if smoke then Baselines.smoke else Baselines.full in
  let cores = Storage_parallel.Pool.default_jobs () in
  let grid () =
    Storage_optimize.Candidate.enumerate kit
      (Storage_optimize.Candidate.scaled_space ~scale:b.Baselines.grid_scale)
  in
  let n = Seq.length (grid ()) in
  Printf.printf
    "Perf-regression check, %s tier: %d candidates x %d scenarios, %d \
     core(s)\n"
    b.Baselines.name n (List.length array_and_site) cores;
  let gates = ref [] in
  let gate name ~measured ~threshold ~ok ~unit_ =
    Printf.printf "CHECK %-17s %-4s measured %12.1f %s (threshold %.1f)\n"
      name
      (if ok then "ok" else "FAIL")
      measured unit_ threshold;
    gates :=
      J.Obj
        [
          ("gate", J.String name);
          ("status", J.String (if ok then "ok" else "fail"));
          ("measured", J.Float measured);
          ("threshold", J.Float threshold);
          ("unit", J.String unit_);
        ]
      :: !gates;
    ok
  in
  let skip name reason =
    Printf.printf "CHECK %-17s skip %s\n" name reason;
    gates :=
      J.Obj
        [
          ("gate", J.String name);
          ("status", J.String "skip");
          ("reason", J.String reason);
        ]
      :: !gates;
    true
  in
  (* Gate 1 — serial streaming throughput, cache off: regressions in
     enumeration, the evaluation stages or the search loop itself all
     land here. *)
  let t_serial =
    search_seconds ~repeats:(if smoke then 3 else 2) ~jobs:1 grid
      array_and_site
  in
  let cps = float_of_int n /. t_serial in
  let ok_throughput =
    gate "serial-throughput" ~measured:cps
      ~threshold:b.Baselines.min_candidates_per_sec
      ~ok:(cps >= b.Baselines.min_candidates_per_sec)
      ~unit_:"candidates/s"
  in
  (* Gate 2 — parallel speedup: wall-clock serial over [b.jobs] domains.
     Skipped, not failed, when the machine cannot supply the domains —
     a speedup measured on time-shared cores is noise either way. *)
  let ok_speedup =
    if cores < b.Baselines.jobs then
      skip "parallel-speedup"
        (Printf.sprintf "%d core(s) < %d jobs" cores b.Baselines.jobs)
    else begin
      let t_par =
        search_seconds ~repeats:(if smoke then 3 else 2) ~jobs:b.Baselines.jobs
          grid array_and_site
      in
      let speedup = t_serial /. t_par in
      gate "parallel-speedup" ~measured:speedup
        ~threshold:b.Baselines.min_parallel_speedup
        ~ok:(speedup >= b.Baselines.min_parallel_speedup)
        ~unit_:"x"
    end
  in
  (* Gate 3 — peak live words of the monitored bounded-cache serial run:
     the O(window + frontier + cache bound) memory contract. An O(grid)
     leak — materializing summaries, an unbounded memo — blows through
     the ceiling by an order of magnitude. *)
  let ok_peak =
    let _, _, peak =
      peak_live_words (fun monitored ->
          search ~cache:true ~jobs:1 (monitored (grid ())) array_and_site)
    in
    gate "peak-live-words"
      ~measured:(float_of_int peak)
      ~threshold:(float_of_int b.Baselines.max_peak_live_words)
      ~ok:(peak <= b.Baselines.max_peak_live_words)
      ~unit_:"words"
  in
  (* Gate 4 — fleet Monte Carlo throughput: serial trials/s of the
     baseline preset. Regressions in the trace sampler, the degenerate
     single-event reduction or the event-driven simulator's hot loop
     (e.g. a reintroduced sub-ulp advance stall) land here. *)
  let ok_fleet =
    let _, t_fleet =
      fleet_run ~repeats:(if smoke then 2 else 3) ~jobs:1
        ~config:
          (Fleet.config ~trials:b.Baselines.fleet_trials ~horizon_years:5. ())
        Baseline.design
    in
    let tps = float_of_int b.Baselines.fleet_trials /. t_fleet in
    gate "fleet-trials-per-sec" ~measured:tps
      ~threshold:b.Baselines.min_fleet_trials_per_sec
      ~ok:(tps >= b.Baselines.min_fleet_trials_per_sec)
      ~unit_:"trials/s"
  in
  (* Gate 5 — solver-vs-grid parity, serial: annealing must land on the
     grid optimum exactly. The measured value is the share of the grid the
     solver actually evaluated; the gate fails either by missing the
     optimum or by burning more than the committed fraction. Deterministic
     (pinned seed), so a failure here is a solver regression, not
     noise. *)
  let ok_solver =
    let p = solver_parity ~jobs:1 b array_and_site in
    let fraction = 100. *. fraction_of_grid p p.anneal in
    let threshold = 100. *. b.Baselines.solver_budget_fraction in
    gate "solver-vs-grid" ~measured:fraction ~threshold
      ~ok:(matches_grid p p.anneal && fraction <= threshold)
      ~unit_:"% of grid"
  in
  (* Gate 6 — the daemon's reason to exist: warm-cache /evaluate p50
     must beat the cold single-shot CLI wall time by the committed
     factor. Runs last: [Server.start] flips the obs registry on, which
     must not perturb the gates above. Skipped when SSDEP_BIN does not
     point at the CLI binary (nothing cold to time). *)
  let ok_serve =
    match Sys.getenv_opt "SSDEP_BIN" with
    | None -> skip "serve-warm-speedup" "SSDEP_BIN not set"
    | Some ssdep_bin ->
      let load =
        with_serve_daemon (fun port ->
            serve_load ~port ~clients:4 ~per_client:(if smoke then 25 else 100))
      in
      let cold = cold_single_shot ~ssdep_bin () in
      let speedup = cold /. load.p50 in
      if load.failures > 0 then
        gate "serve-warm-speedup"
          ~measured:(float_of_int load.failures)
          ~threshold:0. ~ok:false ~unit_:"failed requests"
      else
        gate "serve-warm-speedup" ~measured:speedup
          ~threshold:b.Baselines.min_serve_warm_speedup
          ~ok:(speedup >= b.Baselines.min_serve_warm_speedup)
          ~unit_:"x"
  in
  let pass =
    ok_throughput && ok_speedup && ok_peak && ok_fleet && ok_solver && ok_serve
  in
  write_bench_json "BENCH_check.json"
    (J.Obj
       [
         ("mode", J.String "check");
         ("tier", J.String b.Baselines.name);
         ("grid_scale", J.Int b.Baselines.grid_scale);
         ("candidates", J.Int n);
         ("scenarios", J.Int (List.length array_and_site));
         ("recommended_domain_count", J.Int cores);
         ("gates", J.List (List.rev !gates));
         ("pass", J.Bool pass);
       ]);
  Printf.printf "CHECK result: %s\n" (if pass then "pass" else "FAIL");
  if not pass then exit 1

(* --- micro-benchmarks --- *)

let small_trace =
  lazy
    (Storage_workload.Trace.generate ~seed:11L
       {
         Cello.trace_profile with
         Storage_workload.Trace.block_count = 4096;
         mean_update_rate = Rate.mib_per_sec 2.;
       }
       (Duration.hours 6.))

let micro_tests =
  [
    Test.make ~name:"table2: trace characterization (6h trace)"
      (Staged.stage (fun () ->
           let trace = Lazy.force small_trace in
           Storage_workload.Trace_stats.batch_curve trace
             ~windows:[ Duration.minutes 1.; Duration.hours 1. ]));
    Test.make ~name:"table5: utilization (baseline)"
      (Staged.stage (fun () -> Utilization.compute Baseline.design));
    Test.make ~name:"table6: evaluate 3 scenarios (baseline)"
      (Staged.stage (fun () ->
           Evaluate.run_all Baseline.design Baseline.scenarios));
    Test.make ~name:"table7: evaluate 7 designs x 2 scenarios"
      (Staged.stage (fun () ->
           List.iter
             (fun (_, d) -> ignore (Evaluate.run_all d array_and_site))
             Whatif.all));
    Test.make ~name:"figure3: RP ranges (baseline)"
      (Staged.stage (fun () ->
           let h = Baseline.design.Design.hierarchy in
           List.init
             (Storage_hierarchy.Hierarchy.length h)
             (Storage_hierarchy.Hierarchy.guaranteed_range h)));
    Test.make ~name:"figure4: recovery timeline (site)"
      (Staged.stage (fun () ->
           Recovery_time.compute Baseline.design Baseline.scenario_site
             ~source_level:3));
    Test.make ~name:"figure5: cost outlays (baseline)"
      (Staged.stage (fun () -> Cost.outlays Baseline.design));
    Test.make ~name:"sim: 4-week warmup + array failure"
      (Staged.stage (fun () ->
           Storage_sim.Sim.run
             ~config:{ Storage_sim.Sim.default_config with warmup = Duration.weeks 4. }
             Baseline.design Baseline.scenario_array));
  ]

let run_micro () =
  print_endline "Micro-benchmarks (Bechamel, monotonic clock):";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let test = Test.make_grouped ~name:"experiments" ~fmt:"%s %s" micro_tests in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols with Some r -> r | None -> nan
      in
      rows := (name, estimate, r2) :: !rows)
    results;
  let rows = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rows in
  List.iter
    (fun (name, ns, r2) ->
      let human =
        if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "  %-50s %s/run  (r² %.3f)\n" name human r2)
    rows

let () =
  match Array.to_list Sys.argv with
  | [] | _ :: [] ->
    List.iter (fun (name, _) -> print_artifact name) artifacts;
    validate ();
    print_newline ();
    ablate ();
    run_micro ()
  | _ :: [ "micro" ] -> run_micro ()
  | _ :: [ "validate" ] -> validate ()
  | _ :: [ "pareto" ] -> pareto ()
  | _ :: [ "parallel" ] -> parallel_bench ()
  | _ :: [ "stream" ] -> stream_bench ()
  | _ :: [ "fleet" ] -> fleet_bench ()
  | _ :: [ "serve" ] -> serve_bench ()
  | _ :: [ "solver" ] -> solver_bench ~smoke:false ()
  | _ :: [ "solver"; "smoke" ] -> solver_bench ~smoke:true ()
  | _ :: ([ "--check" ] | [ "check" ]) -> check_bench ~smoke:false ()
  | _ :: ([ "--check"; "--smoke" ] | [ "check"; "smoke" ]) ->
    check_bench ~smoke:true ()
  | _ :: [ "ablate" ] -> ablate ()
  | _ :: names -> List.iter print_artifact names
