open Storage_units
open Storage_protection
open Storage_hierarchy
open Storage_model

let level technique device link = { Hierarchy.technique; device; link }

let primary_level =
  level
    (Technique.Primary_copy { raid = Raid.Raid1 })
    Baseline.disk_array None

let split_mirror_level =
  level
    (Technique.Split_mirror Baseline.split_mirror_schedule)
    Baseline.disk_array None

(* Weekly vaulting with a 12 hr hold; retention count keeps the three-year
   horizon of the baseline (156 weekly cycles). *)
let weekly_vault_schedule =
  Schedule.simple ~acc:(Duration.weeks 1.) ~prop:(Duration.hours 24.)
    ~hold:(Duration.hours 12.) ~retention_count:156 ()

let make_design name ~backup_schedule ~pit_level =
  let hierarchy =
    Hierarchy.make_exn
      [
        primary_level;
        pit_level;
        level (Technique.Backup backup_schedule) Baseline.tape_library
          (Some Baseline.san);
        level
          (Technique.Vaulting weekly_vault_schedule)
          Baseline.vault (Some Baseline.air_shipment);
      ]
  in
  Design.make ~name ~workload:Cello.workload ~hierarchy
    ~business:Baseline.business ()

let weekly_vault =
  make_design "weekly vault" ~backup_schedule:Baseline.backup_schedule
    ~pit_level:split_mirror_level

(* Weekly fulls (48 hr windows) plus five daily cumulative incrementals. *)
let full_incremental_schedule =
  Schedule.make
    ~full:
      (Schedule.windows ~acc:(Duration.hours 48.) ~prop:(Duration.hours 48.)
         ~hold:(Duration.hours 1.) ())
    ~secondary:
      ( Schedule.Cumulative,
        Schedule.windows ~acc:(Duration.hours 24.) ~prop:(Duration.hours 12.)
          ~hold:(Duration.hours 1.) () )
    ~cycle_count:5 ~retention_count:4 ()

let weekly_vault_full_incremental =
  make_design "weekly vault, F+I" ~backup_schedule:full_incremental_schedule
    ~pit_level:split_mirror_level

(* Daily fulls; retention count keeps the four-week horizon (28 days). *)
let daily_full_schedule =
  Schedule.simple ~acc:(Duration.hours 24.) ~prop:(Duration.hours 12.)
    ~hold:(Duration.hours 1.) ~retention_count:28 ()

let weekly_vault_daily_full =
  make_design "weekly vault, daily F" ~backup_schedule:daily_full_schedule
    ~pit_level:split_mirror_level

let snapshot_level =
  level
    (Technique.Virtual_snapshot Baseline.split_mirror_schedule)
    Baseline.disk_array None

let weekly_vault_daily_full_snapshot =
  make_design "weekly vault, daily F, snap" ~backup_schedule:daily_full_schedule
    ~pit_level:snapshot_level

(* Wide-area asynchronous batch mirroring: one-minute batches, propagated
   within the next minute, replacing all tape-based protection. *)
let async_batch_schedule =
  Schedule.simple ~acc:(Duration.minutes 1.) ~prop:(Duration.minutes 1.)
    ~retention_count:1 ()

let async_mirror ~links =
  let hierarchy =
    Hierarchy.make_exn
      [
        primary_level;
        level
          (Technique.Remote_mirror
             {
               mode = Technique.Asynchronous_batch;
               schedule = async_batch_schedule;
             })
          Baseline.remote_array
          (Some (Baseline.oc3 ~links));
      ]
  in
  Design.make
    ~name:(Printf.sprintf "asyncB mirror, %d link%s" links (if links = 1 then "" else "s"))
    ~workload:Cello.workload ~hierarchy ~business:Baseline.business ()

let erasure_coded ~fragments ~required ~links =
  let schedule =
    Schedule.simple ~acc:(Duration.hours 1.) ~prop:(Duration.hours 1.)
      ~retention_count:24 ()
  in
  let hierarchy =
    Hierarchy.make_exn
      [
        primary_level;
        {
          Hierarchy.technique =
            Technique.Erasure_coded { fragments; required; schedule };
          device = Baseline.remote_array;
          link = Some (Baseline.oc3 ~links);
        };
      ]
  in
  Design.make
    ~name:(Printf.sprintf "erasure %d-of-%d" required fragments)
    ~workload:Cello.workload ~hierarchy ~business:Baseline.business ()

let all =
  [
    ("baseline", Baseline.design);
    ("weekly vault", weekly_vault);
    ("weekly vault, F+I", weekly_vault_full_incremental);
    ("weekly vault, daily F", weekly_vault_daily_full);
    ("weekly vault, daily F, snapshot", weekly_vault_daily_full_snapshot);
    ("asyncB mirror, 1 link", async_mirror ~links:1);
    ("asyncB mirror, 10 links", async_mirror ~links:10);
  ]

(* The search hardware: one definition of the kit the CLI, the benches
   and the capacity-planning example all enumerate over, so a grid run
   anywhere is a grid over the same baseline case study. *)
let search_kit ?(business = Baseline.business) () =
  {
    Storage_optimize.Candidate.workload = Cello.workload;
    business;
    primary = Baseline.disk_array;
    tape_library = Baseline.tape_library;
    vault = Baseline.vault;
    remote_array = Baseline.remote_array;
    san = Baseline.san;
    shipment = Baseline.air_shipment;
    wan = (fun links -> Baseline.oc3 ~links);
  }

let search_space ?(scale = 1) () = Storage_optimize.Candidate.scaled_space ~scale

let search_problem ?rto ?rpo ?scale () =
  let business =
    Business.make
      ~outage_penalty_rate:(Money_rate.usd_per_hour 50_000.)
      ~loss_penalty_rate:(Money_rate.usd_per_hour 50_000.)
      ?recovery_time_objective:(Option.map Duration.hours rto)
      ?recovery_point_objective:(Option.map Duration.hours rpo)
      ()
  in
  ( search_kit ~business (),
    search_space ?scale (),
    [ Baseline.scenario_array; Baseline.scenario_site ] )
