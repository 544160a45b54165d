open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model
module Diagnostic = Diagnostic

let err = Diagnostic.make
let near_full_threshold = 0.9

(* --- rule registry (kept in sync with the checks below; the test suite
   asserts every code here has a fixture and every emitted code is
   registered) --- *)

let rules : (string * Diagnostic.severity * string) list =
  [
    ("SSDEP-E001", Error, "level 0 must be the only primary copy");
    ("SSDEP-E002", Error, "every level above 0 needs a schedule");
    ("SSDEP-E003", Error, "retention count must not decrease with level");
    ( "SSDEP-E004",
      Error,
      "accumulation window shorter than the upstream cycle period" );
    ( "SSDEP-E005",
      Error,
      "colocated technique must be hosted on the primary device" );
    ("SSDEP-E010", Error, "device capacity overcommitted");
    ("SSDEP-E011", Error, "device bandwidth overcommitted");
    ("SSDEP-E012", Error, "technique requires an interconnect");
    ( "SSDEP-E013",
      Error,
      "link bandwidth below the technique's required rate" );
    ("SSDEP-E014", Error, "negative or non-finite workload parameter");
    ("SSDEP-E015", Error, "negative or non-finite cost term");
    ( "SSDEP-E016",
      Error,
      "destroyed device on the recovery path has no applicable spare" );
    ("SSDEP-E017", Error, "no bandwidth available on the recovery path");
    ( "SSDEP-E018",
      Error,
      "interconnect oversubscribed by aggregate propagation demand" );
    ("SSDEP-W001", Warning, "device capacity nearly full");
    ("SSDEP-W002", Warning, "device bandwidth nearly saturated");
    ( "SSDEP-W003",
      Warning,
      "asynchronous mirror link below the peak (burst) update rate" );
    ( "SSDEP-W004",
      Warning,
      "batch update rate exceeds the raw average update rate" );
    ("SSDEP-W005", Warning, "zero update rate under protection levels");
    ("SSDEP-W006", Warning, "scenario destroys every protection level");
    ( "SSDEP-W007",
      Warning,
      "no surviving level guarantees the scenario's target age" );
    ( "SSDEP-I001",
      Info,
      "hold window exceeds the previous level's retention window" );
    ("SSDEP-I002", Info, "retention too shallow to guarantee any RP range");
  ]

(* --- structural conventions over a raw level list (§3.2.1) --- *)

let level_loc j (l : Hierarchy.level) =
  Diagnostic.Level { index = j; technique = Technique.name l.technique }

let check_levels (levels : Hierarchy.level list) =
  let level = Array.of_list levels in
  let loc j = level_loc j level.(j) in
  let schedule j = Option.get (Technique.schedule level.(j).technique) in
  List.map
    (function
      | Hierarchy.No_levels ->
        err ~code:"SSDEP-E001" Error Design_wide
          "hierarchy must have at least a primary level"
      | Not_primary ->
        err ~code:"SSDEP-E001" Error (loc 0) "level 0 must be a primary copy"
      | Extra_primary j ->
        err ~code:"SSDEP-E001" Error (loc j)
          "only level 0 may be a primary copy"
      | Missing_schedule j ->
        err ~code:"SSDEP-E002" Error (loc j)
          "every level above 0 must have a schedule"
      | Not_colocated j ->
        err ~code:"SSDEP-E005" Error (loc j)
          "%s must be hosted on the primary device %s, not %s"
          (Technique.name level.(j).technique)
          level.(0).device.Device.name level.(j).device.Device.name
      | Retention_decreases j ->
        err ~code:"SSDEP-E003" Error (loc j)
          "retention count %d is below level %d's %d (§3.2.1 convention 2)"
          (schedule j).Schedule.retention_count (j - 1)
          (schedule (j - 1)).Schedule.retention_count
      | Accumulation_short j ->
        err ~code:"SSDEP-E004" Error (loc j)
          "accumulation window %s is shorter than level %d's cycle period %s"
          (Duration.to_string (schedule j).Schedule.full.Schedule.accumulation)
          (j - 1)
          (Duration.to_string (Schedule.cycle_period (schedule (j - 1)))))
    (Hierarchy.violations levels)

(* --- design-wide static rules --- *)

(* The error-severity rules are renderings of [Design.violations]: the
   decision is made once, in the model, and lint only names it. *)
let violation_diagnostic (d : Design.t) = function
  | Design.Capacity_overcommitted (dev, u) ->
    err ~code:"SSDEP-E010" Error (Device dev.Device.name)
      "capacity overcommitted: %.1f%% of %s (%d slots needed, %d available)"
      (100. *. u.Device.capacity_fraction)
      (Size.to_string (Device.max_capacity dev))
      u.Device.capacity_slots_needed dev.Device.max_capacity_slots
  | Bandwidth_overcommitted (dev, u) ->
    err ~code:"SSDEP-E011" Error (Device dev.Device.name)
      "bandwidth overcommitted: %.1f%% of %s"
      (100. *. u.Device.bandwidth_fraction)
      (Rate.to_string (Device.max_bandwidth dev))
  | Missing_link j ->
    let l = Hierarchy.level d.Design.hierarchy j in
    err ~code:"SSDEP-E012" Error (level_loc j l)
      "%s requires an interconnect and none is configured"
      (Technique.name l.technique)
  | Slow_link { level; link; bandwidth; required } ->
    err ~code:"SSDEP-E013" Error (Link link.Interconnect.name)
      "bandwidth %s cannot sustain %s traffic (%s required)"
      (Rate.to_string bandwidth)
      (Technique.name (Hierarchy.level d.Design.hierarchy level).technique)
      (Rate.to_string required)
  | Oversubscribed_link { link; demand; bandwidth } ->
    err ~code:"SSDEP-E018" Error (Link link.Interconnect.name)
      "aggregate propagation demand %s exceeds link bandwidth %s"
      (Rate.to_string demand) (Rate.to_string bandwidth)
  | Bad_term { owner; what; value } -> (
    let e015 loc owner =
      err ~code:"SSDEP-E015" Error loc "%s %s is negative or non-finite (%g)"
        owner what value
    in
    match owner with
    | Workload_term ->
      err ~code:"SSDEP-E014" Error Workload
        "%s is negative or non-finite (%g)" what value
    | Device_term name -> e015 (Device name) "device"
    | Link_term name -> e015 (Link name) "link"
    | Business_term -> e015 Business "business")

let check_design (d : Design.t) =
  let ds = ref (List.rev_map (violation_diagnostic d) (Design.violations d)) in
  let add x = ds := x :: !ds in
  let h = d.Design.hierarchy in
  let w = d.Design.workload in
  (* Devices: an advisory band below §3.3.1's overcommitment check. *)
  List.iter
    (fun (dev : Device.t) ->
      let u = Design.device_utilization d dev in
      let loc = Diagnostic.Device dev.Device.name in
      let near f = f > near_full_threshold && f <= 1. in
      if near u.Device.capacity_fraction then
        add
          (err ~code:"SSDEP-W001" Warning loc
             "capacity %.1f%% full: little headroom for growth or extra \
              retention"
             (100. *. u.Device.capacity_fraction));
      if near u.Device.bandwidth_fraction then
        add
          (err ~code:"SSDEP-W002" Warning loc
             "bandwidth %.1f%% saturated: recovery transfers will crawl"
             (100. *. u.Device.bandwidth_fraction)))
    (Design.devices d);
  (* An asynchronous mirror link that keeps up on average (no E013) but
     not with the workload's [burstM * avgUpdateR] spikes will queue
     behind them. *)
  let slow j =
    List.exists
      (function Design.Slow_link { level; _ } -> level = j | _ -> false)
      (Design.violations d)
  in
  List.iteri
    (fun j (l : Hierarchy.level) ->
      match (l.technique, l.link) with
      | ( Technique.Remote_mirror
            { mode = Technique.Asynchronous | Technique.Asynchronous_batch; _ },
          Some link )
        when (not
                (Rate.is_zero
                   (Demands.required_link_bandwidth ~workload:w l.technique)))
             && not (slow j) -> (
        let peak = Workload.peak_update_rate w in
        match Interconnect.bandwidth link with
        | Some bw when Rate.compare bw peak < 0 ->
          add
            (err ~code:"SSDEP-W003" Warning (Link link.Interconnect.name)
               "bandwidth %s is below the peak (burst) update rate %s: \
                asynchronous propagation will lag during bursts"
               (Rate.to_string bw) (Rate.to_string peak))
        | Some _ | None -> ())
      | _ -> ())
    (Hierarchy.levels h);
  (* Trace/batch-curve consistency: the unique update rate can never
     exceed the raw update rate the trace generator was parameterized
     with — overwrites only coalesce writes, they cannot invent them. *)
  (match
     List.find_opt
       (fun (_, r) -> Rate.compare r w.Workload.avg_update_rate > 0)
       (Batch_curve.samples w.Workload.batch_curve)
   with
  | Some (win, r) ->
    add
      (err ~code:"SSDEP-W004" Warning Workload
         "batch update rate %s over a %s window exceeds the raw average \
          update rate %s: inconsistent trace parameters"
         (Rate.to_string r) (Duration.to_string win)
         (Rate.to_string w.Workload.avg_update_rate))
  | None -> ());
  if Rate.is_zero w.Workload.avg_update_rate && Hierarchy.length h > 1 then
    add
      (err ~code:"SSDEP-W005" Warning Workload
         "update rate is zero, yet %d protection level(s) are configured \
          to capture updates"
         (Hierarchy.length h - 1));
  (* Advisories: the paper's convention 3 (§3.2.1) and guaranteed-range
     shallowness (§3.3.2, Figure 3). *)
  List.iter
    (fun j ->
      let l = Hierarchy.level h j in
      add
        (err ~code:"SSDEP-I001" Info (level_loc j l)
           "hold window exceeds level %d's retention window: extra \
            retention capacity is required at level %d (§3.2.1 convention \
            3)"
           (j - 1) (j - 1)))
    (Hierarchy.hold_retention_inversions h);
  for j = 1 to Hierarchy.length h - 1 do
    if Design.guaranteed_range d j = None then
      add
        (err ~code:"SSDEP-I002" Info (level_loc j (Hierarchy.level h j))
           "retention is too shallow to guarantee any retrieval-point \
            range (Figure 3)")
  done;
  List.rev !ds

(* --- per-scenario rules --- *)

let check_scenario (d : Design.t) (name, (sc : Scenario.t)) =
  let ds = ref [] in
  let add x = ds := x :: !ds in
  let loc = Diagnostic.Scenario name in
  let dl = Data_loss.compute d sc in
  (match (dl.Data_loss.loss, dl.Data_loss.candidates) with
  | Data_loss.Entire_object, [] ->
    add
      (err ~code:"SSDEP-W006" Warning loc
         "no protection level survives scope %s as a recovery source: the \
          object cannot be recovered"
         (Location.scope_name sc.Scenario.scope))
  | Data_loss.Entire_object, _ :: _ ->
    add
      (err ~code:"SSDEP-W007" Warning loc
         "no surviving level guarantees a retrieval point of age %s: the \
          target predates all retained RPs"
         (Duration.to_string sc.Scenario.target_age))
  | Data_loss.Updates _, _ -> ());
  (match dl.Data_loss.source_level with
  | Some source_level when source_level > 0 ->
    (* Spare-pool adequacy along the recovery path: every receiving
       device destroyed by the scope needs a spare that covers the scope
       (the remote spare for building/site/region failures). Mirrors
       [Recovery_time]'s provisioning step. *)
    let scope = sc.Scenario.scope in
    let path =
      Recovery_time.recovery_path d.Design.hierarchy ~source:source_level
    in
    let receiving = match path with [] -> [] | _ :: tl -> tl in
    let missing_spare = ref false in
    List.iter
      (fun j ->
        let dev = (Hierarchy.level d.Design.hierarchy j).Hierarchy.device in
        if
          Location.destroys scope ~device_name:dev.Device.name
            dev.Device.location
          && Spare.provisioning_time (Device.spare_for dev ~scope) = None
        then begin
          missing_spare := true;
          add
            (err ~code:"SSDEP-E016" Error loc
               "device %s is destroyed and has no spare covering this \
                scope: recovery cannot provision a replacement"
               dev.Device.name)
        end)
      (List.sort_uniq Int.compare receiving);
    if not !missing_spare then begin
      (* The only other static failure of the recovery timeline is a hop
         with zero available bandwidth; reuse the timeline computation so
         the check can never drift from the evaluator. *)
      match Recovery_time.compute d sc ~source_level with
      | Ok _ -> ()
      | Error e -> add (err ~code:"SSDEP-E017" Error loc "%s" e)
    end
  | Some _ | None -> ());
  List.rev !ds

(* --- entry points --- *)

let check ?(scenarios = []) d =
  check_design d @ List.concat_map (check_scenario d) scenarios
  |> List.sort_uniq Diagnostic.compare

let errors ds =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds

let warnings ds =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Warning) ds

let infos ds =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Info) ds

let accepts d = Design.violations d = []
let obs_pruned = Storage_obs.Counter.make "lint.pruned"

let prefilter d =
  accepts d
  ||
  (Storage_obs.Counter.incr obs_pruned;
   false)

let exit_code ?(deny_warnings = false) ds =
  if errors ds <> [] then 2
  else if deny_warnings && warnings ds <> [] then 1
  else 0

let pp_summary ppf ds =
  Fmt.pf ppf "%d error(s), %d warning(s), %d info(s)"
    (List.length (errors ds))
    (List.length (warnings ds))
    (List.length (infos ds))

let pp ppf ds =
  match ds with
  | [] -> Fmt.pf ppf "clean: %a" pp_summary ds
  | _ ->
    Fmt.pf ppf "@[<v>%a@,%a@]"
      (Fmt.list ~sep:Fmt.cut Diagnostic.pp)
      ds pp_summary ds

let to_json ~design ds =
  Storage_report.Json.Obj
    [
      ("design", Storage_report.Json.String design);
      ( "diagnostics",
        Storage_report.Json.List (List.map Diagnostic.to_json ds) );
      ("errors", Storage_report.Json.Int (List.length (errors ds)));
      ("warnings", Storage_report.Json.Int (List.length (warnings ds)));
      ("infos", Storage_report.Json.Int (List.length (infos ds)));
    ]
