open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy

(* Everything the evaluation pipeline derives from a design's structure,
   computed once per design and memoized. Each record field is pure
   marshalable data (no closures, no lazies): designs are routinely
   marshaled by the byte-identity test suites, and the whole record is
   always computed in one shot, so two structurally equal designs that have
   both been touched by any accessor marshal identically. *)
type level_lag = {
  lag_worst : Duration.t;
  lag_range : Age_range.t option;
  lag_rp_min : Duration.t;  (** zero for level 0 (no schedule) *)
}

type term_owner =
  | Workload_term
  | Device_term of string
  | Link_term of string
  | Business_term

type violation =
  | Capacity_overcommitted of Device.t * Device.utilization
  | Bandwidth_overcommitted of Device.t * Device.utilization
  | Missing_link of int
  | Slow_link of {
      level : int;
      link : Interconnect.t;
      bandwidth : Rate.t;
      required : Rate.t;
    }
  | Oversubscribed_link of {
      link : Interconnect.t;
      demand : Rate.t;
      bandwidth : Rate.t;
    }
  | Bad_term of { owner : term_owner; what : string; value : float }

type derived = {
  d_placements : (int * Hierarchy.level * Demands.placement) list;
  d_devices : Device.t list;
  d_demands : (string * Demand.labeled list) list;
  d_loaded : (string * Demand.labeled list) list;
  d_utilization : (string * Device.utilization) list;
  d_link_demands : (string * Rate.t) list;
  d_violations : violation list;
  d_level_lags : level_lag array;
}

type t = {
  name : string;
  workload : Workload.t;
  hierarchy : Hierarchy.t;
  business : Business.t;
  background : (string * Demand.labeled list) list;
  key : Struct_hash.t;
  derived_memo : derived option Atomic.t;
}

let primary_raid t =
  match (Hierarchy.primary t.hierarchy).Hierarchy.technique with
  | Technique.Primary_copy { raid } -> raid
  | _ -> assert false (* enforced by Hierarchy.make *)

let compute_devices t =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (l : Hierarchy.level) ->
      let name = l.device.Device.name in
      if Hashtbl.mem seen name then None
      else begin
        Hashtbl.add seen name ();
        Some l.device
      end)
    (Hierarchy.levels t.hierarchy)

(* The RAID capacity factor charged for a level's copies: colocated
   techniques inherit the primary array's organization; everything else is
   charged logical capacity (§3.2.3 charges mirror destinations "the data
   capacity"). *)
let host_raid_for t (l : Hierarchy.level) =
  if Technique.colocated_with_primary l.technique then primary_raid t
  else Raid.Raid0

let compute_placements t =
  let h = t.hierarchy in
  List.mapi
    (fun j (l : Hierarchy.level) ->
      let upstream =
        if j = 0 then None
        else Technique.schedule (Hierarchy.level h (j - 1)).Hierarchy.technique
      in
      let placement =
        Demands.of_technique ~workload:t.workload
          ~host_raid:(host_raid_for t l) ?upstream l.technique
      in
      (j, l, placement))
    (Hierarchy.levels h)

let compute_demands_on t placements name =
  let h = t.hierarchy in
  List.concat_map
    (fun (j, (l : Hierarchy.level), (p : Demands.placement)) ->
      let target =
        if String.equal l.device.Device.name name then
          [ { Demand.technique = Technique.name l.technique;
              demand = p.on_target } ]
        else []
      in
      let source =
        if j > 0 && not (Demand.is_zero p.on_source) then begin
          let src = (Hierarchy.level h (j - 1)).Hierarchy.device in
          if String.equal src.Device.name name then
            [ { Demand.technique = Technique.name l.technique;
                demand = p.on_source } ]
          else []
        end
        else []
      in
      target @ source)
    placements
  |> List.filter (fun l -> not (Demand.is_zero l.Demand.demand))

let background_on t name =
  match List.assoc_opt name t.background with
  | Some demands -> demands
  | None -> []

let compute_link_demand placements (link : Interconnect.t) =
  List.fold_left
    (fun acc (_, (l : Hierarchy.level), (p : Demands.placement)) ->
      match l.Hierarchy.link with
      | Some lk when String.equal lk.Interconnect.name link.Interconnect.name
        ->
        Rate.add acc p.on_link
      | Some _ | None -> acc)
    Rate.zero placements

let distinct_links t =
  let seen = Hashtbl.create 4 in
  List.filter_map
    (fun (l : Hierarchy.level) ->
      match l.Hierarchy.link with
      | Some link when not (Hashtbl.mem seen link.Interconnect.name) ->
        Hashtbl.add seen link.Interconnect.name ();
        Some link
      | Some _ | None -> None)
    (Hierarchy.levels t.hierarchy)

let nonneg_finite f = Float.is_finite f && f >= 0.

let check_term out owner what value ok =
  if not ok then out := Bad_term { owner; what; value } :: !out

let check_cost_terms out owner (c : Cost_model.t) =
  let check what v = check_term out owner what v (nonneg_finite v) in
  check "fixed cost" (Money.to_usd c.Cost_model.fixed);
  check "per-GiB cost" c.Cost_model.per_gib;
  check "per-MiB/s cost" c.Cost_model.per_mib_per_sec;
  check "per-shipment cost" c.Cost_model.per_shipment

let compute_violations t devices ~utilization ~link_demands links =
  let out = ref [] in
  let add v = out := v :: !out in
  (* §3.3.1's global overcommitment check. *)
  List.iter2
    (fun dev (_, (u : Device.utilization)) ->
      if u.Device.capacity_fraction > 1. then
        add (Capacity_overcommitted (dev, u));
      if u.Device.bandwidth_fraction > 1. then
        add (Bandwidth_overcommitted (dev, u)))
    devices utilization;
  (* Per-level interconnect requirements: a synchronous mirror link must
     sustain the peak rate, asynchronous modes the average. *)
  List.iteri
    (fun j (l : Hierarchy.level) ->
      let required =
        Demands.required_link_bandwidth ~workload:t.workload l.technique
      in
      if not (Rate.is_zero required) then begin
        match l.link with
        | None -> add (Missing_link j)
        | Some link -> (
          match Interconnect.bandwidth link with
          | Some bandwidth when Rate.compare bandwidth required < 0 ->
            add (Slow_link { level = j; link; bandwidth; required })
          | Some _ | None -> ())
      end)
    (Hierarchy.levels t.hierarchy);
  (* Aggregate oversubscription: levels sharing an interconnect must fit
     on it together. *)
  List.iter2
    (fun link (_, demand) ->
      match Interconnect.bandwidth link with
      | Some bandwidth when Rate.compare demand bandwidth > 0 ->
        add (Oversubscribed_link { link; demand; bandwidth })
      | Some _ | None -> ())
    links link_demands;
  (* Workload parameters and cost terms the models would price. *)
  let w = t.workload in
  let rate what r =
    let v = Rate.to_bytes_per_sec r in
    check_term out Workload_term what v (nonneg_finite v)
  in
  let cap = Size.to_bytes w.Workload.data_capacity in
  check_term out Workload_term "data capacity" cap
    (Float.is_finite cap && cap > 0.);
  rate "average access rate" w.Workload.avg_access_rate;
  rate "average update rate" w.Workload.avg_update_rate;
  let burst = w.Workload.burst_multiplier in
  check_term out Workload_term "burst multiplier" burst
    (Float.is_finite burst && burst >= 1.);
  List.iter
    (fun (_, r) -> rate "batch update rate" r)
    (Batch_curve.samples w.Workload.batch_curve);
  List.iter
    (fun (d : Device.t) ->
      check_cost_terms out (Device_term d.Device.name) d.Device.cost)
    devices;
  List.iter
    (fun (l : Interconnect.t) ->
      check_cost_terms out (Link_term l.Interconnect.name) l.Interconnect.cost)
    links;
  let penalty what rate =
    let v = Money_rate.to_usd_per_hour rate in
    check_term out Business_term what v (nonneg_finite v)
  in
  penalty "outage penalty rate" t.business.Business.outage_penalty_rate;
  penalty "loss penalty rate" t.business.Business.loss_penalty_rate;
  List.rev !out

let compute_level_lags t =
  let h = t.hierarchy in
  Array.init (Hierarchy.length h) (fun j ->
      {
        lag_worst = Hierarchy.worst_lag h j;
        lag_range = Hierarchy.guaranteed_range h j;
        lag_rp_min =
          (match
             Technique.schedule (Hierarchy.level h j).Hierarchy.technique
           with
          | Some s -> Schedule.rp_interval_min s
          | None -> Duration.zero);
      })

let compute_derived t =
  let d_placements = compute_placements t in
  let d_devices = compute_devices t in
  let d_demands =
    List.map
      (fun (d : Device.t) ->
        (d.Device.name, compute_demands_on t d_placements d.Device.name))
      d_devices
  in
  let d_loaded =
    List.map
      (fun (name, demands) -> (name, demands @ background_on t name))
      d_demands
  in
  let d_utilization =
    List.map2
      (fun (d : Device.t) (_, loaded) ->
        (d.Device.name, Device.utilization d loaded))
      d_devices d_loaded
  in
  let links = distinct_links t in
  let d_link_demands =
    List.map
      (fun (link : Interconnect.t) ->
        (link.Interconnect.name, compute_link_demand d_placements link))
      links
  in
  let d_violations =
    compute_violations t d_devices ~utilization:d_utilization
      ~link_demands:d_link_demands links
  in
  {
    d_placements;
    d_devices;
    d_demands;
    d_loaded;
    d_utilization;
    d_link_demands;
    d_violations;
    d_level_lags = compute_level_lags t;
  }

let derived t =
  match Atomic.get t.derived_memo with
  | Some d -> d
  | None ->
    (* Domains racing here compute structurally equal records; whichever
       store wins is indistinguishable to readers. *)
    let d = compute_derived t in
    Atomic.set t.derived_memo (Some d);
    d

let devices t = (derived t).d_devices

let placements t = (derived t).d_placements

let demands_on t dev =
  match List.assoc_opt dev.Device.name (derived t).d_demands with
  | Some demands -> demands
  | None -> [] (* not a hierarchy device: it carries none of our demands *)

let loaded_demands_on t dev =
  match List.assoc_opt dev.Device.name (derived t).d_loaded with
  | Some demands -> demands
  | None -> background_on t dev.Device.name

let device_utilization t dev =
  match List.assoc_opt dev.Device.name (derived t).d_utilization with
  | Some u -> u
  | None -> Device.utilization dev (loaded_demands_on t dev)

let link_demand t (link : Interconnect.t) =
  match List.assoc_opt link.Interconnect.name (derived t).d_link_demands with
  | Some d -> d
  | None -> compute_link_demand (placements t) link

let violations t = (derived t).d_violations

let term_owner_name = function
  | Workload_term -> "workload"
  | Device_term name -> "device " ^ name
  | Link_term name -> "link " ^ name
  | Business_term -> "business"

let violation_message t = function
  | Capacity_overcommitted (dev, u) ->
    Printf.sprintf "device %s capacity overcommitted: %.1f%%" dev.Device.name
      (100. *. u.Device.capacity_fraction)
  | Bandwidth_overcommitted (dev, u) ->
    Printf.sprintf "device %s bandwidth overcommitted: %.1f%%" dev.Device.name
      (100. *. u.Device.bandwidth_fraction)
  | Missing_link j ->
    Printf.sprintf "%s requires an interconnect"
      (Technique.name (Hierarchy.level t.hierarchy j).Hierarchy.technique)
  | Slow_link { level; link; bandwidth; required } ->
    Printf.sprintf "link %s (%s) cannot sustain %s traffic (%s required)"
      link.Interconnect.name (Rate.to_string bandwidth)
      (Technique.name (Hierarchy.level t.hierarchy level).Hierarchy.technique)
      (Rate.to_string required)
  | Oversubscribed_link { link; demand; bandwidth } ->
    Printf.sprintf
      "link %s oversubscribed: aggregate propagation demand %s exceeds \
       bandwidth %s"
      link.Interconnect.name (Rate.to_string demand)
      (Rate.to_string bandwidth)
  | Bad_term { owner; what; value } ->
    Printf.sprintf "%s %s is negative or non-finite (%g)"
      (term_owner_name owner) what value

let validate t =
  match violations t with
  | [] -> Ok ()
  | vs -> Error (List.map (violation_message t) vs)

let level_lag_exn t j =
  let lags = (derived t).d_level_lags in
  if j < 0 || j >= Array.length lags then
    invalid_arg "Design.level_lag: level out of range";
  lags.(j)

let worst_lag t j = (level_lag_exn t j).lag_worst
let guaranteed_range t j = (level_lag_exn t j).lag_range
let rp_interval_min t j = (level_lag_exn t j).lag_rp_min

let primary_technique_of_device t dev =
  let owner =
    List.find_opt
      (fun (l : Hierarchy.level) ->
        String.equal l.device.Device.name dev.Device.name)
      (Hierarchy.levels t.hierarchy)
  in
  match owner with
  | Some l -> Technique.name l.technique
  | None -> invalid_arg "Design.primary_technique_of_device: unknown device"

(* Structural digests: an explicit walk over every design parameter,
   folded into a {!Storage_units.Struct_hash} accumulator. Compared with
   the Marshal + MD5 digest it replaced this allocates no byte buffer, and
   like it the result depends only on the structure, never on how the
   value was built. Every variant constructor feeds a distinct tag and
   every list is length-prefixed, so distinct structures cannot collide by
   concatenation. Each piece of a design (workload, level, business,
   background) is walked on its own, and the design's key combines those
   digests, so a piece shared by many designs can be walked once. *)
module H = Struct_hash

let hash_duration h d = H.float h (Duration.to_seconds d)
let hash_rate h r = H.float h (Rate.to_bytes_per_sec r)
let hash_size h s = H.float h (Size.to_bytes s)
let hash_money h m = H.float h (Money.to_usd m)
let hash_money_rate h m = H.float h (Money_rate.to_usd_per_sec m)

let hash_raid h = function
  | Raid.Raid0 -> H.int h 0
  | Raid.Raid1 -> H.int h 1
  | Raid.Raid5 { stripe_width } -> H.int (H.int h 2) stripe_width
  | Raid.Raid10 -> H.int h 3

let hash_representation h (r : Schedule.representation) =
  H.int h
    (match r with Full -> 0 | Cumulative -> 1 | Differential -> 2)

let hash_windows h (w : Schedule.windows) =
  hash_duration
    (hash_duration (hash_duration h w.Schedule.accumulation)
       w.Schedule.propagation)
    w.Schedule.hold

let hash_schedule h (s : Schedule.t) =
  let h = hash_windows h s.Schedule.full in
  let h =
    H.option
      (fun h (r, w) -> hash_windows (hash_representation h r) w)
      h s.Schedule.secondary
  in
  let h = H.int h s.Schedule.cycle_count in
  let h = H.int h s.Schedule.retention_count in
  hash_representation h s.Schedule.copy_representation

let hash_mirror_mode h (m : Technique.mirror_mode) =
  H.int h
    (match m with
    | Synchronous -> 0
    | Asynchronous -> 1
    | Asynchronous_batch -> 2)

let hash_technique h (tq : Technique.t) =
  match tq with
  | Technique.Primary_copy { raid } -> hash_raid (H.int h 0) raid
  | Technique.Split_mirror s -> hash_schedule (H.int h 1) s
  | Technique.Virtual_snapshot s -> hash_schedule (H.int h 2) s
  | Technique.Remote_mirror { mode; schedule } ->
    hash_schedule (hash_mirror_mode (H.int h 3) mode) schedule
  | Technique.Backup s -> hash_schedule (H.int h 4) s
  | Technique.Vaulting s -> hash_schedule (H.int h 5) s
  | Technique.Erasure_coded { fragments; required; schedule } ->
    hash_schedule (H.int (H.int (H.int h 6) fragments) required) schedule

let hash_location h (l : Location.t) =
  H.string
    (H.string (H.string h l.Location.building) l.Location.site)
    l.Location.region

let hash_spare h (s : Spare.t) =
  match s with
  | Spare.No_spare -> H.int h 0
  | Spare.Dedicated { provisioning_time } ->
    hash_duration (H.int h 1) provisioning_time
  | Spare.Shared { provisioning_time; discount } ->
    H.float (hash_duration (H.int h 2) provisioning_time) discount

let hash_cost_model h (c : Cost_model.t) =
  H.float
    (H.float
       (H.float (hash_money h c.Cost_model.fixed) c.Cost_model.per_gib)
       c.Cost_model.per_mib_per_sec)
    c.Cost_model.per_shipment

let hash_device h (d : Device.t) =
  let h = H.string h d.Device.name in
  let h = hash_location h d.Device.location in
  let h = H.int h d.Device.max_capacity_slots in
  let h = hash_size h d.Device.slot_capacity in
  let h = H.int h d.Device.max_bandwidth_slots in
  let h = hash_rate h d.Device.slot_bandwidth in
  let h = hash_rate h d.Device.enclosure_bandwidth in
  let h = hash_duration h d.Device.access_delay in
  let h = hash_cost_model h d.Device.cost in
  hash_spare (hash_spare h d.Device.spare) d.Device.remote_spare

let hash_transport h (tr : Interconnect.transport) =
  match tr with
  | Interconnect.Network { link_bandwidth; links } ->
    H.int (hash_rate (H.int h 0) link_bandwidth) links
  | Interconnect.Shipment -> H.int h 1

let hash_interconnect h (i : Interconnect.t) =
  let h = H.string h i.Interconnect.name in
  let h = hash_transport h i.Interconnect.transport in
  let h = hash_duration h i.Interconnect.delay in
  hash_spare (hash_cost_model h i.Interconnect.cost) i.Interconnect.spare

let hash_level h (l : Hierarchy.level) =
  H.option hash_interconnect
    (hash_device (hash_technique h l.Hierarchy.technique) l.Hierarchy.device)
    l.Hierarchy.link

let hash_workload h (w : Workload.t) =
  let h = H.string h w.Workload.name in
  let h = hash_size h w.Workload.data_capacity in
  let h = hash_rate h w.Workload.avg_access_rate in
  let h = hash_rate h w.Workload.avg_update_rate in
  let h = H.float h w.Workload.burst_multiplier in
  H.list
    (fun h (d, r) -> hash_rate (hash_duration h d) r)
    h
    (Batch_curve.samples w.Workload.batch_curve)

let hash_business h (b : Business.t) =
  let h = hash_money_rate h b.Business.outage_penalty_rate in
  let h = hash_money_rate h b.Business.loss_penalty_rate in
  let h = H.option hash_duration h b.Business.recovery_time_objective in
  let h = H.option hash_duration h b.Business.recovery_point_objective in
  hash_duration h b.Business.total_loss_equivalent

let hash_labeled h (l : Demand.labeled) =
  let h = H.string h l.Demand.technique in
  let d = l.Demand.demand in
  hash_size
    (hash_rate (hash_rate h d.Demand.read_bw) d.Demand.write_bw)
    d.Demand.capacity

let digest_level l = hash_level H.init l
let digest_workload w = hash_workload H.init w
let digest_business b = hash_business H.init b

let digest_background background =
  H.list
    (fun h (name, demands) -> H.list hash_labeled (H.string h name) demands)
    H.init background

type digests = {
  workload_digest : Struct_hash.t;
  level_digests : Struct_hash.t list;
  business_digest : Struct_hash.t;
  background_digest : Struct_hash.t;
}

(* The key: the name, then each piece's digest in a fixed order, the
   levels length-prefixed like every list. *)
let compose_key ~name d =
  let h = H.combine (H.string H.init name) d.workload_digest in
  let h = H.list H.combine h d.level_digests in
  H.combine (H.combine h d.business_digest) d.background_digest

let make ~name ~workload ~hierarchy ~business ?(background = []) ?digests ()
    =
  let digests =
    match digests with
    | Some d ->
      if List.compare_length_with d.level_digests (Hierarchy.length hierarchy)
         <> 0
      then invalid_arg "Design.make: one level digest per hierarchy level";
      d
    | None ->
      {
        workload_digest = digest_workload workload;
        level_digests = List.map digest_level (Hierarchy.levels hierarchy);
        business_digest = digest_business business;
        background_digest = digest_background background;
      }
  in
  { name; workload; hierarchy; business; background;
    key = compose_key ~name digests;
    derived_memo = Atomic.make None }

let strip t = { t with derived_memo = Atomic.make None }

let fingerprint t = Struct_hash.to_hex t.key

let pp ppf t =
  Fmt.pf ppf "@[<v>design %s:@,%a@,%a@,business: %a@]" t.name Workload.pp
    t.workload Hierarchy.pp t.hierarchy Business.pp t.business
