open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model

type kit = {
  workload : Workload.t;
  business : Business.t;
  primary : Device.t;
  tape_library : Device.t;
  vault : Device.t;
  remote_array : Device.t;
  san : Interconnect.t;
  shipment : Interconnect.t;
  wan : int -> Interconnect.t;
}

type space = {
  pit_techniques : [ `Split_mirror | `Snapshot ] list;
  pit_accumulations : Duration.t list;
  pit_retentions : int list;
  backup_accumulations : Duration.t list;
  backup_retention_horizon : Duration.t;
  vault_accumulations : Duration.t list;
  vault_retention_horizon : Duration.t;
  mirror_links : int list;
}

let default_space =
  {
    pit_techniques = [ `Split_mirror; `Snapshot ];
    pit_accumulations = [ Duration.hours 6.; Duration.hours 12.; Duration.hours 24. ];
    pit_retentions = [ 2; 4 ];
    backup_accumulations =
      [ Duration.hours 24.; Duration.hours 48.; Duration.weeks 1. ];
    backup_retention_horizon = Duration.weeks 4.;
    vault_accumulations = [ Duration.weeks 1.; Duration.weeks 4. ];
    vault_retention_horizon = Duration.years 3.;
    mirror_links = [ 1; 2; 4; 10 ];
  }

let retention_for ~horizon ~cycle =
  max 1 (int_of_float (ceil (Duration.ratio horizon cycle)))

let label_duration d =
  let h = Duration.to_hours d in
  if Float.rem h 168. = 0. then Printf.sprintf "%.0fwk" (h /. 168.)
  else if Float.rem h 24. = 0. then Printf.sprintf "%.0fd" (h /. 24.)
  else if h >= 1. then Printf.sprintf "%.0fh" h
  else Printf.sprintf "%.0fmin" (Duration.to_minutes d)

(* Scaled spaces for large-grid searches: same two PiT techniques and
   mirror family as [default_space], with the accumulation dimensions
   densified so that the grid grows as O(scale^3). The retention horizons
   are stretched (26 weeks of backups, 6 years of vault copies) so that
   retention counts stay non-decreasing up the hierarchy for every
   accumulation combination — a denser grid of valid designs, not a
   denser grid of lint rejects. *)
let scaled_space ~scale =
  if scale <= 1 then default_space
  else
    let spread lo hi n =
      List.init n (fun i ->
          Duration.hours
            (lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1))))
    in
    {
      pit_techniques = [ `Split_mirror; `Snapshot ];
      pit_accumulations = spread 2. 24. (5 * scale);
      pit_retentions = [ 2; 3; 4 ];
      backup_accumulations = spread 24. 168. (4 * scale);
      backup_retention_horizon = Duration.weeks 26.;
      vault_accumulations = spread 168. (8. *. 168.) (3 * scale);
      vault_retention_horizon = Duration.years 6.;
      mirror_links = [ 1; 2; 3; 4; 6; 8; 10 ];
    }

(* --- level construction --- *)

let primary_level kit =
  {
    Hierarchy.technique = Technique.Primary_copy { raid = Raid.Raid1 };
    device = kit.primary;
    link = None;
  }

(* Each level comes with the name fragment it contributes, joining text
   included, so a tape design's name is three shared strings
   concatenated. *)
let backup_level kit space backup_acc =
  let backup_prop =
    Duration.min (Duration.scale 0.5 backup_acc) (Duration.hours 48.)
  in
  let backup_schedule =
    Schedule.simple ~acc:backup_acc ~prop:backup_prop ~hold:(Duration.hours 1.)
      ~retention_count:
        (retention_for ~horizon:space.backup_retention_horizon ~cycle:backup_acc)
      ()
  in
  ( {
      Hierarchy.technique = Technique.Backup backup_schedule;
      device = kit.tape_library;
      link = Some kit.san;
    },
    label_duration backup_acc ^ ", vault/" )

let vault_level kit space vault_acc =
  let vault_schedule =
    Schedule.simple ~acc:vault_acc
      ~prop:(Duration.hours 24.)
      ~hold:(Duration.hours 12.)
      ~retention_count:
        (retention_for ~horizon:space.vault_retention_horizon ~cycle:vault_acc)
      ()
  in
  ( {
      Hierarchy.technique = Technique.Vaulting vault_schedule;
      device = kit.vault;
      link = Some kit.shipment;
    },
    label_duration vault_acc )

let pit_level kit pit_kind pit_acc pit_ret =
  let pit_prefix =
    match pit_kind with `Split_mirror -> "mirror" | `Snapshot -> "snap"
  in
  let pit_schedule = Schedule.simple ~acc:pit_acc ~retention_count:pit_ret () in
  let pit_technique =
    match pit_kind with
    | `Split_mirror -> Technique.Split_mirror pit_schedule
    | `Snapshot -> Technique.Virtual_snapshot pit_schedule
  in
  ( { Hierarchy.technique = pit_technique; device = kit.primary; link = None },
    pit_prefix ^ "/" ^ label_duration pit_acc ^ " x" ^ string_of_int pit_ret
    ^ ", backup/" )

let mirror_level kit links =
  let schedule =
    Schedule.simple ~acc:(Duration.minutes 1.) ~prop:(Duration.minutes 1.)
      ~retention_count:1 ()
  in
  ( {
      Hierarchy.technique =
        Technique.Remote_mirror { mode = Technique.Asynchronous_batch; schedule };
      device = kit.remote_array;
      link = Some (kit.wan links);
    },
    "asyncB mirror x" ^ string_of_int links )

(* --- the grid as an indexed coordinate space --- *)

type point =
  | Tape of { pit : int; pit_acc : int; pit_ret : int; backup : int; vault : int }
  | Mirror of { links : int }

let tape_dims space =
  ( List.length space.pit_techniques,
    List.length space.pit_accumulations,
    List.length space.pit_retentions,
    List.length space.backup_accumulations,
    List.length space.vault_accumulations )

let tape_count space =
  let nk, na, nr, nb, nv = tape_dims space in
  nk * na * nr * nb * nv

let mirror_count space = List.length space.mirror_links
let point_count space = tape_count space + mirror_count space

(* Mixed-radix decode: the tape family first (pit kind outermost, vault
   innermost), then the mirrors. *)
let point_of_index space i =
  let tapes = tape_count space in
  if i < 0 || i >= tapes + mirror_count space then
    invalid_arg "Candidate.point_of_index: index out of range";
  if i < tapes then begin
    let _, na, nr, nb, nv = tape_dims space in
    let vault = i mod nv in
    let i = i / nv in
    let backup = i mod nb in
    let i = i / nb in
    let pit_ret = i mod nr in
    let i = i / nr in
    let pit_acc = i mod na in
    let pit = i / na in
    Tape { pit; pit_acc; pit_ret; backup; vault }
  end
  else Mirror { links = i - tapes }

let points space =
  Seq.map (point_of_index space) (Seq.init (point_count space) Fun.id)

(* Everything that varies along fewer than all axes is built once here
   and shared by every cell it appears in: the PiT level per (kind, acc,
   ret), the backup, vault and mirror levels per value, their name
   fragments and their digests, and the digests of the workload, business
   and background. Besides the construction time, the sharing keeps
   long-lived design accumulators (Pareto fronts, top-k sets) from
   retaining a private copy of each schedule per design, and lets a
   design's key combine digests instead of walking its pieces. *)
type cell = {
  level : Hierarchy.level;
  label : string;  (** the name fragment, joining text included *)
  digest : Struct_hash.t;  (** [Design.digest_level level] *)
}

type axes = {
  akit : kit;
  background : (string * Storage_device.Demand.labeled list) list;
  aprimary : cell;
  nacc : int;
  nret : int;
  apits : cell array;
      (** indexed [(pit * nacc + pit_acc) * nret + pit_ret] *)
  abackups : cell array;
  avaults : cell array;
  amirrors : cell array;
  aworkload : Struct_hash.t;
  abusiness : Struct_hash.t;
  abackground : Struct_hash.t;
}

let cell (level, label) = { level; label; digest = Design.digest_level level }

let axes ?(background = []) kit space =
  let level_table f xs = Array.of_list (List.map (fun x -> cell (f x)) xs) in
  {
    akit = kit;
    background;
    aprimary = cell (primary_level kit, "");
    nacc = List.length space.pit_accumulations;
    nret = List.length space.pit_retentions;
    apits =
      Array.of_list
        (List.concat_map
           (fun kind ->
             List.concat_map
               (fun acc ->
                 List.map
                   (fun ret -> cell (pit_level kit kind acc ret))
                   space.pit_retentions)
               space.pit_accumulations)
           space.pit_techniques);
    abackups = level_table (backup_level kit space) space.backup_accumulations;
    avaults = level_table (vault_level kit space) space.vault_accumulations;
    amirrors = level_table (mirror_level kit) space.mirror_links;
    aworkload = Design.digest_workload kit.workload;
    abusiness = Design.digest_business kit.business;
    abackground = Design.digest_background background;
  }

let in_range a i = i >= 0 && i < Array.length a

(* A level stack that violates the hierarchy conventions, or a design the
   linter would reject, yields [None]: the one acceptance predicate by
   which a grid point becomes a design. *)
let assemble t ~name cells =
  match Hierarchy.make (List.map (fun c -> c.level) cells) with
  | Error _ -> None
  | Ok hierarchy ->
    let digests =
      {
        Design.workload_digest = t.aworkload;
        level_digests = List.map (fun c -> c.digest) cells;
        business_digest = t.abusiness;
        background_digest = t.abackground;
      }
    in
    let design =
      Design.make ~name ~workload:t.akit.workload ~hierarchy
        ~business:t.akit.business ~background:t.background ~digests ()
    in
    if Design.violations design = [] then Some design else None

let design_of_point t = function
  | Tape { pit; pit_acc; pit_ret; backup; vault } ->
    let p = (((pit * t.nacc) + pit_acc) * t.nret) + pit_ret in
    if
      pit_acc >= 0 && pit_acc < t.nacc && pit_ret >= 0 && pit_ret < t.nret
      && in_range t.apits p && in_range t.abackups backup
      && in_range t.avaults vault
    then begin
      let pit = t.apits.(p) in
      let backup = t.abackups.(backup) in
      let vault = t.avaults.(vault) in
      assemble t
        ~name:(pit.label ^ backup.label ^ vault.label)
        [ t.aprimary; pit; backup; vault ]
    end
    else None
  | Mirror { links } ->
    if in_range t.amirrors links then begin
      let mirror = t.amirrors.(links) in
      assemble t ~name:mirror.label [ t.aprimary; mirror ]
    end
    else None

(* The axis tables are built inside the first forced cell, once per
   traversal, so an unforced grid costs nothing. *)
let enumerate ?background kit space () =
  let axes = axes ?background kit space in
  Seq.filter_map (design_of_point axes) (points space) ()
