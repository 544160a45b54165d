open Storage_units
open Storage_device
open Storage_protection

type level = {
  technique : Technique.t;
  device : Device.t;
  link : Interconnect.t option;
}

type t = { levels : level array }

let schedule_exn l =
  match Technique.schedule l.technique with
  | Some s -> s
  | None -> invalid_arg "Hierarchy: level without schedule"

type violation =
  | No_levels
  | Not_primary
  | Extra_primary of int
  | Missing_schedule of int
  | Not_colocated of int
  | Retention_decreases of int
  | Accumulation_short of int

let is_primary l =
  match l.technique with Technique.Primary_copy _ -> true | _ -> false

(* Every convention (§3.2.1) the level list breaks, in level order. The
   pair conventions compare level [j] with level [j-1] and are skipped
   where either schedule is missing (already a [Missing_schedule]). *)
let violations levels =
  match levels with
  | [] -> [ No_levels ]
  | primary :: rest ->
    let out = ref (if is_primary primary then [] else [ Not_primary ]) in
    let add v = out := v :: !out in
    let rec walk j prev = function
      | [] -> List.rev !out
      | l :: tl ->
        if is_primary l then add (Extra_primary j);
        let sched = Technique.schedule l.technique in
        if sched = None then add (Missing_schedule j);
        if
          Technique.colocated_with_primary l.technique
          && not (String.equal l.device.Device.name primary.device.Device.name)
        then add (Not_colocated j);
        (match (prev, sched) with
        | Some sa, Some sb ->
          if sb.Schedule.retention_count < sa.Schedule.retention_count then
            add (Retention_decreases j);
          if
            Duration.compare sb.Schedule.full.Schedule.accumulation
              (Schedule.cycle_period sa)
            < 0
          then add (Accumulation_short j)
        | _ -> ());
        walk (j + 1) sched tl
    in
    walk 1 None rest

(* [make] reports one violation, by convention rather than by level:
   primary placement, then schedules, then colocation, then the pair
   conventions. *)
let priority = function
  | No_levels | Not_primary -> 0
  | Extra_primary _ -> 1
  | Missing_schedule _ -> 2
  | Not_colocated _ -> 3
  | Retention_decreases _ | Accumulation_short _ -> 4

let message levels v =
  let name j = Technique.name (List.nth levels j).technique in
  match v with
  | No_levels -> "hierarchy must have at least a primary level"
  | Not_primary -> "level 0 must be a primary copy"
  | Extra_primary _ -> "only level 0 may be a primary copy"
  | Missing_schedule _ -> "every level above 0 must have a schedule"
  | Not_colocated _ ->
    "split mirrors and virtual snapshots must be hosted on the primary device"
  | Retention_decreases j ->
    Printf.sprintf "retention count must not decrease with level (%s -> %s)"
      (name (j - 1)) (name j)
  | Accumulation_short j ->
    Printf.sprintf
      "accumulation window of %s is shorter than the cycle period of %s"
      (name j) (name (j - 1))

let make levels =
  match violations levels with
  | [] -> Ok { levels = Array.of_list levels }
  | vs ->
    let by_priority a b = Int.compare (priority a) (priority b) in
    Error (message levels (List.hd (List.stable_sort by_priority vs)))

let make_exn levels =
  match make levels with Ok t -> t | Error m -> invalid_arg ("Hierarchy: " ^ m)

let hold_retention_inversions t =
  let out = ref [] in
  let n = Array.length t.levels in
  for i = n - 2 downto 1 do
    let si = schedule_exn t.levels.(i) and sj = schedule_exn t.levels.(i + 1) in
    let hold_next = sj.Schedule.full.Schedule.hold in
    let ret_here = Schedule.retention_window si in
    if Duration.compare hold_next ret_here > 0 then out := (i + 1) :: !out
  done;
  !out

(* Compatibility shim over {!hold_retention_inversions}; the structured
   form (with stable codes and locations) lives in [Storage_lint]. *)
let warnings t =
  List.map
    (fun j ->
      Printf.sprintf
        "level %d (%s): hold window exceeds level %d retention window; \
         extra retention capacity is required at level %d"
        j
        (Technique.name t.levels.(j).technique)
        (j - 1) (j - 1))
    (hold_retention_inversions t)

let length t = Array.length t.levels

let level t i =
  if i < 0 || i >= Array.length t.levels then
    invalid_arg "Hierarchy.level: index out of range";
  t.levels.(i)

let levels t = Array.to_list t.levels
let primary t = t.levels.(0)

let upstream_lag t j =
  if j < 0 || j >= Array.length t.levels then
    invalid_arg "Hierarchy.upstream_lag: index out of range";
  let acc = ref Duration.zero in
  for i = 1 to j - 1 do
    let w = Schedule.onward_windows (schedule_exn t.levels.(i)) in
    acc :=
      Duration.sum [ !acc; w.Schedule.hold; w.Schedule.propagation ]
  done;
  !acc

let worst_lag t j =
  if j = 0 then Duration.zero
  else Schedule.worst_lag (schedule_exn t.levels.(j)) ~upstream:(upstream_lag t j)

let best_lag t j =
  if j = 0 then Duration.zero
  else Schedule.best_lag (schedule_exn t.levels.(j)) ~upstream:(upstream_lag t j)

let retention_span t j =
  if j = 0 then Duration.zero
  else Schedule.retention_span (schedule_exn t.levels.(j))

let guaranteed_range t j =
  if j = 0 then Some (Age_range.make ~newest_age:Duration.zero ~oldest_age:Duration.zero)
  else begin
    let newest = worst_lag t j in
    let oldest = Duration.add (best_lag t j) (retention_span t j) in
    if Duration.compare newest oldest > 0 then None
    else Some (Age_range.make ~newest_age:newest ~oldest_age:oldest)
  end

let surviving_levels t ~scope =
  let n = Array.length t.levels in
  let alive = ref [] in
  for j = n - 1 downto 0 do
    let l = t.levels.(j) in
    let destroyed =
      Location.destroys scope ~device_name:l.device.Device.name
        l.device.Device.location
    in
    let corrupt = Location.corrupts_object scope && j = 0 in
    if (not destroyed) && not corrupt then alive := j :: !alive
  done;
  !alive

let pp ppf t =
  let pp_level ppf (j, l) =
    Fmt.pf ppf "level %d: %a on %s%a" j Technique.pp l.technique
      l.device.Device.name
      (Fmt.option (fun ppf link ->
           Fmt.pf ppf " via %s" link.Interconnect.name))
      l.link
  in
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut pp_level)
    (List.mapi (fun j l -> (j, l)) (Array.to_list t.levels))
