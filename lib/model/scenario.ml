open Storage_units
open Storage_device

type event = {
  scope : Location.scope;
  at : Duration.t;
  target_age : Duration.t;
  object_size : Size.t option;
}

type t = {
  scope : Location.scope;
  target_age : Duration.t;
  object_size : Size.t option;
  events : event list;
}

let check_object_size ~who scope = function
  | Some _ when not (Location.corrupts_object scope) ->
    invalid_arg
      (who
     ^ ": object_size only applies to scopes that corrupt the data object")
  | Some _ | None -> ()

let event ~scope ?(at = Duration.zero) ?(target_age = Duration.zero)
    ?object_size () =
  check_object_size ~who:"Scenario.event" scope object_size;
  if Duration.compare at Duration.zero < 0 then
    invalid_arg "Scenario.event: negative event time";
  { scope; at; target_age; object_size }

(* The analytic projection of an event set: the scope that destroys
   everything any event destroys (so [Location.destroys] and
   [Hierarchy.surviving_levels] see the conjunction of the failures), the
   oldest restoration target, and the largest corrupted object. For a
   singleton this is the event itself, which is what keeps every
   single-failure consumer byte-identical. *)
let project : event list -> _ = function
  | [] -> invalid_arg "Scenario.of_events: no events"
  | [ e ] -> (e.scope, e.target_age, e.object_size)
  | events ->
    let scope =
      match
        List.sort_uniq compare
          (List.map (fun (e : event) -> e.scope) events)
      with
      | [ s ] -> s
      | ss -> Location.Multiple ss
    in
    let target_age =
      List.fold_left
        (fun acc (e : event) -> Duration.max acc e.target_age)
        Duration.zero events
    in
    let object_size =
      List.fold_left
        (fun acc (e : event) ->
          match (acc, e.object_size) with
          | None, s | s, None -> s
          | Some a, Some b -> Some (Size.max a b))
        None events
    in
    (scope, target_age, object_size)

let of_events events =
  let events =
    List.stable_sort (fun a b -> Duration.compare a.at b.at) events
  in
  let scope, target_age, object_size = project events in
  { scope; target_age; object_size; events }

let events t = t.events

let make ~scope ?(target_age = Duration.zero) ?object_size () =
  check_object_size ~who:"Scenario.make" scope object_size;
  {
    scope;
    target_age;
    object_size;
    events = [ { scope; at = Duration.zero; target_age; object_size } ];
  }

let now scope = make ~scope ()

let is_single t =
  match t.events with
  | [ e ] -> Duration.is_zero e.at
  | _ -> false

let combine a b = of_events (a.events @ b.events)

let delay d t =
  if Duration.compare d Duration.zero < 0 then
    invalid_arg "Scenario.delay: negative delay";
  of_events
    (List.map (fun e -> { e with at = Duration.add e.at d }) t.events)

(* Structural hash mirroring [Design.fingerprint]: a scenario is a handful
   of leaves, so the walk costs a few dozen nanoseconds per cache lookup
   and needs no memo. *)
let rec hash_scope h (s : Location.scope) =
  let module H = Struct_hash in
  match s with
  | Location.Data_object -> H.int h 0
  | Location.Device n -> H.string (H.int h 1) n
  | Location.Building n -> H.string (H.int h 2) n
  | Location.Site n -> H.string (H.int h 3) n
  | Location.Region n -> H.string (H.int h 4) n
  | Location.Multiple ss -> H.list hash_scope (H.int h 5) ss

(* Cache-key stability contract: a single-event scenario (every scenario
   that existed before the event-set representation) hashes with exactly
   the walk the old representation used, so warm Eval_cache / serve
   shards keyed before the change stay valid. Multi-event scenarios get a
   domain-separating tag (6 — one past the last scope tag) so no event
   set can collide with a single-failure digest. *)
let digest t =
  let module H = Struct_hash in
  let hash_tail h (e : event) =
    let h = H.float h (Duration.to_seconds e.target_age) in
    H.option (fun h s -> H.float h (Size.to_bytes s)) h e.object_size
  in
  match t.events with
  | [ e ] when Duration.is_zero e.at ->
    hash_tail (hash_scope H.init e.scope) e
  | events ->
    let hash_event h (e : event) =
      let h = hash_scope h e.scope in
      let h = H.float h (Duration.to_seconds e.at) in
      hash_tail h e
    in
    H.list hash_event (H.int H.init 6) events

let fingerprint t = Struct_hash.to_hex (digest t)

let pp_event ppf (e : event) =
  Fmt.pf ppf "%a at +%a, target now - %a%a" Location.pp_scope e.scope
    Duration.pp e.at Duration.pp e.target_age
    (Fmt.option (fun ppf s -> Fmt.pf ppf " (object %a)" Size.pp s))
    e.object_size

let pp ppf t =
  match t.events with
  | [ e ] when Duration.is_zero e.at ->
    Fmt.pf ppf "%a, target now - %a%a" Location.pp_scope t.scope Duration.pp
      t.target_age
      (Fmt.option (fun ppf s -> Fmt.pf ppf " (object %a)" Size.pp s))
      t.object_size
  | events ->
    Fmt.pf ppf "@[<v>%d failure events:@,%a@]" (List.length events)
      (Fmt.list ~sep:Fmt.cut pp_event)
      events
