open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy

(** A complete storage system design: workload + protection hierarchy +
    business requirements.

    The design maps every technique's abstract demands (§3.2.3) onto the
    concrete devices and interconnects of the hierarchy, yielding the
    labeled per-device demand sets consumed by the utilization, recovery
    and cost models. *)

type derived
(** Everything the evaluation pipeline derives from the design's structure
    (demand placements, per-device loads and utilizations, link demands,
    validation, per-level lag tables), computed once per design on first
    access and memoized. Purely an acceleration: accessors behave as if
    they recomputed from scratch on every call. *)

type t = private {
  name : string;
  workload : Workload.t;
  hierarchy : Hierarchy.t;
  business : Business.t;
  background : (string * Demand.labeled list) list;
      (** demands other tenants place on this design's devices (device name
          -> labeled demands); they consume capacity and bandwidth but are
          not billed to this design (see {!Portfolio}) *)
  key : Struct_hash.t;
      (** the design's structural key: its name combined with the digests
          of its workload, each level in order, its business requirements
          and its background (see {!make}); computed once, when the design
          is made *)
  derived_memo : derived option Atomic.t;
      (** internal memo backing the derived-data accessors; not a design
          parameter and excluded from [key]. The whole record is filled in
          one shot, so any two designs both touched by any accessor carry
          structurally equal memo states — which keeps the byte-identity
          test suites honest when designs are marshaled. *)
}

(** {1 Digests}

    Each piece of a design has its own {!Storage_units.Struct_hash}
    digest, a walk over every leaf of that piece. The design's [key]
    combines them, so a piece that many designs share (a grid's levels,
    workload, business requirements and background) can be walked once
    for all of them. *)

val digest_level : Hierarchy.level -> Struct_hash.t
val digest_workload : Workload.t -> Struct_hash.t
val digest_business : Business.t -> Struct_hash.t
val digest_background : (string * Demand.labeled list) list -> Struct_hash.t

type digests = {
  workload_digest : Struct_hash.t;
  level_digests : Struct_hash.t list;  (** one per level, in order *)
  business_digest : Struct_hash.t;
  background_digest : Struct_hash.t;
}
(** The digests of a design's pieces, computed ahead of {!make}. *)

val make :
  name:string ->
  workload:Workload.t ->
  hierarchy:Hierarchy.t ->
  business:Business.t ->
  ?background:(string * Demand.labeled list) list ->
  ?digests:digests ->
  unit ->
  t
(** [background] defaults to none. Without [digests], [make] walks every
    piece to compute the key. With them it only combines: each digest
    must be the [digest_*] of the piece in the same position (the
    workload, each level of [hierarchy] in order, [business],
    [background]), and the key is then the one the walk would give. Only
    callers that share pieces across many designs (the candidate grid)
    pass them. Raises [Invalid_argument] when the number of level digests
    differs from the number of levels. *)

val strip : t -> t
(** A structurally equal copy with an empty derived memo: same key, same
    behaviour, but none of the derived data retained. Long-lived
    accumulators (e.g. a streaming search's bounded frontier) hold stripped
    copies so that per-design scratch data does not pile up in the live
    set; accessors on the copy simply recompute (and re-memoize) on
    demand. *)

val primary_raid : t -> Raid.t
(** RAID organization of the primary array (from the level-0 technique). *)

val devices : t -> Device.t list
(** The distinct devices of the hierarchy, in first-appearance order
    (identity by device name). *)

val demands_on : t -> Device.t -> Demand.labeled list
(** This design's own normal-mode demands landing on one device, labeled
    by technique: a level's [on_target] lands on its own device, its
    [on_source] on the previous level's device. Colocated techniques
    (split mirror, snapshot) are charged the primary array's RAID capacity
    factor; remote-mirror destinations are charged logical capacity,
    matching §3.2.3. Cost allocation uses this set.

    {b Note}: utilization, overcommit validation and recovery-bandwidth
    calculations use {!loaded_demands_on}, which also includes background
    tenants. *)

val loaded_demands_on : t -> Device.t -> Demand.labeled list
(** {!demands_on} plus any background demands registered for the device:
    the full load the hardware actually carries. *)

val device_utilization : t -> Device.t -> Device.utilization
(** [Device.utilization dev (loaded_demands_on t dev)], memoized per
    design: the normal-mode utilization the evaluation, validation and
    lint layers all need for every device. *)

val link_demand : t -> Interconnect.t -> Rate.t
(** Sustained normal-mode bandwidth demand on an interconnect. *)

val worst_lag : t -> int -> Duration.t
(** Memoized {!Storage_hierarchy.Hierarchy.worst_lag} of the design's
    hierarchy. Raises [Invalid_argument] on an out-of-range level. *)

val guaranteed_range : t -> int -> Age_range.t option
(** Memoized {!Storage_hierarchy.Hierarchy.guaranteed_range}. *)

val rp_interval_min : t -> int -> Duration.t
(** Memoized {!Storage_protection.Schedule.rp_interval_min} of the level's
    schedule; {!Duration.zero} for level 0 (the primary has no schedule). *)

val primary_technique_of_device : t -> Device.t -> string
(** Name of the technique that "owns" a device for cost allocation
    (§3.3.5): the lowest hierarchy level hosted on it. *)

val fingerprint : t -> string
(** The design's [key] as 32 hex characters, for display and pinned
    values. Structurally equal designs always share a key, however they
    were constructed; designs differing in any parameter (almost surely)
    do not. {!Eval_cache} keys on [key] itself. *)

type term_owner =
  | Workload_term
  | Device_term of string  (** a device's cost model, by device name *)
  | Link_term of string  (** a link's cost model, by link name *)
  | Business_term  (** the outage and loss penalty rates *)

type violation =
  | Capacity_overcommitted of Device.t * Device.utilization
      (** the device's loaded capacity demand exceeds it (§3.3.1) *)
  | Bandwidth_overcommitted of Device.t * Device.utilization
      (** the device's loaded bandwidth demand exceeds it (§3.3.1) *)
  | Missing_link of int
      (** the level's technique needs an interconnect and has none *)
  | Slow_link of {
      level : int;
      link : Interconnect.t;
      bandwidth : Rate.t;
      required : Rate.t;
    }
      (** the level's link is slower than its technique requires *)
  | Oversubscribed_link of {
      link : Interconnect.t;
      demand : Rate.t;
      bandwidth : Rate.t;
    }  (** the levels sharing the link demand more than it carries *)
  | Bad_term of { owner : term_owner; what : string; value : float }
      (** a negative or non-finite workload parameter, cost term or penalty
          rate (or a zero data capacity, or a burst multiplier below 1) *)
(** A static condition under which the design cannot be evaluated. *)

val violations : t -> violation list
(** Every violation of the design, in {!devices}, level and link order,
    memoized. [[]] is the one feasibility verdict: {!validate} renders
    this list, and [Storage_lint] maps each element to its rule code
    (E010–E015, E018). *)

val validate : t -> (unit, string list) result
(** {!violations} rendered as one message each: [Ok ()] when there are
    none. {!Evaluate.run} reports these messages as its [errors]. *)

val pp : t Fmt.t
