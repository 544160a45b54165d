open Storage_units

(** Storage device model (§3.2.2, Table 1 "device configuration").

    A device is an enclosure holding capacity components (disks, tape
    cartridges) and bandwidth components (disks, tape drives). Slots bound how
    many of each fit; the enclosure bounds aggregate bandwidth. Capacity-only
    devices (a tape vault) have no bandwidth slots and a zero device
    bandwidth — data leaves them by physical shipment, not by transfer.

    {b Erratum handling}: the paper prints
    [devBW = max(enclBW, maxBWSlots * slotBW)], but every utilization figure
    in its case study (Table 5) requires [min]; we implement [min]. *)

type t = private {
  name : string;
  location : Location.t;
  max_capacity_slots : int;
  slot_capacity : Size.t;
  max_bandwidth_slots : int;
  slot_bandwidth : Rate.t;
  enclosure_bandwidth : Rate.t;
  access_delay : Duration.t;
      (** [devDelay]: e.g. tape load and seek time; applied once per recovery
          hop sourced at this device. *)
  cost : Cost_model.t;
  spare : Spare.t;
      (** local spare (e.g. a dedicated hot standby at the same site);
          covers failures of the device alone *)
  remote_spare : Spare.t;
      (** offsite spare (e.g. a shared recovery facility); covers failures
          whose scope also destroys the local spare (building/site/region) *)
}

val make :
  name:string ->
  location:Location.t ->
  max_capacity_slots:int ->
  slot_capacity:Size.t ->
  ?max_bandwidth_slots:int ->
  ?slot_bandwidth:Rate.t ->
  ?enclosure_bandwidth:Rate.t ->
  ?access_delay:Duration.t ->
  ?cost:Cost_model.t ->
  ?spare:Spare.t ->
  ?remote_spare:Spare.t ->
  unit ->
  t
(** Bandwidth arguments default to zero (a capacity-only device). Raises
    [Invalid_argument] on non-positive capacity slots or zero slot
    capacity. *)

val max_capacity : t -> Size.t
(** [devCap = maxCapSlots * slotCap]. *)

val max_bandwidth : t -> Rate.t
(** [devBW = min(enclBW, maxBWSlots * slotBW)]; zero for capacity-only
    devices. *)

val is_capacity_only : t -> bool

val spare_for : t -> scope:Location.scope -> Spare.t
(** The spare that replaces this device under the given failure scope: the
    local {!type-t.spare} for device-level failures, the
    {!type-t.remote_spare} for building/site/region scopes (which are
    assumed to take the local spare with them). *)

(** Normal-mode utilization of one device under a set of labeled demands
    (§3.3.1). *)
type utilization = private {
  capacity_used : Size.t;
  bandwidth_used : Rate.t;
  capacity_fraction : float;  (** [capUtil]; may exceed 1 = overcommitted *)
  bandwidth_fraction : float;  (** [bwUtil] *)
  capacity_slots_needed : int;
  bandwidth_slots_needed : int;
}

val utilization : t -> Demand.labeled list -> utilization

val overcommitted : utilization -> bool
(** True when either fraction exceeds 1 (the global model reports this as a
    design error). *)

val available_bandwidth : t -> Demand.labeled list -> Rate.t
(** Bandwidth left over after the normal-mode propagation demands; this is
    the rate available to a recovery transfer (§3.3.4). *)

val pp : t Fmt.t
val pp_utilization : utilization Fmt.t
