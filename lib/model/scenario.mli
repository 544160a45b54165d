open Storage_units
open Storage_device

(** Failure scenarios and recovery goals (§3.1.3), generalized to a small
    scenario algebra.

    A scenario is a non-empty {e set of timed failure events}. Each event
    imposes one failure scope at an offset [at] from the scenario origin
    and asks for restoration to a target point in time, expressed as an
    age before the failure ("now" is age zero; a rollback after a
    corrupting user error asks for an older target). [Data_object] events
    additionally carry the size of the damaged object, which bounds the
    recovery transfer.

    The classic single-failure scenario of the paper is the singleton
    event set at offset zero ({!make} / {!now}); every analytic consumer
    ([Evaluate], [Explain], [Lint], caching) behaves byte-identically on
    it. Multi-event sets are projected onto the same record fields
    conservatively — combined scope, oldest target, largest object — so
    the closed-form model prices them as the "all failures at once" worst
    case, while the discrete-event simulator ([Sim.run_events]) and the
    fleet Monte Carlo execute the events at their actual offsets. *)

type event = private {
  scope : Location.scope;
  at : Duration.t;  (** offset of the failure from the scenario origin *)
  target_age : Duration.t;  (** [recTargetTime], as an age before the event *)
  object_size : Size.t option;
      (** for [Data_object] scopes: how much data must be restored *)
}

type t = private {
  scope : Location.scope;
      (** combined scope of all events (the analytic projection) *)
  target_age : Duration.t;  (** oldest target over the events *)
  object_size : Size.t option;  (** largest corrupted object, if any *)
  events : event list;  (** non-empty, sorted by [at] *)
}

val event :
  scope:Location.scope ->
  ?at:Duration.t ->
  ?target_age:Duration.t ->
  ?object_size:Size.t ->
  unit ->
  event
(** [at] and [target_age] default to zero. Raises [Invalid_argument] on a
    negative [at] or if [object_size] is given for a non-corrupting
    scope. *)

val of_events : event list -> t
(** Events sorted by offset. Raises [Invalid_argument] on an empty
    list. *)

val events : t -> event list

val make :
  scope:Location.scope ->
  ?target_age:Duration.t ->
  ?object_size:Size.t ->
  unit ->
  t
(** The single-event special case: one failure at offset zero.
    [target_age] defaults to zero ("now"). Raises [Invalid_argument] if
    [object_size] is given for a non-[Data_object] scope. *)

val now : Location.scope -> t
(** Restoration to the instant before the failure. *)

val is_single : t -> bool
(** True for scenarios expressible in the pre-algebra representation:
    exactly one event, at offset zero. *)

val combine : t -> t -> t
(** The union of the two event sets (both keep their offsets). *)

val delay : Duration.t -> t -> t
(** Shifts every event later by the given (non-negative) duration. *)

val digest : t -> Struct_hash.t
(** Structural digest of the scenario; the scenario half of the
    {!Eval_cache} key (see {!Design.t}'s [key]). Single-event scenarios
    hash exactly as the pre-algebra representation did, so the
    representation change does not invalidate warm cache shards. *)

val fingerprint : t -> string
(** {!digest} as 32 hex characters. *)

val pp : t Fmt.t
