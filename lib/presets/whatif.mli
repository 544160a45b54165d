open Storage_model

(** The what-if designs of Table 7 (§4.2).

    Each design modifies the baseline along one axis: vaulting frequency,
    backup policy, PiT technique, or replacing tape protection with
    wide-area asynchronous batch mirroring. *)

val weekly_vault : Design.t
(** Vault accumulation shortened to one week (12 hr hold, 24 hr
    propagation); retention extended to keep the three-year horizon. *)

val weekly_vault_full_incremental : Design.t
(** Weekly fulls (48 hr acc/prop) plus five daily cumulative incrementals
    (24 hr acc, 12 hr prop), weekly vaulting. *)

val weekly_vault_daily_full : Design.t
(** Daily full backups (24 hr acc, 12 hr prop), weekly vaulting. *)

val weekly_vault_daily_full_snapshot : Design.t
(** As above, with virtual snapshots in place of split mirrors. *)

val async_mirror : links:int -> Design.t
(** Asynchronous batch mirroring (1 min batches) to a remote array over
    [links] OC-3 lines, replacing split mirrors, backup and vaulting. *)

val erasure_coded : fragments:int -> required:int -> links:int -> Design.t
(** An OceanStore-style extension design the paper never evaluated: hourly
    batches erasure-coded [required]-of-[fragments] onto the remote
    fragment store, retaining a day of hourly versions — minute-scale
    archival bandwidth with rollback depth a plain mirror lacks. *)

val all : (string * Design.t) list
(** The seven Table 7 rows in order, baseline first. *)

val search_kit :
  ?business:Business.t -> unit -> Storage_optimize.Candidate.kit
(** The baseline case study as a search kit: Cello workload, the
    baseline devices and interconnects, [Baseline.oc3] WAN bundles.
    [?business] swaps the business requirements (e.g. CLI-supplied
    RTO/RPO) while keeping the hardware. *)

val search_space : ?scale:int -> unit -> Storage_optimize.Candidate.space
(** {!Storage_optimize.Candidate.scaled_space}: [~scale:1] (default) is
    the ~100-design default grid; larger scales grow O(scale^3) for
    streaming-search workloads. *)

val search_problem :
  ?rto:float ->
  ?rpo:float ->
  ?scale:int ->
  unit ->
  Storage_optimize.Candidate.kit
  * Storage_optimize.Candidate.space
  * Scenario.t list
(** The problem [ssdep optimize] and [serve /optimize] solve: {!search_kit}
    under $50k/h outage and loss penalty rates and the given recovery
    time / point objectives (hours; none when absent), {!search_space} at
    [scale], and the baseline array and site failure scenarios. *)
