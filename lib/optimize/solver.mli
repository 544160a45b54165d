open Storage_units
open Storage_workload
open Storage_model

(** Solver-grade portfolio optimization over the candidate grid: the one
    front end through which [ssdep optimize] and [serve /optimize] search.

    Two interchangeable methods search the same {!Candidate} coordinate
    space for the cheapest feasible design:

    - {b grid} — exhaustive streaming evaluation ({!Search.run} over
      {!Candidate.enumerate}, retaining only the frontier and the top-k
      cheapest feasible designs): the reference;
    - {b anneal} — seeded simulated annealing / local search
      ({!Anneal}): budgeted, jobs-invariant, monotone in budget, and
      provably exhaustive at budget >= 4 x grid.

    Both evaluate through one {!Storage_engine.t} (shared pool, shared
    cache, [solver.*] observability counters) and fold results in
    deterministic order, so reports are byte-identical across [--jobs]
    and [--chunk]. The [solver-exhaustive-equivalence] testkit oracle
    holds annealing to exhaustive search on seeded small grids. *)

type method_ = Grid | Anneal

val method_name : method_ -> string
val method_of_string : string -> (method_, string) Stdlib.result

type stats = {
  evaluations : int;  (** [Objective.summarize] calls (cache hits included). *)
  considered : int;
      (** Candidates evaluated (grid, after lint pruning) or annealing
          proposals. *)
  accepted : int;  (** Annealing moves accepted (0 for grid). *)
}

type result = {
  method_ : method_;
  grid_points : int;  (** {!Candidate.point_count} of the space searched. *)
  budget : int;
  seed : int64;
  best : Objective.summary option;
      (** Cheapest feasible summary found; [None] when the (searched part
          of the) grid holds no feasible design. *)
  stats : stats;
  listing : Search.result option;
      (** The grid's streaming search result: counts, frontier and the
          [top_k] cheapest feasible summaries. [None] for anneal. *)
  top_k : int option;  (** As passed to {!run}. *)
}

val run :
  ?engine:Storage_engine.t ->
  ?budget:int ->
  ?seed:int64 ->
  ?top_k:int ->
  ?background:(string * Storage_device.Demand.labeled list) list ->
  method_:method_ ->
  Candidate.kit ->
  Candidate.space ->
  Scenario.t list ->
  result
(** Search the grid for the cheapest feasible design. [budget] (default
    2048) bounds annealing proposals and is recorded (but not binding)
    for grid; [seed] defaults to the fixed [0xCA5CADE]; [top_k] (grid only)
    keeps the [k] cheapest feasible designs in [listing] for {!pp} to
    list — memory stays O(frontier + k) whatever the grid size;
    [background] prices every candidate under externally-imposed device
    load (see {!Candidate.axes}). A transient engine is created (and
    shut down) when none is passed. Raises [Invalid_argument] on an
    empty space, empty scenarios, [budget < 1], [top_k < 1], or [top_k]
    with [Anneal]. *)

(** {1 Hierarchical portfolio roll-up}

    Per-object optima compose upward: each portfolio member (an object
    class with its own workload and business requirements) is solved in
    the shared hardware kit, members' tentative winners load each other
    as background demand (Gauss–Seidel consolidation), and the final
    assignment rolls up through {!Storage_model.Portfolio} into one
    site-level dependability summary. *)

type member = {
  label : string;
  workload : Workload.t;
  business : Business.t;
}

val member_of_design : Design.t -> member
(** The member an existing design file describes: its name, workload and
    business requirements (the hierarchy is discarded — the solver picks
    a new one). *)

type site = {
  feasible : bool;
      (** Every member assigned a feasible design and no shared device
          overcommitted. *)
  overcommitted : string list;  (** Names of overcommitted devices. *)
  outlays : Money.t;  (** Shared fixed costs counted once. *)
  penalties : Money.t;  (** Sum of members' worst-scenario penalties. *)
  total : Money.t;
  worst_recovery_time : Duration.t;  (** Max across members. *)
  worst_loss : Data_loss.loss;  (** Max across members. *)
}

type portfolio_result = {
  assignments : (string * result) list;
      (** Final-round solver result per member label, in member order. *)
  chosen : Design.t list;
      (** The winning designs, renamed ["label: design"] and loaded with
          each other's background demands — the members of the
          {!Storage_model.Portfolio} they were rolled up through (raw,
          unloaded designs when the portfolio could not be formed). *)
  site : site;
}

val solve_portfolio :
  ?engine:Storage_engine.t ->
  ?budget:int ->
  ?seed:int64 ->
  ?rounds:int ->
  method_:method_ ->
  kit:Candidate.kit ->
  space:Candidate.space ->
  members:member list ->
  Scenario.t list ->
  portfolio_result
(** Solve every member jointly. [rounds] (default 2) Gauss–Seidel passes:
    each pass re-optimizes every member against the others' latest
    tentative designs folded in as background demand on the kit's
    devices. Per-(round, member) solver seeds derive from one splitmix64
    stream, so the whole consolidation is a pure function of
    (seed, budget, rounds) — byte-identical across [--jobs]. Raises
    [Invalid_argument] on empty members, duplicate labels, or
    [rounds < 1]. *)

(** {1 Rendering} *)

val pp : result Fmt.t
(** Grid: {!Search.pp} of [listing], then — when [top_k] was given — the
    ranked top-k block. Anneal: the budget, evaluation and move counts,
    then the best design. *)

val to_json : result -> Storage_report.Json.t
val pp_portfolio : portfolio_result Fmt.t
val portfolio_to_json : portfolio_result -> Storage_report.Json.t
