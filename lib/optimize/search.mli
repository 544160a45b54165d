open Storage_model

(** The outer optimization loop: stream every candidate through the
    engine, keep the feasible ones, rank by worst-case total cost, and
    expose the Pareto frontier for human inspection. *)

type result = {
  evaluated : Objective.summary list;
      (** every candidate, input order; [[]] when [~top_k] truncation is
          on (the full set is deliberately not retained) *)
  feasible : Objective.summary list;
      (** candidates meeting RTO/RPO in all scenarios, cheapest first;
          truncated to the [~top_k] cheapest when given *)
  frontier : Objective.summary list;
      (** Pareto-optimal candidates over (outlays, worst RT, worst DL) *)
  best : Objective.summary option;
      (** cheapest feasible design by worst-case total cost *)
  considered : int;
      (** candidates evaluated (after lint pruning) — the length
          [evaluated] would have had *)
  feasible_count : int;
      (** feasible candidates seen — the length [feasible] would have
          had without truncation *)
}

val run :
  ?engine:Storage_engine.t ->
  ?top_k:int ->
  Design.t Seq.t ->
  Scenario.t list ->
  result
(** [run candidates scenarios] consumes the candidate sequence once,
    streaming: each element is lint-checked, evaluated through the
    engine's shared {!Eval_cache} (on the engine's domains, in bounded
    windows — see {!Storage_engine.map_seq}), and folded into the
    result. Raises [Invalid_argument] on an empty candidate sequence or
    scenario list.

    Memory: without [~top_k] the full [evaluated]/[feasible] lists are
    returned, so memory is O(grid) as before. With [~top_k:k] only the
    [k] cheapest feasible summaries and the incremental Pareto frontier
    are retained — O(frontier + k) — which is what lets a million-design
    grid stream through a constant-size working set. [evaluated] is
    [[]] in that mode; [considered]/[feasible_count] still report the
    totals. Raises [Invalid_argument] when [top_k < 1].

    The stream is statically pre-filtered with
    {!Storage_lint.prefilter}: candidates with {!Design.violations}
    (overcommitted devices, unsustainable links, non-finite workload or
    cost terms — exactly the conditions that make {!Evaluate.run} attach
    validation errors) are dropped before any evaluation, each
    incrementing the [lint.pruned] {!Storage_obs} counter. The result is
    identical to running over a hand-filtered grid. If every candidate
    is pruned the result is empty rather than an error.

    Whatever the engine's [jobs], every list of the result is in the
    same (input-derived) order and every summary is identical to a
    serial run's — evaluation is pure, and the streaming map preserves
    input order. Without [?engine] the search runs on a fresh serial
    engine (evaluations still share that run's cache, so duplicate
    candidates are evaluated once); pass an engine to add domains and to
    share the cache across the searches of an iterative what-if
    session — re-visited candidates cost a lookup, not an evaluation.
    The cache never changes any metric. *)

val pp : result Fmt.t
(** Prints the counts, the frontier and the winner. *)
