open Storage_model
open Storage_optimize

(** Slow, obviously-correct references the fast paths are tested
    against. They share no traversal code with what they check and exist
    only for tests, oracles and the streaming-memory bench. *)

val pareto_frontier : Objective.summary list -> Objective.summary list
(** The quadratic specification of {!Pareto.frontier}: filter out
    everything some other element dominates, then regroup each
    equal-score class at its first occurrence, ordered by design name and
    then structural key. {!Pareto.frontier} must equal it list
    for list. *)

val run_materialized : Design.t list -> Scenario.t list -> Search.result
(** The materialized search loop the streaming {!Search.run} is
    differential-tested against: whole-list lint pruning (counted in
    [lint.pruned] like the search pre-filter), serial scoring,
    {!pareto_frontier}. Byte-identical results to {!Search.run} without
    [~top_k] on the same grid. Raises [Invalid_argument] on empty
    candidates or scenarios. *)
