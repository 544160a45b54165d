(** Pareto frontiers over design summaries.

    A design dominates another when it is no worse on every objective
    (outlays, worst recovery time, worst data loss) and strictly better on
    at least one. The frontier is the set of non-dominated designs — the
    menu a storage administrator actually chooses from. *)

val dominates : Objective.summary -> Objective.summary -> bool
(** [dominates a b] per the (outlays, worst RT, worst DL) objectives.
    [Entire_object] losses compare worse than any finite loss. *)

val frontier : Objective.summary list -> Objective.summary list
(** Non-dominated subset, preserving input order — except that survivors
    with {e equal} scores on all three objectives (a tie the dominance
    order cannot see) form one contiguous run at the first survivor's
    position, internally ordered by a pinned deterministic tie-break
    (design name, then structural key). Without the pin, the
    relative order of structurally-distinct tied candidates would leak
    the enumeration order. Computed incrementally (a fold of {!insert});
    O(n x frontier size) rather than the old O(n^2) scan, and provably
    equal — list for list — to the quadratic reference
    [Storage_testkit.Reference.pareto_frontier]. *)

(** {1 Online frontier}

    Streaming search folds candidates through an accumulator so the
    frontier of a million-design grid is maintained in O(frontier)
    memory. *)

type front
(** The non-dominated subset of the elements inserted so far. *)

val empty : front

val insert : front -> Objective.summary -> front
(** Drops the newcomer if dominated; otherwise evicts what it dominates
    and splices it in (joining its equal-score class in tie-break order,
    or founding one at the end). [contents (List.fold_left insert empty
    xs)] is [frontier xs]. *)

val contents : front -> Objective.summary list
(** Survivors in insertion order. *)
