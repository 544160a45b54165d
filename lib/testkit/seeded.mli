open Storage_model
open Storage_optimize

(** Shared seeded design pools: the single source of truth behind the
    "200 seeded designs" suites (test_parallel, test_engine, test_lint,
    test_random_designs) and the fuzzer's fallback corpus.

    All randomness is explicitly seeded: {!draw} reproduces the exact
    candidate list the historical hand-rolled [Random.State] loops
    produced for the same seed, so pre-existing regressions keep
    reproducing bit for bit. *)

val business : Business.t
(** The case study's $50,000/hr outage and loss penalties. *)

val kit : Candidate.kit
(** Cello workload on the baseline preset hardware. *)

val pool_space : Candidate.space
(** A moderate valid-design grid (the random-design suites' pool). *)

val lint_space : Candidate.space
(** The smaller grid the lint coincidence suite scales across the
    feasibility frontier. *)

val pool : unit -> Design.t list
(** [Candidate.enumerate kit pool_space], memoized. *)

val pool_again : unit -> Design.t list
(** A structurally identical but physically fresh enumeration — used by
    the fingerprint tests to show cache keys depend only on structure. *)

val lint_pool : unit -> Design.t list

val draw : seed:int array -> n:int -> Design.t list -> Design.t list
(** [draw ~seed ~n pool] samples [n] designs with repetition (duplicates
    deliberately exercise evaluation-cache dedup) using
    [Random.State.make seed], byte-compatible with the original test-suite
    loops. Raises [Invalid_argument] on an empty pool. *)

val scaled : factor:float -> Design.t -> Design.t
(** The design with its workload grown by [factor] (and "-x<factor>"
    appended to its name): sweeps a design across the lint feasibility
    frontier. *)
