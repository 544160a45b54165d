open Storage_units

(** Frequency-weighted risk assessment.

    The paper deliberately evaluates a single imposed failure scenario
    (§3.1.3), deferring failure frequencies to its automated-design future
    work. This module provides that extension: given each scenario's
    annual frequency, it converts per-incident penalties into an expected
    annual penalty, which composes with the annualized outlays into an
    expected total cost of ownership. *)

type weighted = {
  scenario : Scenario.t;
  frequency_per_year : float;
      (** expected occurrences per year; may be far below 1 for site
          disasters *)
}

type exposure = {
  weighted : weighted;
  report : Evaluate.report;
  per_incident_penalty : Money.t;
  expected_annual_penalty : Money.t;
}

type t = {
  design_name : string;
  exposures : exposure list;
  annual_outlays : Money.t;
  expected_annual_penalty : Money.t;  (** sum over scenarios *)
  expected_annual_cost : Money.t;  (** outlays + expected penalties *)
}

val assess : Design.t -> weighted list -> t
(** Raises [Invalid_argument] on an empty list or a negative frequency. *)

val compare_designs : Design.t list -> weighted list -> (Design.t * t) list
(** Assesses every design against the same weighted scenarios, sorted by
    expected annual cost (cheapest first). *)

(** Monte-Carlo cost distribution over an operating horizon.

    Expectations hide tail risk: a once-a-century disaster with a $72M
    penalty contributes only $0.7M/yr in expectation but dominates the
    years it strikes. Sampling Poisson incident counts per scenario gives
    the full cost distribution a planner can set reserves against. *)
type distribution = {
  horizon_years : float;
  samples : int;
  mean : Money.t;  (** total cost over the horizon (outlays + penalties) *)
  stddev : float;
      (** spread of the sampled horizon costs, in US dollars (not a
          {!Money.t}: it is a dispersion, not an amount of money one
          pays). Computed with the unbiased sample estimator
          (denominator [samples - 1]); [0.] when [samples = 1]. *)
  p50 : Money.t;
  p95 : Money.t;
  p99 : Money.t;
  max : Money.t;
}

val monte_carlo :
  ?engine:Storage_engine.t ->
  ?seed:int64 ->
  ?samples:int ->
  Design.t ->
  weighted list ->
  horizon_years:float ->
  distribution
(** [monte_carlo design weighted ~horizon_years] draws incident counts
    [Poisson(frequency x horizon)] per scenario (default 10,000 samples,
    deterministic seed) and accumulates per-incident penalties plus the
    horizon's outlays.

    Counts are sampled exactly (Knuth's multiplicative method) for
    [lambda < 30] and by a clamped normal approximation
    [max 0 (round (lambda + sqrt lambda * z))] above, so arbitrarily
    large [frequency x horizon] products stay finite and O(1) — the
    multiplicative method's acceptance threshold underflows near
    [lambda ~ 745].

    The [?engine] supplies the domains; [?seed] defaults to the fixed
    [0xCA5CADE] whatever the engine. Each sample draws from its own
    generator seeded off the master seed, so for a fixed seed the distribution is bit-identical
    for every [jobs] value; more jobs only spread the sampling across
    domains. Raises [Invalid_argument] on an empty scenario list,
    non-positive horizon or samples, or negative frequencies. *)

val pp : t Fmt.t
val pp_distribution : distribution Fmt.t
