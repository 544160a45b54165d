open Storage_hierarchy
open Storage_model

(** Static design analysis ([ssdep lint]).

    The framework's utilization, data-loss, recovery-time and cost numbers
    are only trustworthy for well-formed inputs, and well-formedness is a
    {e static} property: §3.3.1's bandwidth and overcommitment checks, the
    §3.2.1 schedule conventions, spare-pool coverage of a failure scope —
    none of them need a single evaluation. This module gathers those
    checks as a rule set with stable codes ([SSDEP-E0xx] errors,
    [SSDEP-W0xx] warnings, [SSDEP-I0xx] advisories) and structured
    {!Diagnostic.t} findings, rendered as a human table or JSON. The
    structural and design-wide errors are not decided here: they are
    {!Hierarchy.violations} and {!Design.violations}, which this module
    renders with codes and locations.

    Two callers: the [ssdep lint] CLI (human/CI feedback, exit codes), and
    the design-space search, which uses {!prefilter} to reject statically
    invalid candidates before paying for {!Evaluate.run}
    (see {!Storage_optimize.Search.run}).

    Severity contract: a design with no [Error]-severity findings
    evaluates without [Evaluate.report.errors]; conversely anything
    {!Evaluate.run} rejects carries at least one lint error (the
    [test_lint] property suite enforces both directions over the presets
    and seeded random designs). *)

module Diagnostic = Diagnostic

val rules : (string * Diagnostic.severity * string) list
(** The rule registry: code, severity, one-line description. Stable codes,
    documented rule by rule (with paper references) in DESIGN.md. *)

val check_levels : Hierarchy.level list -> Diagnostic.t list
(** {!Hierarchy.violations} of a {e raw} level list, one diagnostic each:
    primary-copy placement (E001), missing schedules (E002), decreasing
    retention counts (E003), accumulation windows shorter than the
    upstream cycle period (E004), colocation (E005). [Hierarchy.make]
    refuses such a list, so {!check} never reports these: a design file
    that breaks one fails to load, in [ssdep lint] too. *)

val check_design : Design.t -> Diagnostic.t list
(** The scenario-independent rules: first {!Design.violations}, one
    error each (E010–E015, E018), then device near-commitment
    (W001/W002), bursty asynchronous mirror links (W003), workload
    consistency (W004/W005) and the schedule advisories (I001/I002). *)

val check_scenario : Design.t -> string * Scenario.t -> Diagnostic.t list
(** The rules for one named failure scenario: unreachable scenarios
    (W006/W007) and recovery-path viability — spare coverage of the scope
    (E016) and available transfer bandwidth (E017). *)

val check :
  ?scenarios:(string * Scenario.t) list -> Design.t -> Diagnostic.t list
(** {!check_design} plus {!check_scenario} for each given scenario, sorted
    and deduplicated into the stable {!Diagnostic.compare} order. *)

val errors : Diagnostic.t list -> Diagnostic.t list
val warnings : Diagnostic.t list -> Diagnostic.t list
val infos : Diagnostic.t list -> Diagnostic.t list

val accepts : Design.t -> bool
(** [Design.violations d = []]: no error among the design-wide rules, so
    the candidate is worth evaluating. Warnings never reject. *)

val prefilter : Design.t -> bool
(** {!accepts}, counting every rejection in the [lint.pruned]
    {!Storage_obs} counter, so [--stats] shows how much work the search
    pre-filter saved. *)

val exit_code : ?deny_warnings:bool -> Diagnostic.t list -> int
(** CLI exit code: [2] with errors, [1] with warnings under
    [~deny_warnings:true], [0] otherwise. *)

val pp : Diagnostic.t list Fmt.t
(** Table of findings followed by a severity summary ("clean: ..." when
    empty). *)

val pp_summary : Diagnostic.t list Fmt.t

val to_json : design:string -> Diagnostic.t list -> Storage_report.Json.t
(** Stable machine-readable form: design name, the ordered diagnostics,
    and per-severity counts. *)
