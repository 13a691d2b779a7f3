(** The unified verification report: one [assemble] runs the whole
    methodology — the four-level flow, the static lints and the fault
    campaign — under a single governor tree with a {!Symbad_gov.Ledger}
    attached and telemetry on, then snapshots everything the run left
    behind into one self-contained record.

    The record carries the verdict table, the lint diagnostics, the
    per-span self-time profile, the merged counters and histograms (all
    worker-lane contributions included via the telemetry-buffer merge),
    the budget waterfall and a trace summary, and renders as JSON or
    markdown.

    Determinism: with [~timings:false] the rendered forms contain only
    simulated-time and logical-spend figures and are byte-identical at
    any pool width (the property `symbad report` is md5-tested on).
    Host timing is identified by naming convention — counters and
    histograms suffixed [_us] carry host microseconds and are zeroed
    (counts kept); [_ns] histograms carry simulated time and are
    reported in full; gauges are omitted entirely. *)

type profile_row = {
  cat : string;
  name : string;
  count : int;
  wall_us : float;  (** total inclusive host time *)
  self_us : float;  (** total minus direct children (clamped at 0) *)
}

type hist_row = { h_count : int; h_sum : float; h_min : int; h_max : int }

type t = {
  seed : int;
  workload : Symbad_core.Face_app.workload;
  flow : Symbad_core.Flow.t;
  lint_reports : Symbad_lint.Lint.report list;
  lint : Symbad_lint.Lint.report;  (** the reports merged *)
  faults : Symbad_resil.Campaign.report option;
  ledger : Symbad_gov.Ledger.t;
  gov_conflicts : int;
      (** root governor spend; equals {!Symbad_gov.Ledger.spent_conflicts}
          of [ledger] — the invariant the report tests assert *)
  gov_patterns : int;
  profile : profile_row list;  (** unordered; rendering sorts *)
  counters : (string * int) list;  (** name-sorted *)
  histograms : (string * hist_row) list;  (** name-sorted *)
  span_total : int;
  spans_by_cat : (string * int) list;  (** cat-sorted *)
  dropped : int;  (** telemetry emissions lost (should be 0) *)
  all_passed : bool;
}

val assemble :
  ?pool:Symbad_par.Par.pool ->
  ?cache:Symbad_cache.Cache.t ->
  ?seed:int ->
  ?workload:Symbad_core.Face_app.workload ->
  ?budget:Symbad_gov.Budget.t ->
  ?faults:bool ->
  ?trials_per_kind:int ->
  ?escalate:bool ->
  unit ->
  t
(** Run everything and snapshot the result.  [cache] hands the flow's
    level 4 the content-addressed verdict store; telemetry is on for
    the whole run, so hits/misses surface in the report's merged
    counters ([cache.hits] / [cache.misses]).  [seed] defaults to 1,
    [workload] to {!Symbad_core.Face_app.default_workload}, [budget] to
    unlimited, [faults] to [true] (the campaign always runs the smoke
    workload; [trials_per_kind] defaults to 1 to keep the report
    cheap).

    [escalate] (default [false]) runs the lint-to-proof escalation on
    every lint-corpus report and inside the flow's level 4: warnings
    whose rule defines a proof obligation are discharged with the model
    checker and re-emitted as proved ([Info]) or disproved ([Error],
    with a counterexample).  Proved-out warnings stop counting against
    the report verdict; disproved ones fail it.

    Telemetry is reset and force-enabled for the duration; it is left
    populated on return (the CLI exports the Chrome trace from it — the
    ledger's spend is already replayed onto counter tracks), and the
    enabled flag is restored for callers that had it off. *)

val lint_corpus :
  ?pool:Symbad_par.Par.pool ->
  ?gov:Symbad_gov.Gov.t ->
  ?rules:string list ->
  ?escalate:bool ->
  ?only:[ `Rtl | `Recovery ] ->
  unit ->
  Symbad_lint.Lint.report list
(** Lint the lintable corpus, one report per netlist: the level-4 RTL
    modules ({!Symbad_core.Level4.modules}), then the recovery
    controller, each with its own properties so property cones keep
    verification-only registers live.  [only] restricts the run to one
    of the two groups; [rules], [pool] and [gov] are handed to
    {!Symbad_lint.Lint.run_netlist}, and [escalate] (default [false])
    follows each report with {!Symbad_lint.Lint.escalate} under the
    same governor.  [symbad lint], the lint baseline and {!assemble}
    all lint this one list. *)

val to_json : ?timings:bool -> t -> string
(** One JSON document (trailing newline).  [~timings:false] scrubs host
    timing per the convention above for byte-stable comparison. *)

val to_markdown : ?timings:bool -> t -> string
(** The same report as one markdown document. *)
