(** The resource governor: one {!Budget} plus live spend accounting,
    threaded through every verification engine so a run always
    terminates on time with the best partial result.  The budget's
    allowances and deadline are the only stops.

    A governor is handed to an engine entry point ([Sat.Solver.solve],
    [Mc.Engine.check], the ATPG generators, [Pcc.run], the LPV checks,
    [Core.Flow.run]); the engine polls {!out_of_budget} at step
    boundaries, charges what it consumed ({!charge_conflicts},
    {!charge_patterns}), and degrades to an inconclusive partial result
    when the governor says stop (see {!Degrade}).

    Hierarchy: {!split} and {!slice} derive child governors over the
    {e remaining} budget — flow levels split across engines, engines
    split across parallel jobs.  A child's charges propagate to every
    ancestor, so unspent allowance flows forward to whatever runs next.
    Charging is domain-safe (atomics); splitting of the logical
    allowances is deterministic, so parallel runs reproduce sequential
    ones at any pool width.

    Telemetry: splits, exhaustions, retries and degradations are
    reported as [gov.*] events (trace instants) and counters whenever
    [Symbad_obs] is enabled (buffered and merged when emitted inside a
    Par job).  Each
    node also keeps its children, retry count, degradation reasons and
    creation time, so the tree itself is the budget record: {!waterfall}
    reads it back as the table `symbad report` renders. *)

type t

val create : ?label:string -> Budget.t -> t
(** A root governor over [budget].  [label] names it in telemetry
    (default ["gov"]). *)

val unlimited : t
(** The shared do-nothing governor: unlimited budget, never exhausted.
    What engine entry points use when handed no governor — identical
    behaviour to the pre-governor code.  Being process-wide, it does not
    keep the children {!split} and {!slice} derive from it. *)

val get : t option -> t
(** [get (Some g)] is [g]; [get None] is {!unlimited} — the idiom for
    [?gov] optional arguments. *)

val label : t -> string
val budget : t -> Budget.t
(** The budget this governor was created over (allowances as granted,
    not as remaining — see {!remaining}). *)

(** {1 Spend accounting} *)

val charge_conflicts : t -> int -> unit
(** Record SAT conflicts spent.  Propagates to every ancestor.
    Domain-safe (atomic adds only); negative or zero charges are
    ignored. *)

val charge_patterns : t -> int -> unit
(** Record test patterns / simulation units spent.  Same contract as
    {!charge_conflicts}. *)

val conflicts_left : t -> int option
(** Allowance minus spend, floored at 0; [None] = unlimited. *)

val patterns_left : t -> int option

val spent_conflicts : t -> int
(** Total conflicts charged to this node and its whole subtree (charges
    propagate upward). *)

val spent_patterns : t -> int

val remaining : t -> Budget.t
(** The budget still available: granted allowances minus spend, same
    deadline, same retry count.  What {!split} and {!slice} divide. *)

(** {1 Exhaustion} *)

val exhaustion : t -> Degrade.reason option
(** Why this governor wants the run stopped, or [None] while budget
    remains.  Checks the logical allowances first (atomic reads), then
    the deadline (one clock read) — cheap enough to poll at every step
    boundary. *)

val out_of_budget : t -> bool
(** [exhaustion t <> None]. *)

(** {1 Hierarchy} *)

val split : ?label:string -> t -> int -> t list
(** [split g n] derives [n] child governors, each granted a near-equal
    share of the remaining logical allowances and the same deadline —
    the parallel split (siblings race the same
    clock).  Child charges propagate to [g].  Emits a [gov.split]
    event.  Raises [Invalid_argument] when [n < 1]. *)

val slice : ?label:string -> fraction:float -> t -> t
(** [slice g ~fraction] derives one child governor over
    [Budget.slice ~fraction (remaining g)] — the sequential split: the
    child gets an earlier deadline and a proportional allowance, and
    whatever it leaves unspent is still in [g] for the next phase. *)

(** {1 Portfolio retry} *)

val with_retry :
  ?label:string ->
  t ->
  inconclusive:('a -> bool) ->
  (attempt:int -> 'a) ->
  'a
(** [with_retry g ~inconclusive run] dispatches [run ~attempt:0]; while
    the result is inconclusive, budget remains and fewer than
    [(budget g).retries] retries have been spent, it re-dispatches with
    the next attempt number (the engine re-seeds or restarts from it).
    Emits a [gov.retry] event per re-dispatch. *)

(** {1 Telemetry} *)

val note_degraded : t -> what:string -> Degrade.reason -> unit
(** Report that a run under this governor degraded: a [gov.degrade]
    warning event plus the [gov.degradations] counter (buffered on
    worker domains); the node keeps the reason for {!waterfall}. *)

val pp : Format.formatter -> t -> unit
(** Label, remaining budget and exhaustion state. *)

(** {1 Budget waterfall} *)

type row = {
  label : string;
  parent : string option;  (** the parent's label *)
  depth : int;  (** tree depth, for indentation *)
  created : int;  (** nodes under this label *)
  granted_conflicts : int option;  (** summed grants; [None] if any unlimited *)
  granted_patterns : int option;
  granted_deadline_s : float option;
      (** seconds left at the first node's creation *)
  granted_retries : int;  (** the largest retry grant *)
  charged_conflicts : int;  (** charges on these nodes alone *)
  charged_patterns : int;
  subtree_conflicts : int;  (** these nodes plus every descendant *)
  subtree_patterns : int;
  retries : int;  (** re-dispatches by {!with_retry} *)
  degradations : string list;  (** sorted, deduplicated *)
  first_at_us : float;  (** first creation, relative to the root's *)
}

val waterfall : t -> row list
(** The tree under a governor, one row per label (nodes sharing a label
    are summed), in deterministic tree order: roots, then each node's
    children sorted by label.  A node's own charge is its spend less its
    children's.  Read it once the work under the tree has finished. *)

val waterfall_to_json : ?timings:bool -> row list -> Symbad_obs.Json.t
(** The rows as a JSON list; [~timings:false] zeroes the timestamps and
    deadline grants for reproducible output. *)

val waterfall_to_markdown : row list -> string
(** The rows as a markdown table (logical columns only). *)
