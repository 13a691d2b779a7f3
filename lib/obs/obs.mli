(** Process-wide telemetry: one tracer and one metrics registry behind
    a single enable flag.

    Everything is a no-op while disabled; instrumentation sites on hot
    paths should still guard with [if Obs.enabled () then ...] so that
    argument lists are not even allocated.

    Direct writes to the tracer/registry belong to the {e owner} domain
    (the one that last called [set_enabled true]).  Other domains record
    into a per-domain {!Telemetry_buffer.t} installed by their dispatcher
    ({!with_buffer} — [Par] installs one per job) and the dispatcher
    merges the buffers at the fan-in ({!merge_buffer}) in job order, so
    merged metrics are byte-identical at any pool width.  Spans nest by
    {!Tracer}'s one rule wherever they are recorded, and an event is one
    {!Tracer.instant} wherever it is recorded.  Emissions from
    a domain with neither role are dropped and counted
    ({!dropped_count}). *)

val enabled : unit -> bool
(** True on the owner domain and on any domain running under an
    installed buffer; false (and emissions are dropped-and-counted)
    elsewhere. *)

val set_enabled : bool -> unit
(** [set_enabled true] also makes the calling domain the owner of the
    switchboard — the tracer and registry are single-domain state. *)

val tracer : unit -> Tracer.t
(** The process-wide span timeline (owner domain only). *)

val metrics : unit -> Metrics.t
(** The process-wide metrics registry (owner domain only). *)

val reset : unit -> unit
(** Fresh tracer, fresh registry, dropped count zeroed.  Does not change
    the enabled flag. *)

(** {1 Cross-domain buffering} *)

val dropped_count : unit -> int
(** Emissions dropped since the last {!reset} because they came from a
    domain that is neither the owner nor under a buffer.  Nonzero means
    counters/spans under-report parallel work — the CLI warns on it. *)

(** {1 Events} *)

val event :
  ?severity:Severity.t ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  unit
(** Record an event as a {!Tracer.instant} (severity, args and simulated
    time included) on the current timeline: the global tracer on the
    owner domain, the installed buffer's tracer on a worker. *)

(** {1 Spans} *)

type span

val null_span : span
(** What a site that guards [begin_span] behind [enabled] uses as the
    disabled arm; [end_span] on it is a no-op. *)

val begin_span :
  ?track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  span
(** Open a span on the timeline ({!null_span} while disabled). *)

val end_span : ?args:(string * Json.t) list -> ?sim_ns:int -> span -> unit
(** Close a span opened by {!begin_span}; extra [args] are merged in. *)

val span :
  ?track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  (unit -> 'a) ->
  'a
(** Scoped span around a computation; transparent while disabled. *)

val with_buffer : Telemetry_buffer.t -> (unit -> 'a) -> 'a
(** Run a thunk with every telemetry emission of the calling domain
    recorded into the buffer (restores the previous buffer, if any, on
    exit).  [Par] wraps each job in this. *)

val merge_buffer : ?parent:span -> lane:int -> Telemetry_buffer.t -> unit
(** Merge a buffer into the caller's telemetry target: the global
    tracer/registry on the owner domain, or the caller's own buffer
    when Par maps nest.  The timeline moves by {!Tracer.absorb}: the
    buffer's root spans are parented to [parent] (the dispatch span) and
    placed on track ["lane<lane>"]; nested spans keep their original
    track under a ["lane<lane>/"] prefix; event instants keep their
    host time and land on ["lane<lane>"].  Counter deltas, gauge samples
    and histogram observations replay in recorded order — merging
    buffers in job-dispatch order makes the merged registry
    deterministic. *)

(** {1 Metric shorthands} *)

val incr_counter : ?by:int -> string -> unit
(** [Metrics.incr] on the named counter of the global registry (or the
    installed buffer). *)

val set_gauge : ?x:float -> string -> float -> unit
(** [Metrics.set] on the named gauge of the global registry (or the
    installed buffer). *)

val observe : string -> int -> unit
(** [Metrics.observe] on the named histogram of the global registry (or
    the installed buffer). *)
