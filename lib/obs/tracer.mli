(** Nestable timed spans and instant markers, exported as Chrome
    trace_event JSON (loadable in chrome://tracing or Perfetto).

    Spans carry host time always, and simulated time when the caller
    passes [sim_ns].  Spans are grouped on named {e tracks} (Chrome
    threads): the default track serialises the flow itself, while
    concurrent simulation processes (e.g. bus masters) should each use
    their own track so their interleaved spans still nest.

    Every span has a timeline-unique id and a causal parent: the
    innermost span still open in the same tracer, on any track.  A
    tracer records one fiber of control (the owner domain, or one [Par]
    job), so dynamic nesting is causality.  {!absorb} merges a job's
    tracer into its dispatcher's; the dispatch → job-root links it makes
    are exported as Chrome flow arrows, which is how a [Par] dispatch
    span points at the job spans that ran on worker lanes. *)

type t

type span

type completed = {
  id : int;  (** timeline-unique span id (also exported in the args) *)
  parent : int option;  (** causal parent span id, if any *)
  name : string;
  cat : string;
  track : string;
  depth : int;  (** nesting depth within the track at begin time *)
  start_us : float;
  dur_us : float;
  self_us : float;
      (** host time this span was the innermost open span of its tracer,
          less the jobs {!absorb} parented to it (clamped at 0): the self
          times of a tracer add up to the wall of its root spans *)
  sim_start_ns : int option;
  sim_dur_ns : int option;
  args : (string * Json.t) list;
}

val default_track : string
(** ["flow"]. *)

val create : unit -> t
(** An empty timeline. *)

val begin_span :
  t ->
  ?track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  span
(** Open a span on [track] (default {!default_track}) at the current
    host time; [cat] is the Chrome category, [sim_ns] the simulated
    start time.  Its parent is the innermost span still open in [t], on
    any track; its depth counts the spans open on [track]. *)

val end_span : t -> ?args:(string * Json.t) list -> ?sim_ns:int -> span -> unit
(** Close the span; [sim_ns] here yields a simulated duration in the
    exported args.  Spans on the same track must close in LIFO order. *)

val with_span :
  t ->
  ?track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  (unit -> 'a) ->
  'a
(** Scoped span; closes on normal return and on exception. *)

val instant :
  t ->
  ?track:string ->
  ?severity:Severity.t ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  unit
(** A zero-duration marker on the timeline at the current host time:
    the one record of an [Obs.event]. *)

val span_count : t -> int
(** Number of completed spans. *)

val completed_spans : t -> completed list
(** Completed spans, oldest first. *)

val spans_with_cat : t -> string -> completed list
(** Completed spans whose category equals the argument, oldest first. *)

val absorb : t -> lane:int -> ?parent:span -> t -> unit
(** [absorb into ~lane ?parent from] appends [from]'s completed spans to
    [into]: ids are offset past [into]'s, root spans placed on track
    ["lane<lane>"] and parented to [parent] (a span open in [into],
    whose self time then excludes them), nested spans on
    ["lane<lane>/<original track>"].  [from]'s instants follow, in
    recorded order and at their original host time, on the bare
    ["lane<lane>"] track.  The one merge, for a [Par] job into the owner
    timeline and for a nested map into its dispatching job alike. *)

val to_chrome_json : t -> string
(** The whole timeline as a Chrome trace_event JSON document, with one
    flow arrow per {!absorb} link. *)
