(** Per-domain telemetry buffers: a private tracer for spans and event
    instants plus a replayable log of metric ops, so that [Par] worker
    domains record spans, events, counter deltas and gauge/histogram
    samples without touching the single-domain tracer/registry.  The
    dispatching domain installs one buffer per job ([Obs.with_buffer])
    and merges them back in job order after the fan-in
    ([Obs.merge_buffer]) — see [docs/OBSERVABILITY.md]. *)

type t

type op =
  | Counter of { name : string; by : int }
  | Gauge of { name : string; x : float option; value : float }
  | Observe of { name : string; value : int }

val create : unit -> t
(** An empty buffer. *)

val tracer : t -> Tracer.t
(** The buffer's timeline: its spans nest by {!Tracer}'s one rule, and
    its instants are the job's events. *)

val counter : t -> ?by:int -> string -> unit
val gauge : t -> ?x:float -> string -> float -> unit
val observe : t -> string -> int -> unit

val ops : t -> op list
(** Recorded metric ops, oldest first. *)

val absorb : t -> t -> unit
(** [absorb outer inner] appends [inner]'s op log to [outer]'s — the op
    half of the nested-Par merge (spans and instants merge through
    {!Tracer.absorb}). *)
