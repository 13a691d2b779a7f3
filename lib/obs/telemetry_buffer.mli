(** Per-domain telemetry buffers: a private span timeline plus a
    replayable op log, so that [Par] worker domains record spans,
    counter deltas, gauge/histogram samples and events without touching
    the single-domain tracer/registry.  The dispatching domain installs
    one buffer per job ([Obs.with_buffer]) and merges them back in job
    order after the fan-in ([Obs.merge_buffer]) — see
    [docs/OBSERVABILITY.md]. *)

type t

type op =
  | Counter of { name : string; by : int }
  | Gauge of { name : string; x : float option; value : float }
  | Observe of { name : string; value : int }
  | Ev of Event.t

val create : unit -> t
(** An empty buffer. *)

val tracer : t -> Tracer.t
(** The buffer's span timeline; spans nest by {!Tracer}'s one rule. *)

val counter : t -> ?by:int -> string -> unit
val gauge : t -> ?x:float -> string -> float -> unit
val observe : t -> string -> int -> unit
val event : t -> Event.t -> unit

val ops : t -> op list
(** Recorded ops, oldest first. *)

val absorb : t -> t -> unit
(** [absorb outer inner] appends [inner]'s op log to [outer]'s — the op
    half of the nested-Par merge (spans merge through
    {!Tracer.absorb}). *)
