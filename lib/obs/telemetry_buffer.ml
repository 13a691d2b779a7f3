(* A per-domain telemetry buffer: the worker-side half of the
   cross-domain merge.

   The global tracer and metrics registry are single-domain state, so a
   Par worker cannot write to them directly.  Instead the dispatching
   domain installs one buffer per job (via [Obs.with_buffer]).  Spans
   and event instants recorded while it is installed go to the buffer's
   own [Tracer.t], which the merge moves over with [Tracer.absorb]; every
   metric emission appends a small replayable op — a counter delta, a
   gauge sample or a histogram observation — which the dispatcher
   replays after the fan-in in job order ([Obs.merge_buffer]).  Replaying
   samples, rather than merging registries, keeps gauge [x] positions
   and float histogram sums bit-identical to a sequential run. *)

type op =
  | Counter of { name : string; by : int }
  | Gauge of { name : string; x : float option; value : float }
  | Observe of { name : string; value : int }

type t = { tracer : Tracer.t; mutable ops : op list  (* newest first *) }

let create () = { tracer = Tracer.create (); ops = [] }
let tracer b = b.tracer

let counter b ?(by = 1) name = b.ops <- Counter { name; by } :: b.ops
let gauge b ?x name value = b.ops <- Gauge { name; x; value } :: b.ops
let observe b name value = b.ops <- Observe { name; value } :: b.ops

let ops b = List.rev b.ops

let absorb outer inner = outer.ops <- List.rev_append (ops inner) outer.ops
