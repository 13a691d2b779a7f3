(* The process-wide telemetry switchboard.

   Instrumentation all over the stack (kernel, bus, solver, FPGA, flow)
   talks to one global tracer and one global metrics registry, behind a
   single [enabled] flag.  When telemetry is off every instrumentation
   site reduces to one branch on [Obs.enabled ()] — no allocation, no
   registry traffic — which keeps the simulation hot paths at their
   uninstrumented speed.

   The tracer and registry are not safe for concurrent mutation, so
   direct writes belong to one domain: the one that last called
   [set_enabled true].  Every other domain records into a per-domain
   [Telemetry_buffer.t] installed by the dispatcher ([with_buffer] — Par
   installs one per job): spans and event instants into the buffer's own
   tracer, metric emissions into its op log.  At the fan-in the
   dispatcher merges the buffers in job order ([merge_buffer]) — the
   timeline by [Tracer.absorb], metric ops by replay — so merged metrics
   are identical at any pool width.  A domain that is neither the owner
   nor running under a buffer drops the emission and counts it
   ([dropped_count]) so the CLI can warn instead of silently
   under-reporting. *)

let enabled_flag = Atomic.make false
let owner = ref (Domain.self ())

(* the per-domain buffer installed by [with_buffer] *)
let buffer_key : Telemetry_buffer.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let dropped = Atomic.make 0
let dropped_count () = Atomic.get dropped

let note_drop () =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add dropped 1)

type mode = Off | Direct | Buffered of Telemetry_buffer.t

let mode () =
  if not (Atomic.get enabled_flag) then Off
  else
    match Domain.DLS.get buffer_key with
    | Some b -> Buffered b
    | None -> if Domain.self () = !owner then Direct else Off

let enabled () = mode () <> Off

let set_enabled b =
  if b then owner := Domain.self ();
  Atomic.set enabled_flag b

let tracer_ref = ref (Tracer.create ())
let metrics_ref = ref (Metrics.create ())

let tracer () = !tracer_ref
let metrics () = !metrics_ref

let reset () =
  tracer_ref := Tracer.create ();
  metrics_ref := Metrics.create ();
  Atomic.set dropped 0

let with_buffer b f =
  let old = Domain.DLS.get buffer_key in
  Domain.DLS.set buffer_key (Some b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set buffer_key old) f

(* the timeline an enabled emission writes to *)
let current_tracer = function
  | Buffered b -> Telemetry_buffer.tracer b
  | Direct | Off -> !tracer_ref

(* --- events: an event is one trace instant --- *)

let event ?severity ?args ?sim_ns name =
  match mode () with
  | Off -> note_drop ()
  | (Direct | Buffered _) as m ->
      Tracer.instant (current_tracer m) ?severity ?args ?sim_ns name

(* --- spans --- *)

type span = S_none | S_open of Tracer.t * Tracer.span

let null_span : span = S_none

let begin_span ?track ?cat ?args ?sim_ns name =
  match mode () with
  | Off ->
      note_drop ();
      S_none
  | (Direct | Buffered _) as m ->
      let tr = current_tracer m in
      S_open (tr, Tracer.begin_span tr ?track ?cat ?args ?sim_ns name)

let end_span ?args ?sim_ns (s : span) =
  match s with
  | S_none -> ()
  | S_open (tr, s) -> Tracer.end_span tr ?args ?sim_ns s

let span ?track ?cat ?args ?sim_ns name f =
  match mode () with
  | Off ->
      note_drop ();
      f ()
  | Direct | Buffered _ -> (
      let s = begin_span ?track ?cat ?args ?sim_ns name in
      match f () with
      | v ->
          end_span s;
          v
      | exception e ->
          end_span s;
          raise e)

(* --- metric conveniences (registry lookup per call; fine off the hot
   path, hot paths should flush deltas at quiescent points) --- *)

let incr_counter ?(by = 1) name =
  match mode () with
  | Off -> note_drop ()
  | Direct -> Metrics.incr ~by (Metrics.counter !metrics_ref name)
  | Buffered b -> Telemetry_buffer.counter b ~by name

let set_gauge ?x name v =
  match mode () with
  | Off -> note_drop ()
  | Direct -> Metrics.set ?x (Metrics.gauge !metrics_ref name) v
  | Buffered b -> Telemetry_buffer.gauge b ?x name v

let observe name v =
  match mode () with
  | Off -> note_drop ()
  | Direct -> Metrics.observe (Metrics.histogram !metrics_ref name) v
  | Buffered b -> Telemetry_buffer.observe b name v

(* --- the merge --- *)

let replay (op : Telemetry_buffer.op) =
  let m = !metrics_ref in
  match op with
  | Counter { name; by } -> Metrics.incr ~by (Metrics.counter m name)
  | Gauge { name; x; value } -> Metrics.set ?x (Metrics.gauge m name) value
  | Observe { name; value } -> Metrics.observe (Metrics.histogram m name) value

let merge_buffer ?parent ~lane buf =
  let absorb_timeline into =
    let parent =
      match parent with
      | Some (S_open (tr, s)) when tr == into -> Some s
      | Some (S_open _ | S_none) | None -> None
    in
    Tracer.absorb into ~lane ?parent (Telemetry_buffer.tracer buf)
  in
  match mode () with
  | Off -> () (* telemetry was turned off mid-flight; nothing to merge into *)
  | Buffered outer ->
      (* nested Par map: the ops replay when the outer buffer merges *)
      absorb_timeline (Telemetry_buffer.tracer outer);
      Telemetry_buffer.absorb outer buf
  | Direct ->
      absorb_timeline !tracer_ref;
      List.iter replay (Telemetry_buffer.ops buf)
