(* Nestable timed spans plus instant markers, exported in the Chrome
   trace_event JSON format so a whole flow run opens as a timeline in
   chrome://tracing or Perfetto.

   Spans carry the host clock (the [ts]/[dur] fields, microseconds) and,
   when begun from inside a simulation, the simulated clock (in the
   [args]).  Spans live on named tracks, one Chrome "thread" per track:
   the default track carries the sequential flow (levels, verifications,
   solver calls), while each bus master gets its own track so that the
   interleaved transactions of concurrent simulation processes still
   render as properly nested rectangles.

   Every span has a timeline-unique [id] and a causal [parent]: the
   innermost span still open in this tracer, on any track.  A tracer is
   used by one fiber of control at a time (the owner domain, or one Par
   job), so dynamic nesting is causality even across tracks; [depth]
   stays per track because it only positions the rectangle.  [absorb]
   is the one merge: it moves a finished job's spans and instants into
   another tracer, the spans under a dispatch span, and those links — and
   only those — export as Chrome flow arrows ("s"/"f"). *)

type track = { tid : int; label : string; mutable depth : int }

type span = {
  s_id : int;
  s_parent : int option;
  s_name : string;
  s_cat : string;
  s_track : track;
  s_depth : int;
  s_start_us : float;
  s_sim_start_ns : int option;
  s_args : (string * Json.t) list;
  mutable s_self_us : float;
}

type completed = {
  id : int;
  parent : int option;
  name : string;
  cat : string;
  track : string;
  depth : int;
  start_us : float;
  dur_us : float;
  self_us : float;
  sim_start_ns : int option;
  sim_dur_ns : int option;
  args : (string * Json.t) list;
}

type instant = {
  i_name : string;
  i_severity : Severity.t;
  i_ts_us : float;
  i_track : track;
  i_sim_ns : int option;
  i_args : (string * Json.t) list;
}

type t = {
  epoch_us : float;
  tracks : (string, track) Hashtbl.t;
  mutable next_tid : int;
  mutable next_span_id : int;
  mutable open_spans : span list;  (* innermost first, across all tracks *)
  mutable switch_us : float;  (* when the innermost open span last changed *)
  mutable completed : completed list;  (* newest first *)
  links : (int, unit) Hashtbl.t;  (* spans parented by [absorb] *)
  mutable instants : instant list;
  mutable completed_count : int;
}

let default_track = "flow"

let now_us () = Unix.gettimeofday () *. 1e6

let create () =
  {
    epoch_us = now_us ();
    tracks = Hashtbl.create 8;
    next_tid = 1;
    next_span_id = 1;
    open_spans = [];
    switch_us = 0.;
    completed = [];
    links = Hashtbl.create 16;
    instants = [];
    completed_count = 0;
  }

let track_of t label =
  match Hashtbl.find_opt t.tracks label with
  | Some tr -> tr
  | None ->
      let tr = { tid = t.next_tid; label; depth = 0 } in
      t.next_tid <- t.next_tid + 1;
      Hashtbl.add t.tracks label tr;
      tr

(* Self time accrues to the innermost open span: at every change of the
   open stack, the span that was on top is charged the time since the
   last change.  Each host instant is charged to at most one span, so
   self times add up to the wall of the root spans even when spans of
   concurrent simulation processes overlap without nesting. *)
let switch t now =
  (match t.open_spans with
  | top :: _ -> top.s_self_us <- top.s_self_us +. (now -. t.switch_us)
  | [] -> ());
  t.switch_us <- now

let begin_span t ?(track = default_track) ?(cat = "app") ?(args = [])
    ?sim_ns name =
  let tr = track_of t track in
  let id = t.next_span_id in
  t.next_span_id <- id + 1;
  let now = now_us () in
  switch t now;
  let s =
    {
      s_id = id;
      s_parent = (match t.open_spans with [] -> None | p :: _ -> Some p.s_id);
      s_name = name;
      s_cat = cat;
      s_track = tr;
      s_depth = tr.depth;
      s_start_us = now;
      s_sim_start_ns = sim_ns;
      s_args = args;
      s_self_us = 0.;
    }
  in
  tr.depth <- tr.depth + 1;
  t.open_spans <- s :: t.open_spans;
  s

let end_span t ?(args = []) ?sim_ns s =
  let tr = s.s_track in
  if tr.depth > 0 then tr.depth <- tr.depth - 1;
  let now = now_us () in
  switch t now;
  t.open_spans <- List.filter (fun o -> o != s) t.open_spans;
  let sim_dur_ns =
    match (s.s_sim_start_ns, sim_ns) with
    | Some a, Some b -> Some (b - a)
    | _ -> None
  in
  t.completed <-
    {
      id = s.s_id;
      parent = s.s_parent;
      name = s.s_name;
      cat = s.s_cat;
      track = tr.label;
      depth = s.s_depth;
      start_us = s.s_start_us;
      dur_us = now -. s.s_start_us;
      self_us = Float.max 0. s.s_self_us;
      sim_start_ns = s.s_sim_start_ns;
      sim_dur_ns;
      args = s.s_args @ args;
    }
    :: t.completed;
  t.completed_count <- t.completed_count + 1

let with_span t ?track ?cat ?args ?sim_ns name f =
  let s = begin_span t ?track ?cat ?args ?sim_ns name in
  match f () with
  | v ->
      end_span t s;
      v
  | exception e ->
      end_span t s;
      raise e

let instant t ?(track = default_track) ?(severity = Severity.Info)
    ?(args = []) ?sim_ns name =
  t.instants <-
    {
      i_name = name;
      i_severity = severity;
      i_ts_us = now_us ();
      i_track = track_of t track;
      i_sim_ns = sim_ns;
      i_args = args;
    }
    :: t.instants

let span_count t = t.completed_count

let completed_spans t = List.rev t.completed

let spans_with_cat t cat =
  List.filter (fun c -> String.equal c.cat cat) (completed_spans t)

(* The lane prefix applied at merge time: a root span of the absorbed
   tracer (and every instant) goes on the bare lane track, every span
   below a root keeps its original track under the lane.  Nested Par
   maps prefix again, yielding hierarchical lane paths
   ("lane1/lane0/m2"). *)
let lane_track ~lane orig_track ~top_level =
  if top_level then Printf.sprintf "lane%d" lane
  else Printf.sprintf "lane%d/%s" lane orig_track

(* [from]'s ids are offset past every id [into] has handed out, so the
   ids of a merge sequence depend only on the merge order. *)
let absorb into ~lane ?parent from =
  let offset = into.next_span_id - 1 in
  into.next_span_id <- into.next_span_id + from.next_span_id - 1;
  List.iter
    (fun (c : completed) ->
      let root = c.parent = None in
      let c =
        {
          c with
          id = c.id + offset;
          parent =
            (if root then Option.map (fun p -> p.s_id) parent
             else Option.map (( + ) offset) c.parent);
          track = lane_track ~lane c.track ~top_level:root;
        }
      in
      ignore (track_of into c.track);
      into.completed <- c :: into.completed;
      into.completed_count <- into.completed_count + 1;
      match parent with
      | Some p when root ->
          Hashtbl.replace into.links c.id ();
          (* the dispatching domain was inside the open parent while the
             job ran, so the job's time is not the parent's own *)
          p.s_self_us <- p.s_self_us -. c.dur_us
      | Some _ | None -> ())
    (completed_spans from);
  Hashtbl.iter
    (fun id () -> Hashtbl.replace into.links (id + offset) ())
    from.links;
  (* instants keep their host time and land on the bare lane track *)
  if from.instants <> [] then begin
    let lane_tr =
      track_of into (lane_track ~lane default_track ~top_level:true)
    in
    List.iter
      (fun i -> into.instants <- { i with i_track = lane_tr } :: into.instants)
      (List.rev from.instants)
  end

(* --- Chrome trace_event export --- *)

let sim_args sim_start_ns sim_dur_ns =
  (match sim_start_ns with
  | Some ns -> [ ("sim_ns", Json.Int ns) ]
  | None -> [])
  @
  match sim_dur_ns with
  | Some ns -> [ ("sim_dur_ns", Json.Int ns) ]
  | None -> []

let to_chrome_json t =
  let rel us = us -. t.epoch_us in
  let id_args (c : completed) =
    ("span_id", Json.Int c.id)
    ::
    (match c.parent with
    | Some p -> [ ("parent_span_id", Json.Int p) ]
    | None -> [])
  in
  let span_event (c : completed) =
    Json.Obj
      [
        ("name", Json.Str c.name);
        ("cat", Json.Str c.cat);
        ("ph", Json.Str "X");
        ("pid", Json.Int 1);
        ("tid", Json.Int (track_of t c.track).tid);
        ("ts", Json.Float (rel c.start_us));
        ("dur", Json.Float c.dur_us);
        ( "args",
          Json.Obj (id_args c @ sim_args c.sim_start_ns c.sim_dur_ns @ c.args)
        );
      ]
  in
  let instant_event (i : instant) =
    Json.Obj
      [
        ("name", Json.Str i.i_name);
        ("cat", Json.Str (Severity.to_string i.i_severity));
        ("ph", Json.Str "i");
        ("s", Json.Str "t");
        ("pid", Json.Int 1);
        ("tid", Json.Int i.i_track.tid);
        ("ts", Json.Float (rel i.i_ts_us));
        ("args", Json.Obj (sim_args i.i_sim_ns None @ i.i_args));
      ]
  in
  (* the [absorb] links render as flow arrows dispatch → job root *)
  let by_id = Hashtbl.create 64 in
  List.iter (fun (c : completed) -> Hashtbl.replace by_id c.id c) t.completed;
  let flow_events (c : completed) =
    match Option.bind c.parent (Hashtbl.find_opt by_id) with
    | Some pc when Hashtbl.mem t.links c.id ->
        let arrow ph extra ts track =
          Json.Obj
            ([
               ("name", Json.Str "dispatch");
               ("cat", Json.Str "par");
               ("ph", Json.Str ph);
               ("id", Json.Int c.id);
               ("pid", Json.Int 1);
               ("tid", Json.Int (track_of t track).tid);
               ("ts", Json.Float (rel ts));
             ]
            @ extra)
        in
        [
          arrow "s" [] (pc.start_us +. (pc.dur_us /. 2.)) pc.track;
          arrow "f" [ ("bp", Json.Str "e") ] c.start_us c.track;
        ]
    | _ -> []
  in
  let thread_name tr =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int tr.tid);
        ("args", Json.Obj [ ("name", Json.Str tr.label) ]);
      ]
  in
  let tracks =
    Hashtbl.fold (fun _ tr acc -> tr :: acc) t.tracks []
    |> List.sort (fun a b -> Int.compare a.tid b.tid)
  in
  let spans = completed_spans t in
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ns");
         ( "traceEvents",
           Json.List
             (List.map thread_name tracks
             @ List.map span_event spans
             @ List.concat_map flow_events spans
             @ List.map instant_event (List.rev t.instants)) );
       ])
