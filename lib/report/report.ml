(* The unified verification report.

   [assemble] runs everything the methodology prescribes for one workload
   — the four-level flow, the static lints, the fault campaign — under a
   single governor tree with a ledger attached, with telemetry on, and
   snapshots what the run left behind (span profile, merged counters and
   histograms, trace summary, budget waterfall) into one record that
   renders as JSON or markdown.

   Determinism contract: everything in the rendered forms is either
   derived from simulated time / logical spend (byte-identical at any
   pool width and across runs) or is host timing.  Host timing follows
   one naming convention so [~timings:false] can zero it mechanically:

   - counters suffixed [_us] hold host microseconds — zeroed (key kept);
   - histograms suffixed [_ns] hold simulated time — reported in full;
   - histograms suffixed [_us] hold host time — count kept, stats zeroed;
   - gauges are ratios over host time — omitted from the report;
   - span wall/self times are host time — zeroed, counts kept.

   With [~timings:false] the whole document is therefore md5-comparable
   across [--jobs] widths, while the counts still include every
   worker-lane contribution (the telemetry-buffer merge). *)

module Obs = Symbad_obs.Obs
module Tracer = Symbad_obs.Tracer
module Metrics = Symbad_obs.Metrics
module Histogram = Symbad_obs.Histogram
module Json = Symbad_obs.Json
module Gov = Symbad_gov.Gov
module Budget = Symbad_gov.Budget
module Ledger = Symbad_gov.Ledger
module Lint = Symbad_lint.Lint
module Campaign = Symbad_resil.Campaign
module Recovery = Symbad_resil.Recovery
open Symbad_core

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
  workload : Face_app.workload;
  flow : Flow.t;
  lint_reports : Lint.report list;
  lint : Lint.report;  (** the reports merged *)
  faults : Campaign.report option;
  ledger : Ledger.t;
  gov_conflicts : int;  (** root governor spend, = ledger sums *)
  gov_patterns : int;
  profile : profile_row list;  (** unordered; rendering sorts *)
  counters : (string * int) list;  (** name-sorted *)
  histograms : (string * hist_row) list;  (** name-sorted *)
  span_total : int;
  spans_by_cat : (string * int) list;  (** cat-sorted *)
  dropped : int;
  all_passed : bool;
}

(* --- assembly --------------------------------------------------------- *)

(* The lintable corpus: the level-4 RTL modules and the recovery
   controller, each with its properties (property cones keep
   verification-only registers live, so lint agrees with the engines).
   The instrumented reconfiguration software is not part of it: the
   flow's own level-3 verification already covers the program, and
   re-deriving it would mean running levels 1-3 a second time. *)
let lint_corpus ?pool ?gov ?rules ?(escalate = false) ?only () =
  let run nl properties =
    let properties = Symbad_mc.Prop.pairs properties in
    let r = Lint.run_netlist ?pool ?gov ?rules ~properties nl in
    if escalate then Lint.escalate ?pool ?gov ~properties nl r else r
  in
  let rtl () =
    List.map
      (fun (m : Level4.rtl_module) ->
        run m.Level4.netlist m.Level4.properties)
      (Level4.modules ())
  in
  let recovery () =
    let nl = Recovery.netlist () in
    [ run nl (Recovery.properties nl) ]
  in
  match only with
  | Some `Rtl -> rtl ()
  | Some `Recovery -> recovery ()
  | None ->
      let rtl = rtl () in
      rtl @ recovery ()

let profile_of_spans spans =
  (* self time = inclusive minus direct children, via one parent pass *)
  let child_sum : (int, float) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (s : Tracer.completed) ->
      match s.parent with
      | None -> ()
      | Some p ->
          let cur = Option.value ~default:0. (Hashtbl.find_opt child_sum p) in
          Hashtbl.replace child_sum p (cur +. s.dur_us))
    spans;
  let rows : (string * string, profile_row) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Tracer.completed) ->
      let children =
        Option.value ~default:0. (Hashtbl.find_opt child_sum s.id)
      in
      let self = Float.max 0. (s.dur_us -. children) in
      let key = (s.cat, s.name) in
      let prev =
        match Hashtbl.find_opt rows key with
        | Some r -> r
        | None ->
            { cat = s.cat; name = s.name; count = 0; wall_us = 0.; self_us = 0. }
      in
      Hashtbl.replace rows key
        {
          prev with
          count = prev.count + 1;
          wall_us = prev.wall_us +. s.dur_us;
          self_us = prev.self_us +. self;
        })
    spans;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []

let by_cat spans =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Tracer.completed) ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl s.cat) in
      Hashtbl.replace tbl s.cat (cur + 1))
    spans;
  List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl [])

let assemble ?pool ?cache ?(seed = 1) ?(workload = Face_app.default_workload)
    ?budget ?(faults = true) ?(trials_per_kind = 1) ?(escalate = false) () =
  let had = Obs.enabled () in
  Obs.reset ();
  Obs.set_enabled true;
  (* telemetry is left in place on exit (the CLI exports the trace from
     it); only the flag is restored for callers that had it off *)
  Fun.protect ~finally:(fun () -> if not had then Obs.set_enabled false)
  @@ fun () ->
  let ledger = Ledger.create () in
  let root =
    Gov.create ~label:"run" ~ledger
      (Option.value budget ~default:Budget.unlimited)
  in
  let flow =
    Flow.run ?pool ?cache ~seed ~workload ~escalate
      ~gov:(Gov.slice ~label:"flow" ~fraction:0.6 root)
      ()
  in
  let lint_reports =
    lint_corpus ?pool
      ~gov:(Gov.slice ~label:"lint" ~fraction:0.5 root)
      ~escalate ()
  in
  let lint = Lint.merge ~target:"all" lint_reports in
  let fault_report =
    if not faults then None
    else
      Some
        (Campaign.run ?pool
           ~gov:(Gov.slice ~label:"faults" ~fraction:1.0 root)
           ~trials_per_kind ~workload:Face_app.smoke_workload ~seed ())
  in
  (* snapshot the telemetry the run left behind *)
  let tracer = Obs.tracer () in
  let spans = Tracer.completed_spans tracer in
  let m = Obs.metrics () in
  (* [Metrics.names] is registration-ordered; sort so the report never
     depends on which instrument a run happened to touch first *)
  let metric_names = List.sort compare (Metrics.names m) in
  let counters =
    List.filter_map
      (fun n -> Option.map (fun v -> (n, v)) (Metrics.find_counter m n))
      metric_names
  in
  let histograms =
    List.filter_map
      (fun n ->
        Option.map
          (fun h ->
            ( n,
              {
                h_count = Histogram.count h;
                h_sum = Histogram.sum h;
                h_min = Histogram.min_value h;
                h_max = Histogram.max_value h;
              } ))
          (Metrics.find_histogram m n))
      metric_names
  in
  (* the trace-side budget waterfall: cumulative spend as counter tracks *)
  Ledger.counter_track ledger tracer;
  let all_passed =
    flow.Flow.all_passed
    && Lint.errors lint = 0
    &&
    match fault_report with
    | Some r -> r.Campaign.passed
    | None -> true
  in
  {
    seed;
    workload;
    flow;
    lint_reports;
    lint;
    faults = fault_report;
    ledger;
    gov_conflicts = Gov.spent_conflicts root;
    gov_patterns = Gov.spent_patterns root;
    profile = profile_of_spans spans;
    counters;
    histograms;
    span_total = List.length spans;
    spans_by_cat = by_cat spans;
    dropped = Obs.dropped_count ();
    all_passed;
  }

(* --- timing scrub ------------------------------------------------------ *)

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let host_counter n = has_suffix n "_us"
let host_histogram n = has_suffix n "_us"

let scrub_counter ~timings (n, v) = (n, if timings || not (host_counter n) then v else 0)

let scrub_hist ~timings (n, h) =
  if timings || not (host_histogram n) then (n, h)
  else (n, { h with h_sum = 0.; h_min = 0; h_max = 0 })

let sorted_profile ~timings rows =
  if timings then
    List.sort
      (fun a b ->
        match compare b.self_us a.self_us with
        | 0 -> compare (a.cat, a.name) (b.cat, b.name)
        | c -> c)
      rows
  else
    List.map (fun r -> { r with wall_us = 0.; self_us = 0. }) rows
    |> List.sort (fun a b ->
           match compare b.count a.count with
           | 0 -> compare (a.cat, a.name) (b.cat, b.name)
           | c -> c)

(* --- JSON -------------------------------------------------------------- *)

let workload_json (w : Face_app.workload) =
  Json.Obj
    [
      ("size", Json.Int w.Face_app.size);
      ("identities", Json.Int w.Face_app.identities);
      ("frames", Json.Int (List.length w.Face_app.frames));
    ]

let to_json ?(timings = true) t =
  let profile_json r =
    Json.Obj
      [
        ("cat", Json.Str r.cat);
        ("name", Json.Str r.name);
        ("count", Json.Int r.count);
        ("wall_us", Json.Float r.wall_us);
        ("self_us", Json.Float r.self_us);
      ]
  in
  let hist_json (n, h) =
    ( n,
      Json.Obj
        [
          ("count", Json.Int h.h_count);
          ("sum", Json.Float h.h_sum);
          ("min", Json.Int h.h_min);
          ("max", Json.Int h.h_max);
        ] )
  in
  let doc =
    Json.Obj
      [
        ("seed", Json.Int t.seed);
        ("workload", workload_json t.workload);
        ("all_passed", Json.Bool t.all_passed);
        ("flow", Json.parse_exn (Flow.to_json ~timings t.flow));
        ("lint", Lint.to_json t.lint);
        ( "faults",
          match t.faults with Some r -> Campaign.to_json r | None -> Json.Null
        );
        ("budget", Ledger.to_json ~timings t.ledger);
        ( "gov",
          Json.Obj
            [
              ("spent_conflicts", Json.Int t.gov_conflicts);
              ("spent_patterns", Json.Int t.gov_patterns);
              ("ledger_conflicts", Json.Int (Ledger.spent_conflicts t.ledger));
              ("ledger_patterns", Json.Int (Ledger.spent_patterns t.ledger));
            ] );
        ( "profile",
          Json.List (List.map profile_json (sorted_profile ~timings t.profile))
        );
        ( "counters",
          Json.Obj
            (List.map
               (fun (n, v) -> (n, Json.Int v))
               (List.map (scrub_counter ~timings) t.counters)) );
        ( "histograms",
          Json.Obj (List.map hist_json (List.map (scrub_hist ~timings) t.histograms))
        );
        ( "trace",
          Json.Obj
            [
              ("spans", Json.Int t.span_total);
              ( "by_cat",
                Json.Obj
                  (List.map (fun (c, n) -> (c, Json.Int n)) t.spans_by_cat) );
              ("dropped", Json.Int t.dropped);
            ] );
      ]
  in
  Json.to_string doc ^ "\n"

(* --- markdown ---------------------------------------------------------- *)

let outcome_cell (v : Verdict.t) =
  match v.Verdict.outcome with
  | Verdict.Coverage { hit; total } ->
      Printf.sprintf "coverage %d/%d" hit total
  | o -> Verdict.outcome_label o

let to_markdown ?(timings = true) t =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let w = t.workload in
  line "# Symbad verification report";
  line "";
  line "- workload: %d frames, %dx%d pixels, %d identities"
    (List.length w.Face_app.frames)
    w.Face_app.size w.Face_app.size w.Face_app.identities;
  line "- seed: %d" t.seed;
  line "- overall: %s" (if t.all_passed then "**PASS**" else "**FAIL**");
  line "";
  line "## Verdicts";
  line "";
  line "| level | check | verdict | passed | detail |";
  line "|------:|-------|---------|:------:|--------|";
  List.iter
    (fun (l : Flow.level_report) ->
      List.iter
        (fun (v : Verdict.t) ->
          line "| %d | %s | %s | %s | %s |" l.Flow.level v.Verdict.name
            (outcome_cell v)
            (if v.Verdict.passed then "yes" else "no")
            v.Verdict.detail)
        l.Flow.verifications)
    t.flow.Flow.levels;
  line "";
  line "## Lint";
  line "";
  line "| target | rules | errors | warnings | skipped rules |";
  line "|--------|------:|-------:|---------:|--------------:|";
  List.iter
    (fun (r : Lint.report) ->
      line "| %s | %d | %d | %d | %d |" r.Lint.target
        (List.length r.Lint.rules_run)
        (Lint.errors r) (Lint.warnings r)
        (List.length r.Lint.skipped_rules))
    t.lint_reports;
  line "";
  (match t.faults with
  | None -> ()
  | Some r ->
      line "## Fault campaign";
      line "";
      Buffer.add_string b (Campaign.to_markdown r);
      line "");
  line "## Budget waterfall";
  line "";
  line "- spent: %d conflicts, %d patterns (governor) / %d, %d (ledger)"
    t.gov_conflicts t.gov_patterns
    (Ledger.spent_conflicts t.ledger)
    (Ledger.spent_patterns t.ledger);
  line "";
  Buffer.add_string b (Ledger.to_markdown t.ledger);
  line "";
  line "## Profile";
  line "";
  line "| cat | span | count | wall ms | self ms |";
  line "|-----|------|------:|--------:|--------:|";
  List.iter
    (fun r ->
      line "| %s | %s | %d | %.3f | %.3f |" r.cat r.name r.count
        (r.wall_us /. 1e3) (r.self_us /. 1e3))
    (sorted_profile ~timings t.profile);
  line "";
  line "## Counters";
  line "";
  line "| counter | value |";
  line "|---------|------:|";
  List.iter
    (fun (n, v) -> line "| %s | %d |" n v)
    (List.map (scrub_counter ~timings) t.counters);
  line "";
  line "## Histograms";
  line "";
  line "| histogram | count | sum | min | max |";
  line "|-----------|------:|----:|----:|----:|";
  List.iter
    (fun (n, h) ->
      line "| %s | %d | %.0f | %d | %d |" n h.h_count h.h_sum h.h_min h.h_max)
    (List.map (scrub_hist ~timings) t.histograms);
  line "";
  line "## Trace";
  line "";
  line "- %d spans (%s), %d dropped emissions" t.span_total
    (String.concat ", "
       (List.map (fun (c, n) -> Printf.sprintf "%s: %d" c n) t.spans_by_cat))
    t.dropped;
  Buffer.contents b
