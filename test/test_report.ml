(* Tests for the unified verification report: the md5 width-invariance
   acceptance property (the no-timings JSON and markdown renders are
   byte-identical at --jobs 1/2/4), the root waterfall row carrying the
   governor's spend, and that the JSON export parses back with every section
   present.  Runs under a small logical budget so each assemble is a
   sub-second governed run rather than the full unlimited flow. *)

open Symbad_obs
module Par = Symbad_par.Par
module Budget = Symbad_gov.Budget
module Report = Symbad_report.Report

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* the 2-frame / 32px / 6-identity smoke workload the CLI guards use *)
let workload = Symbad_core.Face_app.smoke_workload

let budget () = Budget.make ~conflicts:1_000 ~patterns:1_000 ()

let assemble ~jobs =
  Par.with_pool ~jobs (fun pool ->
      let r =
        Report.assemble ~pool ~seed:1 ~workload ~budget:(budget ())
          ~trials_per_kind:1 ()
      in
      (* assemble leaves telemetry populated for the CLI; the tests
         don't want it leaking into later suites *)
      Obs.reset ();
      Obs.set_enabled false;
      r)

let md5 s = Digest.to_hex (Digest.string s)

let report_md5_width_invariant () =
  let digests jobs =
    let r = assemble ~jobs in
    (md5 (Report.to_json ~timings:false r),
     md5 (Report.to_markdown ~timings:false r))
  in
  let j1, m1 = digests 1 in
  let j2, m2 = digests 2 in
  let j4, m4 = digests 4 in
  check_str "json md5 jobs=2 equals jobs=1" j1 j2;
  check_str "json md5 jobs=4 equals jobs=1" j1 j4;
  check_str "markdown md5 jobs=2 equals jobs=1" m1 m2;
  check_str "markdown md5 jobs=4 equals jobs=1" m1 m4

let waterfall_root_equals_gov_spend () =
  let r = assemble ~jobs:2 in
  check_bool "some spend recorded" true (r.Report.gov_conflicts > 0);
  let root = List.hd r.Report.waterfall in
  check_str "root row first" "run" root.Symbad_gov.Gov.label;
  check_int "conflicts: root row subtree equals gov spend"
    r.Report.gov_conflicts root.Symbad_gov.Gov.subtree_conflicts;
  check_int "patterns: root row subtree equals gov spend"
    r.Report.gov_patterns root.Symbad_gov.Gov.subtree_patterns;
  check_int "no telemetry dropped" 0 r.Report.dropped

let json_parses_back () =
  let r = assemble ~jobs:2 in
  let doc = Json.parse_exn (Report.to_json ~timings:false r) in
  let mem k =
    match Json.member k doc with
    | Some v -> v
    | None -> Alcotest.fail (k ^ " missing from report JSON")
  in
  List.iter
    (fun k -> ignore (mem k))
    [
      "seed"; "workload"; "all_passed"; "flow"; "lint"; "faults"; "budget";
      "gov"; "profile"; "counters"; "histograms"; "trace";
    ];
  let gov = mem "gov" in
  let num k =
    match Option.bind (Json.member k gov) Json.to_number with
    | Some v -> int_of_float v
    | None -> Alcotest.fail (k ^ " missing from gov section")
  in
  check_int "json gov spend equals record" r.Report.gov_conflicts
    (num "spent_conflicts");
  let root_subtree =
    match Option.bind (Json.member "budget" doc) (Json.member "waterfall") with
    | Some (Json.List (row :: _)) -> (
        match Option.bind (Json.member "subtree_conflicts" row) Json.to_number with
        | Some v -> int_of_float v
        | None -> Alcotest.fail "root row has no subtree_conflicts")
    | _ -> Alcotest.fail "budget.waterfall missing or empty"
  in
  check_int "json root row subtree equals gov spend" r.Report.gov_conflicts
    root_subtree;
  (* worker-lane totals present: the merged counters made it out *)
  check_bool "counters section non-empty" true (r.Report.counters <> []);
  check_bool "spans recorded" true (r.Report.span_total > 0)

let markdown_has_sections () =
  let r = assemble ~jobs:1 in
  let md = Report.to_markdown ~timings:false r in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "markdown contains %S" needle) true
        (let n = String.length needle and l = String.length md in
         let rec scan i =
           i + n <= l && (String.sub md i n = needle || scan (i + 1))
         in
         scan 0))
    [
      "# Symbad verification report"; "## Verdicts"; "## Lint";
      "## Budget waterfall"; "## Profile"; "## Counters"; "## Trace";
    ]

(* Self-times add up: every span nests under the span open when it
   began, so the profile's self-times (inclusive minus direct children)
   sum to the wall of the root spans, and level 4's Par fan-outs are its
   children instead of roots of their own. *)
let profile_self_times_add_up () =
  Par.with_pool ~jobs:1 (fun pool ->
      let r =
        Report.assemble ~pool ~seed:1 ~workload ~budget:(budget ())
          ~trials_per_kind:1 ()
      in
      let spans = Tracer.completed_spans (Obs.tracer ()) in
      Obs.reset ();
      Obs.set_enabled false;
      let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs in
      let self = sum (fun (row : Report.profile_row) -> row.self_us) r.Report.profile in
      let root_wall =
        sum
          (fun (s : Tracer.completed) -> s.dur_us)
          (List.filter (fun (s : Tracer.completed) -> s.parent = None) spans)
      in
      check_bool
        (Printf.sprintf "self-times %.0f us within 2%% of root wall %.0f us"
           self root_wall)
        true
        (Float.abs (self -. root_wall) <= 0.02 *. root_wall);
      let level4 =
        List.find (fun (s : Tracer.completed) -> s.name = "level4") spans
      in
      check_bool "level4 has child spans" true
        (List.exists
           (fun (s : Tracer.completed) -> s.parent = Some level4.id)
           spans))

let suite =
  [
    Alcotest.test_case "report md5 is pool-width invariant" `Slow
      report_md5_width_invariant;
    Alcotest.test_case "waterfall root equals gov spend" `Quick
      waterfall_root_equals_gov_spend;
    Alcotest.test_case "json parses back with every section" `Quick
      json_parses_back;
    Alcotest.test_case "markdown has every section" `Quick
      markdown_has_sections;
    Alcotest.test_case "profile self-times add up" `Quick
      profile_self_times_add_up;
  ]
