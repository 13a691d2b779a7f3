(* The registry of committed bench baselines.  Each BENCH_*.json file is
   defined here once: its rows, how each row is measured, and which of
   its fields `symbad bench --check` holds fresh runs to.  The record
   modes of bench/main.exe and the checker both walk this one list. *)

module Json = Symbad_obs.Json
module Par = Symbad_par.Par
module Budget = Symbad_gov.Budget
module Cache = Symbad_cache.Cache
module Campaign = Symbad_resil.Campaign
module Lint = Symbad_lint.Lint
open Symbad_core

(* Paths run from the file's root. *)
type check =
  | Exact of string list  (* a fresh run reproduces the committed value *)
  | Wall of string list  (* fresh host seconds within tolerance x committed *)
  | Pinned of string list * Json.t  (* the committed value itself *)

type row = {
  measure : Format.formatter -> (string * Json.t) list;
      (* runs it, narrating to the formatter; returns top-level fields *)
  quick : (Format.formatter -> (string * Json.t) list) option;
      (* a cheaper run the checker uses instead; it reproduces every
         [Exact] field *)
  checks : check list;
  slow : bool;  (* fresh checks only under --full *)
}

type t = { file : string; mode : string; title : string; rows : row list }

let file e = e.file

(* "BENCH_par.json" -> "par" *)
let name e = String.sub e.file 6 (String.length e.file - 11)
let mode e = e.mode

let row ?quick ?(slow = false) ?(checks = []) measure =
  { measure; quick; checks; slow }

let wall_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

(* The case study at its default scale, as levels 1-3 refine it. *)
let case_study =
  lazy
    (let graph = Face_app.graph Face_app.default_workload in
     let profile = (Level1.run graph).Level1.profile in
     let mapping2 = Face_app.level2_mapping ~profile graph in
     ( graph,
       profile,
       Mapping.refine_to_fpga mapping2 Face_app.level3_refinement ))

(* --- PAR: jobs=1 vs jobs=4 wall clock, results cross-checked --------- *)

let par =
  let speedup ?(fresh = false) name run =
    let identical = [ name; "identical" ] in
    row ~slow:true
      ~checks:
        (Pinned (identical, Json.Bool true)
        :: (if fresh then [ Exact identical ] else []))
      (fun ppf ->
        let seq, t1 = wall_time (fun () -> Par.with_pool ~jobs:1 run) in
        let par, t4 = wall_time (fun () -> Par.with_pool ~jobs:4 run) in
        Format.fprintf ppf
          "%-28s jobs=1 %7.2fs   jobs=4 %7.2fs   speedup %.2fx   %s@." name t1
          t4 (t1 /. t4)
          (if seq = par then "identical results" else "RESULTS DIFFER");
        [
          ( name,
            Json.Obj
              [
                ("seconds_jobs1", Json.Float t1);
                ("seconds_jobs4", Json.Float t4);
                ("speedup", Json.Float (t1 /. t4));
                ("identical", Json.Bool (seq = par));
              ] );
        ])
  in
  let host_cores ppf =
    let cores = Domain.recommended_domain_count () in
    Format.fprintf ppf "host cores: %d%s@." cores
      (if cores < 4 then
         " (jobs=4 oversubscribes; expect overhead, not speedup — the \
          identity check is the meaningful result here)"
       else "");
    [ ("host_cores", Json.Int cores) ]
  in
  let fifo = Symbad_hdl.Rtl_lib.fifo_ctrl ~addr_width:2 () in
  {
    file = "BENCH_par.json";
    mode = "par_speedup";
    title = "parallel verification speedup (wall clock, jobs=1 vs jobs=4)";
    rows =
      [
        row host_cores;
        (* one SAT job per fault: the flagship fan-out, re-run fresh *)
        speedup ~fresh:true "pcc_fifo_refined_plan" (fun pool ->
            Symbad_pcc.Pcc.run ~pool ~depth:8 fifo
              (snd (Level4.fifo_property_plans fifo)));
        (* the whole level-4 portfolio: MC windows + per-module PCC *)
        speedup "level4_rtl_verification" (fun pool -> Level4.run ~pool ());
        (* the architecture-exploration sweep *)
        speedup "explore_hw_set_sweep" (fun pool ->
            let graph, profile, _ = Lazy.force case_study in
            Explore.sweep_hw_sets ~pool ~task_area:Level3.default_task_area
              ~profile ~pinned_sw:Face_app.pinned_sw ~max_hw:6 graph);
      ];
  }

(* --- INC: level 4 cold vs warm against a scratch verdict cache ------- *)

let inc =
  let replay verify ppf =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "symbad_bench_inc_%d" (Unix.getpid ()))
    in
    rm_rf dir;
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let cache = Cache.create ~dir () in
    let cold, cold_s = wall_time (fun () -> verify cache) in
    let warm, warm_s = wall_time (fun () -> verify cache) in
    (* warm must reproduce the cold verdicts, modulo the cached marker
       and host timing *)
    let norm =
      List.map (fun (m : Level4.module_report) ->
          ( m.Level4.module_name,
            List.map
              (fun v -> { v with Verdict.cached = false; host_seconds = 0. })
              (Level4.module_verdicts m) ))
    in
    let identical = norm cold = norm warm in
    let all_cached = List.for_all (fun m -> m.Level4.cached) warm in
    let speedup = cold_s /. Float.max warm_s 1e-9 in
    Format.fprintf ppf
      "level4 cold %7.2fs (%d stored)   warm %7.2fs (%d hits)   speedup \
       %.0fx   %s%s@."
      cold_s (Cache.stores cache) warm_s (Cache.hits cache) speedup
      (if all_cached then "all cached" else "NOT ALL CACHED")
      (if identical then ", identical verdicts" else ", VERDICTS DIFFER");
    [
      ( "level4_cold",
        Json.Obj
          [
            ("seconds", Json.Float cold_s);
            ("stores", Json.Int (Cache.stores cache));
          ] );
      ( "level4_warm",
        Json.Obj
          [
            ("seconds", Json.Float warm_s);
            ("hits", Json.Int (Cache.hits cache));
            ("all_cached", Json.Bool all_cached);
            ("identical", Json.Bool identical);
          ] );
      ("speedup_warm", Json.Float speedup);
    ]
  in
  let flags =
    [ [ "level4_warm"; "all_cached" ]; [ "level4_warm"; "identical" ] ]
  in
  {
    file = "BENCH_inc.json";
    mode = "inc";
    title = "incremental verification: cold vs warm verdict cache (level 4)";
    rows =
      [
        row
          (* the checker replays one module, not the whole portfolio *)
          ~quick:
            (replay (fun cache ->
                 [ Level4.verify_module ~cache (List.hd (Level4.modules ())) ]))
          ~checks:
            (List.map (fun p -> Pinned (p, Json.Bool true)) flags
            @ List.map (fun p -> Exact p) flags)
          (replay (fun cache -> (Level4.run ~cache ()).Level4.modules));
      ];
  }

(* --- GOV: the smoke flow under shrinking budgets ---------------------- *)

let verdict_mix (report : Flow.t) =
  List.fold_left
    (fun (p, f, i) (l : Flow.level_report) ->
      List.fold_left
        (fun (p, f, i) (v : Verdict.t) ->
          match v.Verdict.outcome with
          | Verdict.Inconclusive _ -> (p, f, i + 1)
          | _ when v.Verdict.passed -> (p + 1, f, i)
          | _ -> (p, f + 1, i))
        (p, f, i) l.Flow.verifications)
    (0, 0, 0) report.Flow.levels

let gov =
  (* budgets are built lazily: Budget.make anchors ~deadline_s to an
     absolute instant, so a deadline budget is created just before its
     run *)
  let budgeted ?slow ?(checked = true) label budget_of =
    let at field = [ label; field ] in
    row ?slow
      ~checks:
        (if checked then
           [
             Exact (at "passed");
             Exact (at "failed");
             Exact (at "inconclusive");
             Wall (at "seconds");
           ]
         else [])
      (fun ppf ->
        let budget = budget_of () in
        let report, secs =
          wall_time (fun () ->
              Flow.run ~workload:Face_app.smoke_workload ?budget ())
        in
        let passed, failed, inconclusive = verdict_mix report in
        Format.fprintf ppf
          "%-26s %8.2fs   passed %2d   failed %2d   inconclusive %2d@." label
          secs passed failed inconclusive;
        [
          ( label,
            Json.Obj
              [
                ("seconds", Json.Float secs);
                ("passed", Json.Int passed);
                ("failed", Json.Int failed);
                ("inconclusive", Json.Int inconclusive);
              ] );
        ])
  in
  let logical n () = Some (Budget.make ~conflicts:n ~patterns:n ()) in
  let deadline s () = Some (Budget.make ~deadline_s:s ()) in
  {
    file = "BENCH_gov.json";
    mode = "gov_deadline";
    title = "graceful degradation under deadline / budget pressure";
    rows =
      [
        budgeted ~slow:true "unlimited" (fun () -> None);
        (* logical allowances: deterministic degradation points *)
        budgeted ~slow:true "conflicts+patterns 100k" (logical 100_000);
        budgeted ~slow:true "conflicts+patterns 10k" (logical 10_000);
        budgeted "conflicts+patterns 1k" (logical 1_000);
        budgeted "conflicts+patterns 0" (logical 0);
        (* wall-clock deadlines are best-effort: recorded, never checked *)
        budgeted ~checked:false "deadline 5s" (deadline 5.0);
        budgeted ~checked:false "deadline 0.5s" (deadline 0.5);
        budgeted ~checked:false "deadline 0s (instant)" (deadline 0.0);
      ];
  }

(* --- RESIL and TMR: the seed-1 fault campaign, simulated time only ---- *)

let campaign mode =
  Par.with_pool (fun pool -> Campaign.run ~pool ~mode ~seed:1 ())

let resil =
  {
    file = "BENCH_resil.json";
    mode = "resil";
    title = "fault-injection campaign (smoke workload, seed 1)";
    rows =
      [
        row
          ~checks:[ Exact []; Pinned ([ "passed" ], Json.Bool true) ]
          (fun ppf ->
            let report = campaign Campaign.Scrub in
            Format.pp_print_string ppf (Campaign.to_markdown report);
            match Campaign.to_json report with
            | Json.Obj fields -> fields
            | _ -> invalid_arg "Baseline.resil: report is not an object");
      ];
  }

let tmr =
  let mode m =
    [
      Exact [ m; "report" ];
      Pinned ([ m; "report"; "passed" ], Json.Bool true);
      Wall [ m; "seconds" ];
    ]
  in
  {
    file = "BENCH_tmr.json";
    mode = "tmr";
    title = "masked (TMR + bus ECC) vs scrubbing-only, seed 1";
    rows =
      [
        row
          ~checks:(mode "scrub" @ mode "tmr" @ [ Exact [ "comparison" ] ])
          (fun ppf ->
            let timed mode = wall_time (fun () -> campaign mode) in
            let scrub, scrub_s = timed Campaign.Scrub in
            let tmr, tmr_s = timed Campaign.Tmr in
            Format.pp_print_string ppf
              (Campaign.compare_modes_markdown ~scrub ~tmr);
            let run report secs =
              Json.Obj
                [
                  ("report", Campaign.to_json report);
                  ("seconds", Json.Float secs);
                ]
            in
            [
              ("scrub", run scrub scrub_s);
              ("tmr", run tmr tmr_s);
              ("comparison", Campaign.compare_modes ~scrub ~tmr);
            ]);
      ];
  }

(* --- LINT: per-target diagnostic counts and rule throughput ----------- *)

let lint =
  let targets ppf =
    let graph, _, mapping3 = Lazy.force case_study in
    let l3 = Level3.run graph mapping3 in
    let reports =
      Symbad_report.Report.lint_corpus ()
      @ [
          Lint.run_program ~name:"instrumented software" l3.Level3.config_info
            l3.Level3.instrumented_sw;
          Lint.run_netlist Symbad_lint.Seeded.demo;
        ]
    in
    let counts (r : Lint.report) =
      let rules = List.length r.Lint.rules_run in
      Format.fprintf ppf "%-24s %d rules, %d errors, %d warnings@."
        r.Lint.target rules (Lint.errors r) (Lint.warnings r);
      ( r.Lint.target,
        Json.Obj
          [
            ("rules", Json.Int rules);
            ("errors", Json.Int (Lint.errors r));
            ("warnings", Json.Int (Lint.warnings r));
          ] )
    in
    [ ("targets", Json.Obj (List.map counts reports)) ]
  in
  (* every netlist rule over the largest synthesised netlist in the
     repo, repeated for a stable figure *)
  let throughput ppf =
    let spec = Wrapper_gen.make_spec ~data_width:32 ~depth:2 () in
    let nl = Wrapper_gen.synthesize spec in
    let properties = Symbad_mc.Prop.pairs (Wrapper_gen.checkers spec nl) in
    let repeats = 50 in
    let (), secs =
      wall_time (fun () ->
          for _ = 1 to repeats do
            ignore (Lint.run_netlist ~properties nl)
          done)
    in
    let rules = List.length Lint.netlist_rule_ids * repeats in
    let name = Symbad_hdl.Netlist.name nl in
    let registers = List.length (Symbad_hdl.Netlist.registers nl) in
    let per_sec = float_of_int rules /. secs in
    Format.fprintf ppf
      "throughput: %d rule runs over %s (%d registers) in %.2fs = %.0f \
       rules/s@."
      rules name registers secs per_sec;
    [
      ( "throughput",
        Json.Obj
          [
            ("netlist", Json.Str name);
            ("registers", Json.Int registers);
            ("rule_runs", Json.Int rules);
            ("seconds", Json.Float secs);
            ("rules_per_second", Json.Float per_sec);
          ] );
    ]
  in
  let shape field = Exact [ "throughput"; field ] in
  {
    file = "BENCH_lint.json";
    mode = "lint";
    title = "static-analysis corpus counts and rule throughput";
    rows =
      [
        row ~checks:[ Exact [ "targets" ] ] targets;
        (* its seconds are too short to gate; its shape is exact *)
        row
          ~checks:[ shape "netlist"; shape "registers"; shape "rule_runs" ]
          throughput;
      ];
  }

let all = [ par; inc; gov; resil; tmr; lint ]
let of_mode m = List.find_opt (fun e -> String.equal e.mode m) all

(* --- walking an entry ------------------------------------------------ *)

let path_of = function Exact p | Wall p | Pinned (p, _) -> p
let checks e = List.concat_map (fun r -> r.checks) e.rows
let fields e = List.map path_of (checks e)

let find path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let label e c =
  let kind =
    match c with Exact _ -> "exact" | Wall _ -> "wall" | Pinned _ -> "committed"
  in
  let at = match path_of c with [] -> "" | p -> " " ^ String.concat "/" p in
  Printf.sprintf "%s%s (%s)" (name e) at kind

(* [None] when [c] holds between the [committed] document and the
   [fresh] one ([Pinned] reads only the former), else what is wrong. *)
let failure ~tolerance ~committed ~fresh c =
  let show j p = Option.fold ~none:"missing" ~some:Json.to_string (find p j) in
  let num j p = Option.bind (find p j) Json.to_number in
  match c with
  | Pinned (p, want) when find p committed = Some want -> None
  | Pinned (p, want) ->
      Some
        (Printf.sprintf "is %s, must be %s" (show committed p)
           (Json.to_string want))
  | Exact p -> (
      match (show committed p, show fresh p) with
      | was, now when String.equal was now -> None
      | was, now when String.length was + String.length now < 80 ->
          Some (Printf.sprintf "fresh %s, committed %s" now was)
      | _ -> Some "fresh output differs from the committed baseline")
  | Wall p -> (
      match (num committed p, num fresh p) with
      | Some c, Some f when c <= 0. || f <= c *. tolerance -> None
      | Some c, Some f ->
          Some (Printf.sprintf "%.2fs > %.2fs x%.1f" f c tolerance)
      | _ -> Some "seconds missing")

let record ?out e =
  let ppf = Format.std_formatter in
  Format.fprintf ppf "@.=== %s: %s ===@."
    (String.uppercase_ascii (name e))
    e.title;
  let doc = Json.Obj (List.concat_map (fun r -> r.measure ppf) e.rows) in
  let json = Json.to_string doc in
  (match out with
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (json ^ "\n"));
      Format.printf "baseline written to %s@." path
  | None -> Format.printf "%s@." json);
  (* what the checker will insist on must hold of the new baseline *)
  let broken =
    List.filter_map
      (fun c ->
        match c with
        | Pinned _ ->
            Option.map
              (fun d -> (label e c, d))
              (failure ~tolerance:1. ~committed:doc ~fresh:doc c)
        | Exact _ | Wall _ -> None)
      (checks e)
  in
  List.iter (fun (l, d) -> Format.printf "%s: %s@." l d) broken;
  broken = []

let load ~dir e =
  let path = Filename.concat dir e.file in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Error (Printf.sprintf "missing baseline %s" path)
  | s -> (
      match Json.parse (String.trim s) with
      | Error msg -> Error (Printf.sprintf "malformed baseline %s: %s" path msg)
      | Ok j -> (
          let readable = function
            | Wall p -> Option.bind (find p j) Json.to_number <> None
            | c -> find (path_of c) j <> None
          in
          match List.find_opt (fun c -> not (readable c)) (checks e) with
          | None -> Ok j
          | Some c ->
              Error
                (Printf.sprintf "malformed baseline %s: no readable field %s"
                   path
                   (String.concat "/" (path_of c)))))

type outcome = { label : string; failure : string option }

let silent = Format.make_formatter (fun _ _ _ -> ()) ignore

let check ~full ~tolerance e committed =
  List.concat_map
    (fun r ->
      let reruns =
        List.exists (function Pinned _ -> false | _ -> true) r.checks
      in
      let fresh =
        if reruns && (full || not r.slow) then
          Some (Json.Obj ((Option.value r.quick ~default:r.measure) silent))
        else None
      in
      List.filter_map
        (fun c ->
          match (c, fresh) with
          | (Exact _ | Wall _), None -> None
          | _ ->
              let fresh = Option.value fresh ~default:Json.Null in
              Some
                {
                  label = label e c;
                  failure = failure ~tolerance ~committed ~fresh c;
                })
        r.checks)
    e.rows
