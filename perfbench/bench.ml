(* The Symbad performance benchmark.

   One process runs one workload:

     bench.exe --workload (flow_cold|flow_warm|campaign) --seed N
               --seconds S --trace (0|1) [--jobs N]

   flow_cold   Flow.run against a fresh, empty verdict cache each iteration
   flow_warm   Flow.run against a cache that set-up filled (every level-4
               module replays)
   campaign    Resil.Campaign.run in Scrub mode, then in Tmr mode

   The seed generates everything the program receives: the camera
   script (identity, pose pairs), the ATPG seed and the campaign's fault
   plan seed.  Every iteration's verdicts are checked against the known
   answers committed next to this file (known_answers.json).

   --trace 0 measures the end-to-end metrics: closed-loop iterations for
   --seconds, median wall time, set-up time and peak RSS.
   --trace 1 measures the per-layer metrics: it re-issues the public
   calls the workload is made of, one benchmark span around each, and
   (flow workloads only) switches on the program's own Obs telemetry for
   the logical counters.  Spans are kept in memory and written to
   .perfbench/ at the end.

   The last line of standard output is the JSON result; the lines above
   it are human-readable (samples, fail ratio, determinism rows, host
   probe).  An internal mode, --fill DIR, is the flow_warm set-up: it
   runs level 4 cold against DIR in a child process, so the warm
   process's peak RSS covers the warm workload only. *)

open Symbad_core
module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json
module Tracer = Symbad_obs.Tracer
module Metrics = Symbad_obs.Metrics
module Par = Symbad_par.Par
module Cache = Symbad_cache.Cache
module Campaign = Symbad_resil.Campaign
module Kernel = Symbad_sim.Kernel
module Trace = Symbad_sim.Trace
module Bus = Symbad_tlm.Bus
module Fpga = Symbad_fpga.Fpga
module Pipeline = Symbad_image.Pipeline
module Lint = Symbad_lint.Lint

let now = Unix.gettimeofday

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b > 0. then a /. b else 0.

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench: " ^ m); exit 2) fmt

(* ---- options ---------------------------------------------------------- *)

type workload = Flow_cold | Flow_warm | Campaign_both

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;  (** Par lanes: 2 for every workload; 1 checks width-invariance *)
  fill : string option;
}

let known_answers = Filename.concat "perfbench" "known_answers.json"

(* Scratch space inside the checkout: verdict caches and span dumps. *)
let out_dir = ".perfbench"

let workload_name = function
  | Flow_cold -> "flow_cold"
  | Flow_warm -> "flow_warm"
  | Campaign_both -> "campaign"

let parse_args () =
  let o =
    ref
      {
        workload = Flow_cold;
        seed = 1;
        seconds = 10.;
        trace = false;
        jobs = 2;
        fill = None;
      }
  in
  let int_of flag v =
    match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %s" flag v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        let w =
          match v with
          | "flow_cold" -> Flow_cold
          | "flow_warm" -> Flow_warm
          | "campaign" -> Campaign_both
          | _ -> die "unknown workload %s" v
        in
        o := { !o with workload = w };
        go rest
    | "--seed" :: v :: rest ->
        o := { !o with seed = int_of "--seed" v };
        go rest
    | "--seconds" :: v :: rest ->
        o := { !o with seconds = float_of_int (int_of "--seconds" v) };
        go rest
    | "--trace" :: v :: rest ->
        o := { !o with trace = int_of "--trace" v <> 0 };
        go rest
    | "--jobs" :: v :: rest ->
        o := { !o with jobs = max 1 (int_of "--jobs" v) };
        go rest
    | "--fill" :: v :: rest ->
        o := { !o with fill = Some v };
        go rest
    | a :: _ -> die "unexpected argument %s" a
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

(* ---- files ------------------------------------------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

let read_file p = In_channel.with_open_bin p In_channel.input_all

let write_file p s = Out_channel.with_open_bin p (fun oc -> output_string oc s)

(* ---- inputs generated from the seed ------------------------------------ *)

type inputs = {
  app : Face_app.workload;  (** the workload the program receives *)
  atpg_seed : int;
  campaign_seed : int;  (** draws the campaign's fault plan *)
}

(* The program's default workload shape (8 frames of 64 pixels, 20
   identities, as `symbad flow` and `symbad faults` run it); only the
   camera script and the seeds come from [seed]. *)
let inputs_of_seed seed =
  let st = Random.State.make [| 0x5b; seed |] in
  let w = Face_app.default_workload in
  let frames =
    List.map
      (fun _ ->
        let identity = Random.State.int st w.Face_app.identities in
        (identity, 1 + Random.State.int st 4))
      w.Face_app.frames
  in
  let atpg_seed = 1 + Random.State.int st 999_999 in
  let campaign_seed = 1 + Random.State.int st 999_999 in
  { app = { w with Face_app.frames }; atpg_seed; campaign_seed }

(* ---- known answers ----------------------------------------------------- *)

type expected_row = {
  level : int;
  check : string;
  outcome : string;
  detail : string option;
  coverage : (int * int) option;
}

type expected_cache = { hits : int; misses : int; stores : int }

type expected_mode = { mode : Campaign.mode; trials : int; masked : int }

type known = {
  modules : string list;
  rows : expected_row list;
  cold_cache : expected_cache;
  warm_cache : expected_cache;
  modes : expected_mode list;
}

let load_known path =
  let j =
    match Json.parse (read_file path) with
    | Ok j -> j
    | Error e -> die "%s: %s" path e
    | exception Sys_error e -> die "%s" e
  in
  let field name j =
    match Json.member name j with Some v -> v | None -> die "%s: missing %s" path name
  in
  let int name j =
    match Json.to_number (field name j) with
    | Some f -> int_of_float f
    | None -> die "%s: %s is not a number" path name
  in
  let str name j =
    match Json.to_str (field name j) with
    | Some s -> s
    | None -> die "%s: %s is not a string" path name
  in
  let list name j =
    match Json.to_list (field name j) with
    | Some l -> l
    | None -> die "%s: %s is not a list" path name
  in
  let flow = field "flow" j in
  let row r =
    {
      level = int "level" r;
      check = str "check" r;
      outcome = str "outcome" r;
      detail = Option.bind (Json.member "detail" r) Json.to_str;
      coverage =
        (match (Json.member "hit" r, Json.member "total" r) with
        | Some _, Some _ -> Some (int "hit" r, int "total" r)
        | _ -> None);
    }
  in
  let cache name =
    let c = field name (field "cache" flow) in
    { hits = int "hits" c; misses = int "misses" c; stores = int "stores" c }
  in
  let mode m =
    let name = str "mode" m in
    match Campaign.mode_of_string name with
    | Some mode -> { mode; trials = int "trials" m; masked = int "masked" m }
    | None -> die "%s: unknown campaign mode %s" path name
  in
  {
    modules = List.filter_map Json.to_str (list "modules" flow);
    rows = List.map row (list "rows" flow);
    cold_cache = cache "flow_cold";
    warm_cache = cache "flow_warm";
    modes = List.map mode (list "modes" (field "campaign" j));
  }

(* ---- correctness tally ------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let tally ~what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    prerr_endline ("bench: known-answer mismatch: " ^ what)
  end

let row_matches (e : expected_row) (level, (v : Verdict.t)) =
  level = e.level && v.Verdict.passed
  && String.equal v.Verdict.name e.check
  && String.equal (Verdict.outcome_label v.Verdict.outcome) e.outcome
  && Option.fold ~none:true ~some:(String.equal v.Verdict.detail) e.detail
  &&
  match (e.coverage, v.Verdict.outcome) with
  | None, _ -> true
  | Some (h, t), Verdict.Coverage { hit; total } -> h = hit && t = total
  | Some _, _ -> false

(* Every verdict row against its known answer, in table order; a missing
   or surplus row counts as a failure too. *)
let check_rows known rows =
  let rec go es rs =
    match (es, rs) with
    | [], [] -> ()
    | e :: es, r :: rs ->
        tally ~what:e.check (row_matches e r);
        go es rs
    | e :: es, [] ->
        tally ~what:(e.check ^ " (missing)") false;
        go es []
    | [], (_, (v : Verdict.t)) :: rs ->
        tally ~what:(v.Verdict.name ^ " (unexpected)") false;
        go [] rs
  in
  go known.rows rows

let check_cache (e : expected_cache) c =
  tally
    ~what:
      (Printf.sprintf "cache hits/misses/stores %d/%d/%d" (Cache.hits c)
         (Cache.misses c) (Cache.stores c))
    (Cache.hits c = e.hits && Cache.misses c = e.misses && Cache.stores c = e.stores)

let flow_rows (r : Flow.t) =
  List.concat_map
    (fun (l : Flow.level_report) ->
      List.map (fun v -> (l.Flow.level, v)) l.Flow.verifications)
    r.Flow.levels

(* A level-4 row with its cache marker stripped, rendered wall-clock
   free: what a warm replay must reproduce byte for byte. *)
let stripped (v : Verdict.t) =
  Json.to_string
    (Verdict.to_json ~timings:false { v with Verdict.cached = false; host_seconds = 0. })

let check_campaign (e : expected_mode) (r : Campaign.report) =
  let name = Campaign.mode_to_string e.mode in
  tally ~what:(name ^ " control") r.Campaign.control_ok;
  tally
    ~what:(Printf.sprintf "%s: %d trials" name (List.length r.Campaign.outcomes))
    (List.length r.Campaign.outcomes = e.trials && r.Campaign.skipped = 0);
  tally
    ~what:(Printf.sprintf "%s: %d masked trials" name r.Campaign.masked_trials)
    (r.Campaign.masked_trials = e.masked);
  List.iter
    (fun (o : Campaign.outcome) ->
      tally
        ~what:(Printf.sprintf "%s trial %d (%s)" name o.Campaign.trial o.Campaign.kind)
        (Campaign.trial_passed o))
    r.Campaign.outcomes

(* ---- the workloads' iterations ------------------------------------------ *)

let cache_serial = ref 0

let fresh_cache_dir () =
  incr cache_serial;
  Filename.concat out_dir
    (Printf.sprintf "cache-%d-%d" (Unix.getpid ()) !cache_serial)

let flow_once ~pool ~cache inputs =
  Flow.run ~pool ~cache ~seed:inputs.atpg_seed ~workload:inputs.app ()

(* One flow iteration with its checks.  Cold: a fresh directory, removed
   afterwards.  Warm: a new handle on the filled directory, so the
   hit/miss tallies are this iteration's. *)
let flow_iteration ~pool ~known ~warm inputs =
  let dir, expected =
    match warm with
    | Some (dir, _) -> (dir, known.warm_cache)
    | None -> (fresh_cache_dir (), known.cold_cache)
  in
  let cache = Cache.create ~dir () in
  let rows = flow_rows (flow_once ~pool ~cache inputs) in
  check_rows known rows;
  check_cache expected cache;
  (match warm with
  | Some (_, cold_rows) ->
      let l4 = List.filter_map (fun (l, v) -> if l = 4 then Some (stripped v) else None) rows in
      tally ~what:"warm level-4 rows differ from the cold fill" (l4 = cold_rows)
  | None -> rm_rf dir)

let campaign_once ~pool inputs mode =
  Campaign.run ~pool ~mode ~workload:inputs.app
    ~seed:inputs.campaign_seed ()

let campaign_iteration ~pool ~known ?(call = fun _ f -> f ()) inputs =
  List.map
    (fun (e : expected_mode) ->
      let name = Campaign.mode_to_string e.mode in
      let r = call ("resil." ^ name) (fun () -> campaign_once ~pool inputs e.mode) in
      check_campaign e r;
      (e.mode, r))
    known.modes

(* ---- set-up ------------------------------------------------------------- *)

(* The repeatable part of set-up: load the known answers, generate the
   inputs, materialise them (the task graph with its enrolled database,
   and the C reference model's trace of every generated frame), and
   check that the program's RTL module list is the one the known
   answers describe. *)
let prepare o =
  let known = load_known known_answers in
  let inputs = inputs_of_seed o.seed in
  let graph = Face_app.graph inputs.app in
  let reference = Face_app.reference_trace inputs.app in
  if Task_graph.channels graph = [] || Trace.sources reference = [] then
    die "the generated workload does not materialise";
  let names = List.map (fun (m : Level4.rtl_module) -> m.Level4.module_name) (Level4.modules ()) in
  if names <> known.modules then
    die "level-4 modules [%s] differ from the known answers" (String.concat " " names);
  (known, inputs)

let fill_rows_file dir = dir ^ ".rows.json"

(* --fill DIR: level 4 cold against the cache DIR (exactly what the warm
   flow's Level4.run reads back), then its rows, stripped, for the warm
   iterations to compare against. *)
let fill_main o dir =
  Par.with_pool ~jobs:o.jobs @@ fun pool ->
  let cache = Cache.create ~dir () in
  let r = Level4.run ~pool ~cache () in
  let by f = List.map (fun m -> stripped (f m)) r.Level4.modules in
  let rows =
    by (fun m -> m.Level4.lint_verdict)
    @ by (fun m -> m.Level4.mc_verdict)
    @ by (fun m -> m.Level4.pcc_verdict)
  in
  write_file (fill_rows_file dir)
    (Json.to_string (Json.List (List.map (fun s -> Json.Str s) rows)));
  if Cache.stores cache = List.length r.Level4.modules then 0 else 1

let run_fill o dir =
  let args =
    [| Sys.executable_name; "--fill"; dir; "--jobs"; string_of_int o.jobs |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 ->
      (match Json.parse (read_file (fill_rows_file dir)) with
      | Ok (Json.List rows) -> List.filter_map Json.to_str rows
      | _ -> die "unreadable cache-fill rows")
  | _ -> die "the cache fill failed"

let setup_repeats = 5

(* Set-up, timed: the repeatable part [setup_repeats] times (median),
   plus — for flow_warm — the one cold fill of the verdict cache. *)
let setup o =
  let times = ref [] and result = ref None in
  for _ = 1 to setup_repeats do
    let t0 = now () in
    result := Some (prepare o);
    times := (now () -. t0) :: !times
  done;
  let known, inputs = Option.get !result in
  let warm, fill_s =
    match o.workload with
    | Flow_warm ->
        let dir = fresh_cache_dir () in
        let t0 = now () in
        let rows = run_fill o dir in
        (Some (dir, rows), now () -. t0)
    | Flow_cold | Campaign_both -> (None, 0.)
  in
  (known, inputs, warm, median !times +. fill_s)

(* ---- host-drift probe ---------------------------------------------------- *)

(* A fixed pure-OCaml loop: its time tracks the host's speed at the
   moment of the run.  It chases pointers through a 16 MB array, so it
   feels memory contention from other tenants as well as CPU steal.
   Reported next to the metrics, never used to scale them. *)
let probe () =
  let n = 1 lsl 21 in
  let next = Array.init n (fun i -> ((i * 1_103_515_245) + 12_345) land (n - 1)) in
  let t0 = now () in
  let x = ref 0 in
  for _ = 1 to 500_000 do
    x := next.(!x)
  done;
  ignore (Sys.opaque_identity !x);
  now () -. t0

let loadavg () =
  match String.split_on_char ' ' (read_file "/proc/loadavg") with
  | a :: _ -> Option.value ~default:0. (float_of_string_opt a)
  | [] -> 0.
  | exception Sys_error _ -> 0.

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> acc)
        0. lines
  | exception Sys_error _ -> 0.

(* ---- untraced run: end-to-end metrics ------------------------------------ *)

(* An iteration that raises counts as a failed known answer. *)
let guarded f =
  try f () with e -> tally ~what:("raised " ^ Printexc.to_string e) false

(* Closed loop: the next iteration starts when the previous one ends,
   until --seconds have elapsed (at least one iteration). *)
let untraced o ~pool ~known ~inputs ~warm =
  let iteration () =
    match o.workload with
    | Flow_cold | Flow_warm -> flow_iteration ~pool ~known ~warm inputs
    | Campaign_both -> ignore (campaign_iteration ~pool ~known inputs)
  in
  let start = now () in
  let walls = ref [] in
  while !walls = [] || now () -. start < o.seconds do
    let t0 = now () in
    guarded iteration;
    walls := (now () -. t0) :: !walls
  done;
  !walls

(* ---- traced run: per-layer metrics --------------------------------------- *)

(* The benchmark's own spans, one per public call, kept in memory. *)
type span = { name : string; start : float; dur : float }

let spans : span list ref = ref []

(* The traced run's figures by per-layer metric name: seconds spent in
   the timed calls, and counts from stats records and telemetry. *)
let figures : (string, float) Hashtbl.t = Hashtbl.create 64

let get name = Option.value ~default:0. (Hashtbl.find_opt figures name)
let add name v = Hashtbl.replace figures name (get name +. v)
let addi name n = add name (float_of_int n)

(* Seconds inside [call]s since the last reset: the accounted part of
   the traced iteration. *)
let timed_s = ref 0.

let call name f =
  let t0 = now () in
  let r = f () in
  let dur = now () -. t0 in
  spans := { name; start = t0; dur } :: !spans;
  add name dur;
  timed_s := !timed_s +. dur;
  r

let counter name =
  if Obs.enabled () then
    Option.value ~default:0 (Metrics.find_counter (Obs.metrics ()) name)
  else 0

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* The program's telemetry counters the traced flow runs read, and that
   the re-issued calls must reproduce exactly. *)
let flow_counters =
  [
    "sat.solves"; "sat.conflicts"; "sat.propagations"; "sat.decisions"; "mc.sessions";
    "lint.rules_run"; "sim.events_dispatched"; "bus.transactions";
  ]

let completed () = Tracer.completed_spans (Obs.tracer ())

let spans_named name =
  List.filter (fun (s : Tracer.completed) -> String.equal s.Tracer.name name) (completed ())

let seconds_of spans =
  List.fold_left (fun acc (s : Tracer.completed) -> acc +. (s.Tracer.dur_us /. 1e6)) 0. spans

(* Par job-root spans: category "par" on a top-level lane track. *)
let par_job_spans () =
  List.filter
    (fun (s : Tracer.completed) ->
      let t = s.Tracer.track in
      String.equal s.Tracer.cat "par"
      && String.starts_with ~prefix:"lane" t
      && not (String.contains t '/'))
    (completed ())

(* What the simulation runs report through their stats records. *)
let record_kernel (k : Kernel.stats) =
  addi "sim.events" k.Kernel.events;
  add "sim.cpu_s" k.Kernel.cpu_seconds

let record_bus (k : Kernel.stats) (b : Bus.report) =
  addi "tlm.transactions" b.Bus.transactions;
  addi "tlm.bytes" b.Bus.data_bytes;
  add "tlm.cpu_s" k.Kernel.cpu_seconds

let record_level3 (r : Level3.result) =
  record_kernel r.Level3.kernel_stats;
  record_bus r.Level3.kernel_stats r.Level3.bus_report;
  let f = r.Level3.fpga_stats in
  addi "fpga.reconfigurations" f.Fpga.reconfigurations;
  addi "fpga.bitstream_bytes" f.Fpga.bitstream_bytes;
  addi "fpga.scrubs" f.Fpga.scrubs

let trace_row check ~reference ~actual =
  match Trace.compare_data ~reference ~actual with
  | [] ->
      Verdict.make ~name:check
        ~detail:(Printf.sprintf "%d streams match" (List.length (Trace.sources actual)))
        Verdict.Proved
  | ms ->
      Verdict.make ~name:check
        (Verdict.Disproved (Printf.sprintf "%d stream mismatches" (List.length ms)))

let deadline_ns = 40_000_000

(* Level 4 cold, module by module through Engines: per-module MC and PCC
   time, conflicts, and the PCC fault count. *)
let level4_engines ~pool ~seed =
  let rows =
    List.map
      (fun (m : Level4.rtl_module) ->
        let name = m.Level4.module_name in
        let key = String.lowercase_ascii name in
        let lint = call "lint.s" (fun () -> Engines.lint ~pool ~seed m) in
        let c0 = counter "sat.conflicts" in
        let mc = call ("mc.s." ^ key) (fun () -> Engines.model_check ~pool ~seed m) in
        let c1 = counter "sat.conflicts" in
        let pcc = call ("pcc.s." ^ key) (fun () -> Engines.pcc ~pool ~seed m) in
        let c2 = counter "sat.conflicts" in
        addi ("conflicts." ^ key) (c2 - c0);
        addi "pcc.conflicts" (c2 - c1);
        addi "pcc.faults"
          (List.length (Symbad_pcc.Fault.enumerate ~max_reg_bits:4 m.Level4.netlist));
        ({ lint with Verdict.name = "lint " ^ name }, mc, pcc))
      (Level4.modules ())
  in
  List.map (fun (l, _, _) -> l) rows
  @ List.map (fun (_, m, _) -> m) rows
  @ List.map (fun (_, _, p) -> p) rows

(* Level 4 warm: the cached Level4.run, every module replaying. *)
let level4_cached ~pool cache =
  let r = call "cache.s" (fun () -> Level4.run ~pool ~cache ()) in
  let by f = List.map f r.Level4.modules in
  by (fun m -> m.Level4.lint_verdict)
  @ by (fun m -> m.Level4.mc_verdict)
  @ by (fun m -> m.Level4.pcc_verdict)

(* The flow re-issued as its public calls, one span each, in Flow.run's
   order; the rows are rebuilt the way Flow.run builds them and checked
   against the same known answers. *)
let decomposed_flow ~pool ~known ~warm inputs =
  let w = inputs.app in
  let seed = inputs.atpg_seed in
  let graph = Face_app.graph w in
  let reference = call "image.reference_s" (fun () -> Face_app.reference_trace w) in
  let l1 = call "core.level1_s" (fun () -> Level1.run graph) in
  let atpg = call "atpg.s" (fun () -> Engines.atpg ~pool ~seed ()) in
  let deadlock = call "lpv.s" (fun () -> Lpv_bridge.check_deadlock graph) in
  let profile = l1.Level1.profile in
  let mapping2 = Face_app.level2_mapping ~profile graph in
  let l2 = call "core.level2_s" (fun () -> Level2.run graph mapping2) in
  let timing = Lpv_bridge.default_timing in
  let period, met =
    call "lpv.s" (fun () ->
        Lpv_bridge.check_deadline ~deadline_ns ~timing ~mapping:mapping2 ~profile graph)
  in
  let fifo =
    call "lpv.s" (fun () ->
        Lpv_bridge.dimension_fifos ~deadline_ns ~timing ~mapping:mapping2 ~profile graph)
  in
  let mapping3 = Mapping.refine_to_fpga mapping2 Face_app.level3_refinement in
  let l3 = call "core.level3_s" (fun () -> Level3.run graph mapping3) in
  let info = l3.Level3.config_info and program = l3.Level3.instrumented_sw in
  let lint3 =
    call "lint.s" (fun () -> Lint.run_program ~pool ~name:"instrumented software" info program)
  in
  let symbc = call "symbc.s" (fun () -> Symbad_symbc.Check.check info program) in
  let fifo_row =
    match fifo with
    | Some c ->
        Verdict.make ~name:"LPV FIFO dimensioning"
          ~detail:(Printf.sprintf "minimal uniform capacity %d" c) Verdict.Proved
    | None ->
        Verdict.make ~name:"LPV FIFO dimensioning"
          (Verdict.Disproved "no capacity meets the deadline")
  in
  let level4 =
    match warm with
    | Some cache -> level4_cached ~pool cache
    | None -> level4_engines ~pool ~seed
  in
  check_rows known
    ([
       (1, trace_row "trace match vs C reference model" ~reference ~actual:l1.Level1.trace);
       (1, atpg);
       (1, Verdict.of_lpv_deadlock deadlock);
       (2, trace_row "trace match vs level 1" ~reference:l1.Level1.trace ~actual:l2.Level2.trace);
       (2, Verdict.of_lpv_timing ~deadline_ns ~met period);
       (2, fifo_row);
       (3, trace_row "trace match vs level 2" ~reference:l2.Level2.trace ~actual:l3.Level3.trace);
       (3, Verdict.of_lint lint3);
       (3, Verdict.of_symbc symbc);
       (3, Verdict.make ~name:"FPGA reconfiguration activity" Verdict.Proved);
     ]
    @ List.map (fun v -> (4, v)) level4);
  record_kernel l1.Level1.kernel_stats;
  record_kernel l2.Level2.kernel_stats;
  record_bus l2.Level2.kernel_stats l2.Level2.bus_report;
  record_level3 l3

(* Recognise every workload frame through the C reference pipeline. *)
let frame_seconds (w : Face_app.workload) =
  let size = w.Face_app.size in
  let db = Pipeline.enroll ~size ~identities:w.Face_app.identities () in
  let rounds = 3 in
  let t0 = now () in
  for _ = 1 to rounds do
    List.iter
      (fun (identity, pose) ->
        ignore (Pipeline.recognize db (Pipeline.camera ~size ~identity ~pose ())))
      w.Face_app.frames
  done;
  (now () -. t0) /. float_of_int (rounds * List.length w.Face_app.frames)

let traced_flow o ~pool ~known ~inputs ~warm =
  (* the warm iteration is short: average the two wall figures over a
     few iterations *)
  let reps = match warm with Some _ -> 5 | None -> 1 in
  let cache_dir () = match warm with Some (dir, _) -> dir | None -> fresh_cache_dir () in
  let expected = match warm with Some _ -> known.warm_cache | None -> known.cold_cache in
  (* 1. untraced Flow.run: the baseline of obs.overhead *)
  let t0 = now () in
  for _ = 1 to reps do
    flow_iteration ~pool ~known ~warm inputs
  done;
  let untraced = (now () -. t0) /. float_of_int reps in
  (* 2. Flow.run under the program's own telemetry: its logical counts *)
  let f_dir = cache_dir () in
  let f_cache = Cache.create ~dir:f_dir () in
  let traced =
    with_obs (fun () ->
        let t0 = now () in
        for _ = 1 to reps do
          check_rows known (flow_rows (flow_once ~pool ~cache:f_cache inputs))
        done;
        let wall = now () -. t0 in
        let per n = float_of_int n /. float_of_int reps in
        List.iter (fun n -> add n (per (counter n))) flow_counters;
        add "par.jobs" (per (counter "par.jobs_dispatched"));
        add "par.busy_ratio"
          (ratio (seconds_of (par_job_spans ())) (float_of_int o.jobs *. wall));
        add "sat.solve_s" (seconds_of (spans_named "sat.solve") /. float_of_int reps);
        add "mc.bounds" (per (List.length (spans_named "bmc.bound")));
        add "mc.inductions" (per (List.length (spans_named "bmc.induction")));
        wall /. float_of_int reps)
  in
  let hits = Cache.hits f_cache / reps
  and misses = Cache.misses f_cache / reps
  and stores = Cache.stores f_cache / reps in
  addi "cache.hits" hits;
  addi "cache.misses" misses;
  addi "cache.stores" stores;
  tally ~what:"cache tallies under telemetry"
    (hits = expected.hits && misses = expected.misses && stores = expected.stores);
  add "obs.overhead" (ratio traced untraced);
  (* 3. the same iteration re-issued call by call *)
  let t_dir = cache_dir () in
  let t_cache = Option.map (fun _ -> Cache.create ~dir:t_dir ()) warm in
  timed_s := 0.;
  let t_wall, t_counts =
    with_obs (fun () ->
        let t0 = now () in
        decomposed_flow ~pool ~known ~warm:t_cache inputs;
        (now () -. t0, List.map (fun n -> (n, counter n)) flow_counters))
  in
  add "unaccounted_s" (t_wall -. !timed_s);
  List.iter
    (fun (n, v) ->
      tally ~what:(Printf.sprintf "re-issued calls' %s %d differs from Flow.run's" n v)
        (get n = float_of_int v))
    t_counts;
  tally ~what:"stats records disagree with Flow.run's sim/bus telemetry"
    (get "sim.events" = get "sim.events_dispatched"
    && get "tlm.transactions" = get "bus.transactions");
  (* flow_cold: the level-4 read path, replaying what Flow.run just wrote *)
  if warm = None then begin
    let c = Cache.create ~dir:f_dir () in
    ignore (call "cache.s" (fun () -> Level4.run ~pool ~cache:c ()));
    tally ~what:"cold writes do not replay" (Cache.hits c = expected.stores);
    rm_rf f_dir;
    rm_rf t_dir
  end;
  add "image.frame_s" (frame_seconds inputs.app)

(* The campaign keeps Obs off: with it on every bus transaction becomes a
   retained span.  Its layers come from public-call timing and from one
   Level3.run in each mode's trial configuration. *)
let traced_campaign ~pool ~known ~inputs =
  let t0 = now () in
  ignore (campaign_iteration ~pool ~known inputs);
  let untraced = now () -. t0 in
  timed_s := 0.;
  let t0 = now () in
  let reports = campaign_iteration ~pool ~known ~call inputs in
  let t_wall = now () -. t0 in
  add "obs.overhead" (ratio t_wall untraced);
  add "unaccounted_s" (t_wall -. !timed_s);
  List.iter
    (fun (mode, r) ->
      let name = Campaign.mode_to_string mode in
      let trials = List.length r.Campaign.outcomes in
      addi "resil.trials" trials;
      add ("resil.trial_s." ^ name) (ratio (get ("resil." ^ name)) (float_of_int trials)))
    reports;
  let graph = Face_app.graph inputs.app in
  let l1 = Level1.run graph in
  let mapping =
    Mapping.refine_to_fpga
      (Face_app.level2_mapping ~profile:l1.Level1.profile graph)
      Face_app.level3_refinement
  in
  List.iter
    (fun (e : expected_mode) ->
      let config =
        match e.mode with
        | Campaign.Scrub -> { Level3.default_config with Level3.scrub_period_ns = 10_000 }
        | Campaign.Tmr -> { Level3.default_config with Level3.masked = true }
      in
      record_level3 (Level3.run ~config graph mapping))
    known.modes;
  add "image.frame_s" (frame_seconds inputs.app)

(* ---- the per-layer metric table ------------------------------------------ *)

let module_keys = [ "distance"; "root"; "wrapper"; "argmin"; "ifgen" ]

(* Name and unit of every per-layer metric, in BENCHMARK.json's order.
   A layer a workload does not exercise reads zero there (no SAT on
   flow_warm, no campaign on the flows, no Obs counters on campaign). *)
let per_layer =
  [
    ("sat.solves", "count"); ("sat.conflicts", "count"); ("sat.propagations", "count");
    ("sat.decisions", "count"); ("sat.solve_s", "s"); ("sat.props_per_s", "1/s");
    ("mc.sessions", "count"); ("mc.bounds", "count"); ("mc.inductions", "count");
    ("mc.s", "s"); ("pcc.faults", "count"); ("pcc.s", "s"); ("pcc.s_per_fault", "s");
    ("pcc.conflicts", "count");
  ]
  @ List.concat_map
      (fun k -> [ ("mc.s." ^ k, "s"); ("pcc.s." ^ k, "s"); ("conflicts." ^ k, "count") ])
      module_keys
  @ [
      ("par.jobs", "count"); ("par.busy_ratio", "ratio"); ("cache.hits", "count");
      ("cache.misses", "count"); ("cache.stores", "count"); ("cache.s", "s");
      ("lint.s", "s"); ("lint.rules_run", "count"); ("lint.rules_per_s", "1/s");
      ("atpg.s", "s"); ("lpv.s", "s"); ("symbc.s", "s"); ("core.level1_s", "s");
      ("core.level2_s", "s"); ("core.level3_s", "s"); ("sim.events", "count");
      ("sim.events_per_s", "1/s"); ("image.frame_s", "s"); ("image.reference_s", "s");
      ("tlm.transactions", "count"); ("tlm.bytes", "B"); ("tlm.transactions_per_s", "1/s");
      ("fpga.reconfigurations", "count"); ("fpga.bitstream_bytes", "B");
      ("fpga.scrubs", "count"); ("resil.trials", "count"); ("resil.trial_s.scrub", "s");
      ("resil.trial_s.tmr", "s"); ("obs.overhead", "ratio"); ("unaccounted_s", "s");
      ("host.probe_s", "s"); ("host.nproc", "count"); ("host.loadavg", "load");
    ]

(* The metrics derived from recorded figures. *)
let derive () =
  let total prefix = List.fold_left (fun acc k -> acc +. get (prefix ^ k)) 0. module_keys in
  add "mc.s" (total "mc.s.");
  add "pcc.s" (total "pcc.s.");
  add "pcc.s_per_fault" (ratio (get "pcc.s") (get "pcc.faults"));
  add "sat.props_per_s" (ratio (get "sat.propagations") (get "sat.solve_s"));
  add "lint.rules_per_s" (ratio (get "lint.rules_run") (get "lint.s"));
  add "sim.events_per_s" (ratio (get "sim.events") (get "sim.cpu_s"));
  add "tlm.transactions_per_s" (ratio (get "tlm.transactions") (get "tlm.cpu_s"))

(* The exact logical counts: host-independent, identical across traced
   runs of one seed and across pool widths. *)
let determinism_rows =
  [
    "sat.solves"; "sat.conflicts"; "sat.propagations"; "sat.decisions"; "mc.sessions";
    "cache.hits"; "cache.misses"; "cache.stores"; "sim.events"; "tlm.transactions";
    "fpga.reconfigurations"; "fpga.bitstream_bytes"; "fpga.scrubs";
  ]

let write_spans o =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans in
  let doc =
    Json.List
      (List.rev_map
         (fun s ->
           Json.Obj
             [
               ("name", Json.Str s.name);
               ("start_s", Json.Float (s.start -. t0));
               ("dur_s", Json.Float s.dur);
             ])
         !spans)
  in
  let path =
    Filename.concat out_dir
      (Printf.sprintf "spans-%s-seed%d.json" (workload_name o.workload) o.seed)
  in
  write_file path (Json.to_string doc ^ "\n");
  Printf.printf "spans: %d written to %s\n" (List.length !spans) path

(* ---- output ------------------------------------------------------------------ *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0 && !attempted > 0)
    (max 1 !attempted) !failed body

let main o =
  mkdir_p out_dir;
  let known, inputs, warm, setup_s = setup o in
  let pool = Par.create ~jobs:o.jobs () in
  let cleanup () =
    Par.shutdown pool;
    Option.iter (fun (dir, _) -> rm_rf dir; rm_rf (fill_rows_file dir)) warm
  in
  let end_to_end =
    Fun.protect ~finally:cleanup @@ fun () ->
    if o.trace then begin
      guarded (fun () ->
          match o.workload with
          | Flow_cold -> traced_flow o ~pool ~known ~inputs ~warm:None
          | Flow_warm -> traced_flow o ~pool ~known ~inputs ~warm
          | Campaign_both -> traced_campaign ~pool ~known ~inputs);
      []
    end
    else begin
      let walls = untraced o ~pool ~known ~inputs ~warm in
      let n = List.length walls in
      let sorted = Array.of_list (List.sort compare walls) in
      Printf.printf "wall_s: %d samples, median %.4f s, min %.4f s, max %.4f s\n" n
        (median walls) sorted.(0) sorted.(n - 1);
      (* a p90 only where at least ten samples lie beyond it *)
      if n >= 100 then Printf.printf "wall_s_p90: %.4f s\n" sorted.((9 * n / 10) - 1);
      [
        ("wall_s", "s", median walls);
        ("setup_s", "s", setup_s);
        ("peak_rss_mb", "MB", peak_rss_mb ());
      ]
    end
  in
  (* last, so that the probe's array stays out of peak_rss_mb *)
  let probe_s = probe () and nproc = Domain.recommended_domain_count () in
  let loadavg = loadavg () in
  Printf.printf "host: probe %.4f s, nproc %d, loadavg %.2f, jobs %d\n" probe_s nproc loadavg
    o.jobs;
  let metrics =
    if o.trace then begin
      add "host.probe_s" probe_s;
      addi "host.nproc" nproc;
      add "host.loadavg" loadavg;
      derive ();
      List.iter
        (fun name -> Printf.printf "determinism %s %s\n" name (number (get name)))
        determinism_rows;
      write_spans o;
      List.map (fun (name, unit) -> (name, unit, get name)) per_layer
    end
    else end_to_end
  in
  Printf.printf "fail_ratio: %d/%d = %g\n" !failed !attempted
    (ratio (float_of_int !failed) (float_of_int !attempted));
  emit metrics;
  0

let () =
  let o = parse_args () in
  exit (match o.fill with Some dir -> fill_main o dir | None -> main o)
