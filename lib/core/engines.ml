(* The unified engine surface.

   Every verification engine in the stack — model checking, PCC, ATPG,
   lint, the fault campaign — historically grew its own entry point with
   its own budget knobs.  This module redesigns the drivers behind one
   call shape:

     ?gov ?pool ?jobs ~seed target -> Verdict.t

   [gov] is the resource governor (omitted = unlimited), [pool]/[jobs]
   pick the worker-domain fan-out ([pool] wins; [jobs] builds a scoped
   pool; neither = sequential), [seed] drives the stochastic engines and
   is accepted — and ignored — by the deterministic ones so portfolios
   can treat every engine uniformly.  Verdicts are identical at any
   pool width.

   The fault-campaign driver lives with its engine
   ([Symbad_resil.Campaign.check] — resil sits above core in the
   library stack) but answers the same shape. *)

module Gov = Symbad_gov.Gov
module Budget = Symbad_gov.Budget
module Degrade = Symbad_gov.Degrade
module Lint = Symbad_lint.Lint
module Mc = Symbad_mc
module Pcc = Symbad_pcc.Pcc

let with_jobs ?pool ?jobs f =
  match (pool, jobs) with
  | Some p, _ -> f p
  | None, None -> f Symbad_par.Par.sequential
  | None, Some jobs -> Symbad_par.Par.with_pool ~jobs f

let timed f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

(* --- the static engine ------------------------------------------------ *)

let lint ?gov ?pool ?jobs ?(escalate = false) ~seed:_ (m : Level4.rtl_module) =
  with_jobs ?pool ?jobs @@ fun pool ->
  let props = Mc.Prop.pairs m.Level4.properties in
  let report, host_seconds =
    timed (fun () ->
        let r = Lint.run_netlist ~pool ?gov ~properties:props m.Level4.netlist in
        if escalate then
          Lint.escalate ~pool ?gov ~properties:props m.Level4.netlist r
        else r)
  in
  { (Verdict.of_lint ~host_seconds report) with
    Verdict.name = Printf.sprintf "lint %s" m.Level4.module_name }

(* --- the formal engines ----------------------------------------------- *)

let model_check ?gov ?pool ?jobs ?(max_depth = 12) ~seed:_
    (m : Level4.rtl_module) =
  with_jobs ?pool ?jobs @@ fun pool ->
  let reports, host_seconds =
    timed (fun () ->
        Mc.Engine.check_all ~pool ~max_depth ?gov m.Level4.netlist
          m.Level4.properties)
  in
  let all = Mc.Engine.all_proved reports in
  Verdict.make
    ~name:(Printf.sprintf "model checking %s" m.Level4.module_name)
    ~passed:all ~host_seconds
    ~detail:(Printf.sprintf "%d properties" (List.length reports))
    (if all then Verdict.Proved
     else Verdict.Inconclusive "not all properties proved")

let pcc ?gov ?pool ?jobs ?(depth = 6) ?(max_reg_bits = 4) ~seed:_
    (m : Level4.rtl_module) =
  with_jobs ?pool ?jobs @@ fun pool ->
  let report, host_seconds =
    timed (fun () ->
        Pcc.run ~pool ~depth ~max_reg_bits ?gov m.Level4.netlist
          m.Level4.properties)
  in
  { (Verdict.of_pcc ~host_seconds report) with
    Verdict.name = Printf.sprintf "PCC completeness %s" m.Level4.module_name }

(* --- the simulation engine -------------------------------------------- *)

(* Laerte++ on the behavioural hot spots: genetic engine, report the
   worst coverage across models.  Model runs fan out on the pool.
   The governor bounds the generation loops; an exhausted budget
   degrades to Inconclusive carrying the coverage reached so far, and
   granted retries re-dispatch re-seeded over a share of the remaining
   budget (the portfolio retry). *)
let atpg ?gov ?pool ?jobs ~seed () =
  with_jobs ?pool ?jobs @@ fun pool ->
  let gov = Gov.get gov in
  let retries = (Gov.budget gov).Budget.retries in
  let attempt_once ~attempt =
    (* with retries granted, each attempt gets an even share of what is
       left, so the last attempt still has budget to spend *)
    let g =
      if retries = 0 then gov
      else
        Gov.slice
          ~label:(Printf.sprintf "atpg.try%d" attempt)
          ~fraction:(1. /. float_of_int (retries + 1 - attempt))
          gov
    in
    let seed =
      if attempt = 0 then seed else Symbad_par.Par.split_seed ~seed attempt
    in
    let evals, host_seconds =
      timed (fun () ->
          List.map
            (fun m ->
              let params =
                { Symbad_atpg.Genetic_engine.default_params with
                  Symbad_atpg.Genetic_engine.seed }
              in
              let tests =
                Symbad_atpg.Genetic_engine.generate ~pool ~gov:g ~params m
              in
              Symbad_atpg.Testbench.evaluate ~pool ~engine:"genetic" m tests)
            (Symbad_atpg.Models.all ()))
    in
    let worst =
      List.fold_left
        (fun acc e -> min acc e.Symbad_atpg.Testbench.coverage.Symbad_atpg.Coverage.total)
        1. evals
    in
    let hit, total =
      List.fold_left
        (fun (h, t) (e : Symbad_atpg.Testbench.evaluation) ->
          ( h + e.Symbad_atpg.Testbench.coverage.Symbad_atpg.Coverage.hit_points,
            t + e.Symbad_atpg.Testbench.coverage.Symbad_atpg.Coverage.total_points ))
        (0, 0) evals
    in
    match Gov.exhaustion g with
    | Some reason when worst <= 0.85 ->
        (* out of budget short of the gate: report what was covered *)
        Gov.note_degraded g ~what:"atpg" reason;
        Verdict.degraded ~host_seconds ~name:"ATPG coverage (Laerte++)"
          ~partial:
            { Degrade.units_done = hit;
              units_total = Some total;
              what = "coverage points hit" }
          reason
    | Some _ | None ->
        Verdict.make ~name:"ATPG coverage (Laerte++)" ~host_seconds
          ~passed:(worst > 0.85)
          ~detail:
            (String.concat "; "
               (List.map
                  (fun e ->
                    Printf.sprintf "%s %.0f%%" e.Symbad_atpg.Testbench.model
                      (100.
                     *. e.Symbad_atpg.Testbench.coverage.Symbad_atpg.Coverage.total))
                  evals))
          (Verdict.Coverage { hit; total })
  in
  Gov.with_retry ~label:"atpg" gov
    ~inconclusive:(fun v ->
      match v.Verdict.outcome with
      | Verdict.Inconclusive _ -> true
      | Verdict.Proved | Verdict.Disproved _ | Verdict.Coverage _ -> false)
    (fun ~attempt -> attempt_once ~attempt)
