(* The reconfiguration analyzer family: static dataflow over the
   mini-C CFG, no simulation.

   The may-analysis is {!Symbad_symbc.Dataflow.solo}: per CFG node, the
   set of FPGA states that can hold when control reaches it.
   [Reconfig c] is a strong update (the whole fabric is reloaded, so
   the post-state is exactly [{Loaded c}]); every other action is the
   identity.  Because reconfiguration replaces the state wholesale, a
   singleton may-set is simultaneously the must-set, which is what
   makes the redundancy rule exact.

   The may/must gap is the documented warning direction: a call whose
   context is loaded on only *some* paths is a warning here (dynamic
   SymbC decides), never a silent pass. *)

module Cfg = Symbad_symbc.Cfg
module Ci = Symbad_symbc.Config_info
module Check = Symbad_symbc.Check
module Dataflow = Symbad_symbc.Dataflow
module States = Dataflow.States
module D = Diagnostic

(* [may] is the solo fixpoint, computed once here: the rules run in
   parallel and only read it. *)
type ctx = { ci : Ci.t; cfg : Cfg.t; target : string; may : States.t array }

let context ~target ci cfg = { ci; cfg; target; may = Dataflow.solo cfg }

let diag ctx ?hint ~rule ~severity ~location message =
  D.make ?hint ~rule ~severity ~target:ctx.target ~location message

let edge_loc (e : Cfg.edge) =
  Printf.sprintf "edge %d->%d (%s)" e.Cfg.src e.Cfg.dst
    (Cfg.action_to_string e.Cfg.action)

(* Deterministic edge order for reporting. *)
let edges (cfg : Cfg.t) =
  List.sort
    (fun (a : Cfg.edge) (b : Cfg.edge) ->
      compare
        (a.Cfg.src, a.Cfg.dst, Cfg.action_to_string a.Cfg.action)
        (b.Cfg.src, b.Cfg.dst, Cfg.action_to_string b.Cfg.action))
    cfg.Cfg.edges

let state_label = function Check.Unloaded -> "unloaded" | Check.Loaded c -> c

(* --- cfg.never-loaded / cfg.maybe-unloaded ----------------------------- *)

(* The reachable FPGA-call edges of [cfg] under the fixpoint [may], each
   with its may-states and the ones in which the call fails.
   Unreachable calls are not call defects.  [Sched_rules] reuses it. *)
let fpga_calls ci cfg (may : States.t array) =
  List.filter_map
    (fun (e : Cfg.edge) ->
      let s = may.(e.Cfg.src) in
      match e.Cfg.action with
      | Cfg.Call f when Ci.is_fpga_function ci f && not (States.is_empty s) ->
          Some (e, f, s, Dataflow.unavailable ci f s)
      | _ -> None)
    (edges cfg)

let call_findings ctx =
  List.filter_map
    (fun (e, f, s, bad) ->
      if States.equal bad s then Some (`Never, e, f, s)
      else if not (States.is_empty bad) then Some (`Maybe, e, f, s)
      else None)
    (fpga_calls ctx.ci ctx.cfg ctx.may)

let rule_never_loaded ctx =
  List.filter_map
    (fun finding ->
      match finding with
      | `Never, e, f, _ ->
          Some
            (diag ctx ~rule:"cfg.never-loaded" ~severity:D.Error
               ~location:(edge_loc e)
               ~hint:
                 (Printf.sprintf
                    "insert a reconfiguration loading a context that provides \
                     '%s' before the call"
                    f)
               (Printf.sprintf
                  "call to FPGA function '%s': no path loads a providing \
                   configuration"
                  f))
      | _ -> None)
    (call_findings ctx)

let rule_maybe_unloaded ctx =
  List.filter_map
    (fun finding ->
      match finding with
      | `Maybe, e, f, s ->
          Some
            (diag ctx ~rule:"cfg.maybe-unloaded" ~severity:D.Warning
               ~location:(edge_loc e)
               ~hint:"dynamic SymbC decides; reconfigure on every path to fix"
               (Printf.sprintf
                  "call to FPGA function '%s' reachable with states {%s}; not \
                   all provide it"
                  f
                  (String.concat ", "
                     (List.map state_label (States.elements s)))))
      | _ -> None)
    (call_findings ctx)

(* --- cfg.unknown-config ------------------------------------------------ *)

let rule_unknown_config ctx =
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.Cfg.action with
      | Cfg.Reconfig c when not (Ci.has_configuration ctx.ci c) ->
          Some
            (diag ctx ~rule:"cfg.unknown-config" ~severity:D.Error
               ~location:(edge_loc e)
               ~hint:"declare it in the configuration information"
               (Printf.sprintf "reconfiguration loads unknown configuration \
                                '%s'" c))
      | _ -> None)
    (edges ctx.cfg)

(* --- cfg.redundant-config ---------------------------------------------- *)

let rule_redundant_config ctx =
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.Cfg.action with
      | Cfg.Reconfig c
        when States.equal ctx.may.(e.Cfg.src)
               (States.singleton (Check.Loaded c)) ->
          Some
            (diag ctx ~rule:"cfg.redundant-config" ~severity:D.Warning
               ~location:(edge_loc e)
               ~hint:"drop the call; reconfiguration is not free"
               (Printf.sprintf
                  "configuration '%s' is already loaded on every path here" c))
      | _ -> None)
    (edges ctx.cfg)

(* --- cfg.unreachable-config -------------------------------------------- *)

let rule_unreachable_config ctx =
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.Cfg.action with
      | Cfg.Reconfig c when States.is_empty ctx.may.(e.Cfg.src) ->
          Some
            (diag ctx ~rule:"cfg.unreachable-config" ~severity:D.Warning
               ~location:(edge_loc e)
               ~hint:"dead code: remove it or fix the control flow"
               (Printf.sprintf "unreachable reconfiguration of '%s'" c))
      | _ -> None)
    (edges ctx.cfg)
