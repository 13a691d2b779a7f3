(* Abstract interpretation engine for the consistency property.

   The abstract domain is the powerset of FPGA states
   ({no configuration} + one element per configuration) ordered by
   inclusion; the transfer function of a reconfiguration edge is the
   constant singleton, every other edge is the identity; joins happen at
   CFG merge points.  The {!Dataflow.solo} fixpoint yields, per program
   point, the set of states the FPGA may be in — the same invariant the
   product reachability of {!Check} computes, obtained the way the paper
   describes ("abstract interpretation to check reconfiguration
   consistency").

   For this property the powerset domain loses no precision, so the two
   engines must agree on every program; the test suite checks that. *)

module States = Dataflow.States

type node_invariant = { node : int; states : Check.fpga_state list }

type verdict =
  | Safe of { invariants : node_invariant list; calls_checked : int }
  | Unsafe of {
      failing_call : string;
      node : int;
      offending_states : Check.fpga_state list;
          (* reachable states in which the call is unavailable *)
    }

let analyze info (program : Ast.program) =
  List.iter
    (fun c ->
      if not (Config_info.has_configuration info c) then
        invalid_arg ("Absint.analyze: program loads unknown configuration " ^ c))
    (Ast.loaded_configs program);
  let cfg = Cfg.build program in
  let in_states = Dataflow.solo cfg in
  (* check every reachable call edge against its source invariant *)
  let calls =
    List.filter_map
      (fun (e : Cfg.edge) ->
        let states = in_states.(e.Cfg.src) in
        match e.Cfg.action with
        | Cfg.Call f when not (States.is_empty states) ->
            Some (f, e.Cfg.src, Dataflow.unavailable info f states)
        | Cfg.Call _ | Cfg.Nop | Cfg.Reconfig _ -> None)
      cfg.Cfg.edges
  in
  match List.find_opt (fun (_, _, bad) -> not (States.is_empty bad)) calls with
  | Some (failing_call, node, bad) ->
      Unsafe { failing_call; node; offending_states = States.elements bad }
  | None ->
      Safe
        {
          invariants =
            List.init cfg.Cfg.nnodes (fun node ->
                { node; states = States.elements in_states.(node) })
            |> List.filter (fun inv -> inv.states <> []);
          calls_checked = List.length calls;
        }

let agrees_with_check info program =
  let a = analyze info program in
  let c = Check.check info program in
  match (a, c) with
  | Safe { invariants; _ }, Check.Consistent cert ->
      (* the same reachable states at every program point *)
      List.map (fun inv -> (inv.node, inv.states)) invariants
      = List.map
          (fun (node, states) -> (node, List.sort compare states))
          cert.Check.invariants
  | Unsafe _, Check.Inconsistent cex ->
      (* the specific call may differ when several are unsafe; the
         product engine's counterexample must be a genuine violation *)
      not (Check.call_ok info cex.Check.state_at_call cex.Check.failing_call)
  | Safe _, Check.Inconsistent _ | Unsafe _, Check.Consistent _ -> false

let pp_verdict fmt = function
  | Safe { invariants; calls_checked } ->
      Fmt.pf fmt "SAFE: %d program points, %d call sites"
        (List.length invariants) calls_checked
  | Unsafe { failing_call; node; offending_states } ->
      Fmt.pf fmt "UNSAFE: %s() at node %d with possible states {%a}"
        failing_call node
        (Fmt.list ~sep:Fmt.comma Fmt.string)
        (List.map Check.fpga_state_to_string offending_states)
