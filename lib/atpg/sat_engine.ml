(* SAT-based test generation (the formal engine of Laerte++).

   Works on the RTL view of a module: to cover the bit-coverage point
   "output o, bit i, polarity v at depth d", it poses "the bit never
   takes that polarity" as an invariant to one incremental BMC session
   ([Mc.Session.check_upto]); a counterexample's inputs are the test.
   Complete on the covered depth: if the invariant holds at every bound
   the point is formally unreachable and excluded from the denominator —
   something no simulation-based engine can conclude. *)

module Netlist = Symbad_hdl.Netlist
module Expr = Symbad_hdl.Expr
module Mc = Symbad_mc

type target = { output : string; bit : int; polarity : bool }

type outcome =
  | Test of int array list  (* input vectors, one per cycle *)
  | Unreachable  (* proven at every depth up to the bound *)

let all_targets nl =
  List.concat_map
    (fun (name, e) ->
      let w = Netlist.expr_width nl e in
      List.concat_map
        (fun bit ->
          [ { output = name; bit; polarity = false };
            { output = name; bit; polarity = true } ])
        (List.init w (fun i -> i)))
    (Netlist.outputs nl)

let cover_target ?(max_depth = 8) nl target =
  let out_expr =
    match Netlist.find_output nl target.output with
    | Some e -> e
    | None -> invalid_arg ("Sat_engine: no output " ^ target.output)
  in
  let w = Netlist.expr_width nl out_expr in
  if target.bit < 0 || target.bit >= w then
    invalid_arg "Sat_engine: bit out of range";
  let bit_expr = Expr.slice out_expr ~hi:target.bit ~lo:target.bit in
  let goal = if target.polarity then bit_expr else Expr.not_ bit_expr in
  let never = Mc.Prop.make ~name:"atpg.target" (Mc.Prop.never goal) in
  let session = Mc.Session.create nl never in
  match Mc.Session.check_upto ~depth:max_depth session with
  | Mc.Session.Base_cex tr ->
      (* trace frames list their inputs in netlist order *)
      Test
        (List.map
           (fun (f : Mc.Trace.frame) -> Array.of_list (List.map snd f.inputs))
           tr)
  | Mc.Session.Base_holds -> Unreachable
  | Mc.Session.Base_unknown ->
      assert false (* no governor: the search completes *)

type report = {
  covered : int;
  unreachable : int;
  tests : int array list list;  (* one input sequence per covered target *)
}

(* Chase every output-bit polarity of the netlist. *)
let generate ?(max_depth = 8) nl =
  let targets = all_targets nl in
  let covered = ref 0 and unreachable = ref 0 in
  let tests = ref [] in
  List.iter
    (fun t ->
      match cover_target ~max_depth nl t with
      | Test seq ->
          incr covered;
          tests := seq :: !tests
      | Unreachable -> incr unreachable)
    targets;
  {
    covered = !covered;
    unreachable = !unreachable;
    tests = List.rev !tests;
  }

let pp_report fmt r =
  Fmt.pf fmt "covered %d, unreachable %d" r.covered r.unreachable
