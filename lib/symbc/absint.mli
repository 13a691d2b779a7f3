(** Abstract-interpretation engine for the consistency property — the
    technology the paper names for SymbC.

    Domain: powerset of FPGA states ordered by inclusion; the
    {!Dataflow.solo} fixpoint over the CFG; joins at merge points.  For
    this property the powerset domain is exact, so the verdict always
    agrees with the product-reachability engine of {!Check} (the test
    suite verifies this); {!Check} additionally produces counterexample
    paths. *)

type node_invariant = { node : int; states : Check.fpga_state list }

type verdict =
  | Safe of { invariants : node_invariant list; calls_checked : int }
  | Unsafe of {
      failing_call : string;
      node : int;
      offending_states : Check.fpga_state list;
    }

val analyze : Config_info.t -> Ast.program -> verdict
(** Raises [Invalid_argument] on unknown configurations. *)

val agrees_with_check : Config_info.t -> Ast.program -> bool
(** Do the two engines reach the same verdict on this program?  When
    both certify it, their per-node invariants must be identical; when
    both reject it, {!Check}'s counterexample call must fail in its
    state. *)

val pp_verdict : Format.formatter -> verdict -> unit
