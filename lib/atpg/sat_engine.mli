(** SAT-based test generation (the formal engine of Laerte++), working
    on the RTL view: to cover "output bit at polarity within depth d" it
    poses "the bit never takes that polarity" as an invariant to one
    incremental BMC session ({!Symbad_mc.Session.check_upto}), whose
    counterexample drives the bit.  The invariant holding at every
    depth proves the point unreachable — a conclusion no
    simulation-based engine can draw. *)

type target = { output : string; bit : int; polarity : bool }

type outcome =
  | Test of int array list  (** input vectors, one per cycle *)
  | Unreachable  (** proven at every depth up to the bound *)

val all_targets : Symbad_hdl.Netlist.t -> target list
(** Both polarities of every output bit. *)

val cover_target : ?max_depth:int -> Symbad_hdl.Netlist.t -> target -> outcome
(** Cover one target within bounds [0 .. max_depth] (default 8); a
    [Test] has one input vector per cycle, inputs in netlist order. *)

type report = {
  covered : int;
  unreachable : int;
  tests : int array list list;  (** one input sequence per covered target *)
}

val generate : ?max_depth:int -> Symbad_hdl.Netlist.t -> report
(** Chase every target of the netlist, each up to [max_depth] (default
    8) cycles. *)

val pp_report : Format.formatter -> report -> unit
