(** The FPGA-state may-analysis over reconfiguration control flow.

    Per graph node it computes the set of FPGA states that may hold when
    control reaches it.  [Reconfig c] is a strong update to
    [{Loaded c}] (the whole fabric is reloaded); every other action is
    the identity; union is the join.  Unreachable nodes get the empty
    set.  {!Absint} and the [cfg.*] and [sched.*] lint rules are
    instances of it; {!Check} is the independent reference. *)

module States : Set.S with type elt = Check.fpga_state
(** Ordered [Unloaded] first, then [Loaded c] by configuration name. *)

val solo : Cfg.t -> States.t array
(** The fixpoint over one CFG, indexed by node. *)

val product : Cfg.t -> Cfg.t -> States.t array
(** The fixpoint over the interleaved product of [a] and [b] sharing
    one fabric: node [(u, v)] is indexed [u * b.nnodes + v], and each
    edge is one step of either program. *)

val unavailable : Config_info.t -> string -> States.t -> States.t
(** [unavailable info f s] is the states of [s] in which a call to [f]
    fails, by {!Check.call_ok}. *)
