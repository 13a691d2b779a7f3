(** Level 2: timed transaction-level simulation of the mapped
    architecture.

    SW tasks collapse into one CPU process running a cyclostatic
    schedule; HW tasks are autonomous processes; channels with a HW
    endpoint ride the shared bus.  Timing comes from the annotation
    model applied to each firing's work units. *)

type config = {
  annotation : Symbad_tlm.Annotation.t;
  bus_width_bytes : int;
  bus_period_ns : int;
  cpu_period_ns : int;
  hw_period_ns : int;
  fifo_capacity : int;  (** bounded channels; sinks stay unbounded *)
}

val default_config : config
(** 32-bit 100 MHz bus, 50 MHz CPU, 100 MHz HW logic, capacity 2. *)

type result = {
  trace : Symbad_sim.Trace.t;
  kernel_stats : Symbad_sim.Kernel.stats;
  bus_report : Symbad_tlm.Bus.report;
  cpu_stats : Symbad_tlm.Cpu.stats;
  latency_ns : int;
  channel_occupancy : (string * Symbad_sim.Fifo.occupancy) list;
}

val simulation_speed_khz : bus_period_ns:int -> result -> float
(** Simulated bus-clock kHz achieved per host CPU second — the figure
    the paper reports as "simulation speed close to 200 kHz". *)

val run : ?config:config -> Task_graph.t -> Mapping.t -> result
(** Raises [Invalid_argument] if a source is not mapped to SW or any
    task is mapped to an FPGA context (that is level 3). *)

(** {2 The platform shared with level 3} *)

type platform = {
  kernel : Symbad_sim.Kernel.t;
  bus : Symbad_tlm.Bus.t;
  cpu_done : unit -> bool;
      (** the CPU has run its last round and [drain] has returned *)
  run_sw : Task_graph.task -> Task_graph.firing -> unit;
      (** execute the firing's SW cycles on the CPU, then send its
          outputs with the CPU as bus master *)
  send : master:string -> Task_graph.task -> Token.t list -> unit;
      (** record, carry over the bus if the channel crosses it, and put
          the tokens on the task's output channels *)
}

val simulate :
  config:config ->
  ecc:bool ->
  channel_loss:(string * (int -> bool)) list ->
  fire_fpga:
    (platform -> string -> Task_graph.task -> Token.t list ->
    Task_graph.firing -> unit) ->
  drain:(unit -> unit) ->
  before_run:(platform -> unit) ->
  Task_graph.t ->
  Mapping.t ->
  result
(** The timed platform behind {!run} and [Level3.run]: kernel, trace,
    bus ([ecc] as in [Symbad_tlm.Bus.create]), the ARM7 CPU and bounded
    FIFOs.  HW tasks are autonomous processes; SW and FPGA tasks fire in
    one cyclostatic CPU process.  [fire_fpga p ctx t] is applied once per
    task mapped to [Fpga ctx] before the run and returns how the CPU
    fires it, given the consumed inputs and the functional firing.  The
    CPU process calls [drain] after its last round.  [before_run p] runs
    once the platform's processes are spawned and before simulation
    starts.  Channels named in [channel_loss] are lossy
    ([Symbad_sim.Fifo.set_loss]); a sender re-sends a dropped token up
    to three times.  Raises [Invalid_argument] if a source is not mapped
    to SW. *)
