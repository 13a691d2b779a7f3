(* Level 2: timed transaction-level simulation of the mapped
   architecture.

   SW tasks are collapsed into a single CPU process executing a
   cyclostatic schedule (the topological order restricted to SW tasks);
   each HW task is its own process.  The same platform simulator serves
   level 3, which adds FPGA-resident tasks as calls in the CPU schedule
   (see [simulate] and Level3).  Channels between two SW tasks stay
   CPU-internal; any channel with a HW endpoint is carried by the shared
   bus, the producer paying the transfer.  Task timing comes from the
   annotation model applied to the work units each firing reports
   (automatic for SW, as Vista does; the HW cost factors model the
   designer's manual annotation). *)

module Sim = Symbad_sim
module Tlm = Symbad_tlm
module Annotation = Symbad_tlm.Annotation

type config = {
  annotation : Annotation.t;
  bus_width_bytes : int;
  bus_period_ns : int;
  cpu_period_ns : int;
  hw_period_ns : int;
  fifo_capacity : int;
}

let default_config =
  {
    annotation = Annotation.default;
    bus_width_bytes = 4;
    bus_period_ns = 10;  (* 100 MHz AMBA *)
    cpu_period_ns = 20;  (* 50 MHz ARM7 class *)
    hw_period_ns = 10;  (* 100 MHz hardwired logic *)
    fifo_capacity = 2;
  }

type result = {
  trace : Sim.Trace.t;
  kernel_stats : Sim.Kernel.stats;
  bus_report : Tlm.Bus.report;
  cpu_stats : Tlm.Cpu.stats;
  latency_ns : int;
  channel_occupancy : (string * Sim.Fifo.occupancy) list;
}

(* Simulated-clock speed achieved by the host, in kHz: how many simulated
   bus-clock cycles elapse per host CPU second — the figure the paper
   quotes as "simulation speed close to 200 kHz". *)
let simulation_speed_khz ~bus_period_ns result =
  let cycles = float_of_int result.latency_ns /. float_of_int bus_period_ns in
  let secs = result.kernel_stats.Sim.Kernel.cpu_seconds in
  if secs <= 0. then infinity else cycles /. secs /. 1000.

(* Does the channel cross out of the CPU? *)
let crosses_bus mapping graph channel =
  let endpoint_sw task_opt =
    match task_opt with
    | None -> true (* environment side: no bus model *)
    | Some (t : Task_graph.task) -> Mapping.is_sw mapping t.Task_graph.name
  in
  not
    (endpoint_sw (Task_graph.producer_of graph channel)
    && endpoint_sw (Task_graph.consumer_of graph channel))

type platform = {
  kernel : Sim.Kernel.t;
  bus : Tlm.Bus.t;
  cpu_done : unit -> bool;
  run_sw : Task_graph.task -> Task_graph.firing -> unit;
  send : master:string -> Task_graph.task -> Token.t list -> unit;
}

(* Reliable delivery over possibly-lossy links: a dropped put is detected
   through the channel's drop counter (the ack that never came) and
   re-sent, bounded.  Loss-free channels take the exact pre-fault path —
   the counter never moves. *)
let reliable_put f token =
  let max_resend = 3 in
  let rec go n =
    let before = Sim.Fifo.drops f in
    Sim.Fifo.put f token;
    if Sim.Fifo.drops f > before && n < max_resend then go (n + 1)
  in
  go 0

let simulate ~config ~ecc ~channel_loss ~fire_fpga ~drain ~before_run
    (graph : Task_graph.t) (mapping : Mapping.t) =
  (* environment models (sources) must stay on the CPU: they pace the
     cyclostatic schedule *)
  List.iter
    (fun (t : Task_graph.task) ->
      if t.Task_graph.inputs = [] && not (Mapping.is_sw mapping t.Task_graph.name)
      then
        invalid_arg
          ("Level2.simulate: source " ^ t.Task_graph.name ^ " must be SW"))
    graph.Task_graph.tasks;
  let kernel = Sim.Kernel.create () in
  let trace = Sim.Trace.create () in
  let bus =
    Tlm.Bus.create ~width_bytes:config.bus_width_bytes
      ~period_ns:config.bus_period_ns ~ecc "amba"
  in
  let cpu = Tlm.Cpu.create ~period_ns:config.cpu_period_ns "arm7" in
  let fifos : (string, Token.t Sim.Fifo.t) Hashtbl.t = Hashtbl.create 32 in
  let fifo_of channel =
    match Hashtbl.find_opt fifos channel with
    | Some f -> f
    | None ->
        (* sink channels are drained by the environment: unbounded *)
        let capacity =
          if List.mem channel graph.Task_graph.sinks then 0
          else config.fifo_capacity
        in
        let f = Sim.Fifo.create ~capacity channel in
        (match List.assoc_opt channel channel_loss with
        | Some p -> Sim.Fifo.set_loss f (Some p)
        | None -> ());
        Hashtbl.add fifos channel f;
        f
  in
  let send ~master (t : Task_graph.task) tokens =
    List.iter2
      (fun channel token ->
        Sim.Trace.record trace ~time:(Sim.Kernel.now kernel)
          ~source:t.Task_graph.name ~label:channel (Token.digest token);
        if crosses_bus mapping graph channel then
          Tlm.Bus.transfer bus
            (Tlm.Transaction.make ~master ~target:channel
               ~kind:Tlm.Transaction.Write ~bytes:(Token.bytes token));
        reliable_put (fifo_of channel) token)
      t.Task_graph.outputs tokens
  in
  (* the one software firing: CPU cycles from the annotation model, then
     the outputs leave from the CPU *)
  let run_sw t { Task_graph.outputs; work } =
    Tlm.Cpu.execute cpu
      ~cycles:
        (Annotation.cycles config.annotation ~target:Annotation.Sw
           ~weight:work);
    send ~master:"cpu" t outputs
  in
  let cpu_done = ref false in
  let platform =
    { kernel; bus; cpu_done = (fun () -> !cpu_done); run_sw; send }
  in
  (* HW tasks: autonomous processes *)
  let spawn_hw (t : Task_graph.task) =
    Sim.Kernel.spawn kernel (fun () ->
        let rec loop firing_index =
          let inputs =
            List.map (fun c -> Sim.Fifo.get (fifo_of c)) t.Task_graph.inputs
          in
          match t.Task_graph.fire ~firing_index inputs with
          | None -> ()
          | Some { Task_graph.outputs; work } ->
              let cycles =
                Annotation.cycles config.annotation ~target:Annotation.Hw
                  ~weight:work
              in
              Sim.Process.wait (Sim.Time.ns (cycles * config.hw_period_ns));
              send ~master:t.Task_graph.name t outputs;
              loop (firing_index + 1)
        in
        loop 0)
  in
  (* SW and FPGA tasks: one CPU process, cyclostatic schedule in
     topological order; an FPGA task is a call the software makes *)
  let schedule =
    List.filter_map
      (fun (t : Task_graph.task) ->
        match Mapping.target_of mapping t.Task_graph.name with
        | Mapping.Hw -> None
        | Mapping.Sw -> Some (t, fun _inputs firing -> run_sw t firing)
        | Mapping.Fpga ctx -> Some (t, fire_fpga platform ctx t))
      (Task_graph.topological_order graph)
  in
  (* Unit-rate SDF: every task fires exactly once per source frame, so
     the cyclostatic CPU loop runs whole rounds (sources first, then the
     other CPU tasks in topological order, blocking on HW-produced inputs)
     and stops at the round in which every source is exhausted. *)
  let sources, rest =
    List.partition
      (fun ((t : Task_graph.task), _) -> t.Task_graph.inputs = [])
      schedule
  in
  let spawn_cpu () =
    Sim.Kernel.spawn kernel (fun () ->
        let ended : (string, unit) Hashtbl.t = Hashtbl.create 8 in
        let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
        let fire_once ((t : Task_graph.task), fire) =
          let name = t.Task_graph.name in
          if not (Hashtbl.mem ended name) then begin
            let firing_index =
              Option.value ~default:0 (Hashtbl.find_opt counts name)
            in
            let inputs =
              List.map (fun c -> Sim.Fifo.get (fifo_of c)) t.Task_graph.inputs
            in
            match t.Task_graph.fire ~firing_index inputs with
            | None -> Hashtbl.replace ended name ()
            | Some firing ->
                Hashtbl.replace counts name (firing_index + 1);
                fire inputs firing
          end
        in
        let rec rounds () =
          List.iter fire_once sources;
          let live =
            List.exists
              (fun ((t : Task_graph.task), _) ->
                not (Hashtbl.mem ended t.Task_graph.name))
              sources
          in
          if live then begin
            List.iter fire_once rest;
            rounds ()
          end
        in
        rounds ();
        drain ();
        cpu_done := true)
  in
  List.iter
    (fun (t : Task_graph.task) ->
      match Mapping.target_of mapping t.Task_graph.name with
      | Mapping.Hw -> spawn_hw t
      | Mapping.Sw | Mapping.Fpga _ -> ())
    graph.Task_graph.tasks;
  spawn_cpu ();
  before_run platform;
  Sim.Kernel.run kernel;
  let kernel_stats = Sim.Kernel.stats kernel in
  {
    trace;
    kernel_stats;
    bus_report = Tlm.Bus.report bus;
    cpu_stats = Tlm.Cpu.stats cpu;
    latency_ns = Sim.Time.to_ns kernel_stats.Sim.Kernel.final_time;
    channel_occupancy =
      Hashtbl.fold (fun name f acc -> (name, Sim.Fifo.occupancy f) :: acc)
        fifos []
      |> List.sort compare;
  }

let run ?(config = default_config) graph mapping =
  simulate ~config ~ecc:false ~channel_loss:[]
    ~fire_fpga:(fun _ _ ->
      invalid_arg "Level2.run: FPGA targets appear only at level 3")
    ~drain:ignore ~before_run:ignore graph mapping
