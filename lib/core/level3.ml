(* Level 3: the reconfigurable platform.

   The FPGA device is instantiated on the bus and some HW modules move
   inside it, split into contexts.  FPGA-resident functions are invoked
   *synchronously from the software* (the paper: "inserting the FPGA's
   reconfiguration calls and the functional calls to mapped resources
   into the SW"), so the cyclostatic CPU loop now:
     - issues a reconfiguration (bitstream download over the bus +
       programming time) whenever the next FPGA call needs a context that
       is not loaded,
     - ships the operands to the FPGA over the bus, waits for the
       (annotated) FPGA computation, and reads the results back.

   The run also records the dynamic resource-call sequence and emits the
   instrumented mini-C program, which is exactly what SymbC consumes.

   The platform itself — kernel, bus, CPU, FIFOs, HW processes and the
   CPU's cyclostatic rounds — is the level-2 simulator
   ([Level2.simulate]); this module adds only the fabric. *)

module Sim = Symbad_sim
module Tlm = Symbad_tlm
module Fpga = Symbad_fpga
module Annotation = Symbad_tlm.Annotation

type config = {
  level2 : Level2.config;
  fpga_capacity : int;
  fpga_period_ns : int;
  program_ns_per_byte : int;
  fpga_burst_bytes : int;  (* download granularity: 8 = programmed I/O *)
  task_area : string -> int;  (* area of each FPGA-mapped task's module *)
  scrub_period_ns : int;  (* readback-scrubbing period; 0 = off *)
  watchdog_ns : int;  (* wait before declaring a resource wedged *)
  masked : bool;  (* masked-fault mode: TMR contexts + SEC-DED bus ECC *)
}

let default_task_area = function
  | "DISTANCE" -> 900
  | "ROOT" -> 700
  | _ -> 500

let default_config =
  {
    level2 = Level2.default_config;
    fpga_capacity = 1200;
    fpga_period_ns = 20;  (* FPGA fabric slower than hard gates *)
    program_ns_per_byte = 4;
    fpga_burst_bytes = 8;  (* CPU-driven programmed I/O, no DMA engine *)
    task_area = default_task_area;
    scrub_period_ns = 0;  (* scrubbing is opt-in: it adds bus traffic *)
    watchdog_ns = 2_000;
    (* masking is opt-in: it triples the fabric area and reconfiguration
       traffic and widens every bus transfer by 39/32 *)
    masked = false;
  }

type result = {
  trace : Sim.Trace.t;
  kernel_stats : Sim.Kernel.stats;
  bus_report : Tlm.Bus.report;
  cpu_stats : Tlm.Cpu.stats;
  fpga_stats : Fpga.Fpga.stats;
  latency_ns : int;
  call_sequence : string list;  (* dynamic FPGA-resource invocations *)
  sw_fallbacks : int;  (* firings degraded to software *)
  channel_occupancy : (string * Sim.Fifo.occupancy) list;
  instrumented_sw : Symbad_symbc.Ast.program;
  config_info : Symbad_symbc.Config_info.t;
}

let simulation_speed_khz ~bus_period_ns (r : result) =
  let cycles = float_of_int r.latency_ns /. float_of_int bus_period_ns in
  let secs = r.kernel_stats.Sim.Kernel.cpu_seconds in
  if secs <= 0. then infinity else cycles /. secs /. 1000.

(* The mapping's FPGA contexts, each with its member tasks. *)
let context_members mapping =
  let assignments = Mapping.fpga_tasks mapping in
  List.map
    (fun ctx ->
      ( ctx,
        List.filter_map
          (fun (task, c) -> if String.equal c ctx then Some task else None)
          assignments ))
    (Mapping.contexts mapping)

(* Build the FPGA device from the mapping: one resource per FPGA task,
   grouped into contexts. *)
let build_fpga config mapping =
  let contexts =
    List.map
      (fun (ctx, members) ->
        Fpga.Context.make ctx
          (List.map
             (fun task ->
               Fpga.Resource.algorithm ~area:(config.task_area task) task)
             members))
      (context_members mapping)
  in
  (* masked mode provisions a 3x fabric: the honest area price of TMR,
     visible as [area_loaded] in the device statistics *)
  let copies = if config.masked then 3 else 1 in
  Fpga.Fpga.create
    ~capacity:(config.fpga_capacity * copies)
    ~copies ~program_ns_per_byte:config.program_ns_per_byte
    ~burst_bytes:config.fpga_burst_bytes ~contexts "efpga"

(* The SymbC configuration-information input implied by the mapping. *)
let config_info_of mapping =
  Symbad_symbc.Config_info.make
    ~fpga_functions:(List.map fst (Mapping.fpga_tasks mapping))
    ~configurations:(context_members mapping) ()

(* Instrumented SW: the cyclostatic loop with reconfiguration calls
   inserted before FPGA-resident invocations (omitting loads already
   guaranteed by the previous call in the straight-line schedule).
   [omit_load_for] seeds the consistency bug used by the verification
   experiments. *)
let instrumented_program ?(omit_load_for = []) schedule mapping =
  let body =
    let current = ref None in
    List.concat_map
      (fun task ->
        match Mapping.target_of mapping task with
        | Mapping.Sw | Mapping.Hw -> [ Symbad_symbc.Ast.call task ]
        | Mapping.Fpga ctx ->
            let load =
              if !current = Some ctx || List.mem task omit_load_for then []
              else [ Symbad_symbc.Ast.reconfig ctx ]
            in
            current := Some ctx;
            load @ [ Symbad_symbc.Ast.call task ])
      schedule
  in
  [ Symbad_symbc.Ast.while_ body ]

let run ?(config = default_config) ?(omit_load_for = []) ?(channel_loss = [])
    ?tap (graph : Task_graph.t) (mapping : Mapping.t) =
  let fpga = build_fpga config mapping in
  let calls = ref [] in
  let sw_fallbacks = ref 0 in
  (* an FPGA-resident task is a synchronous call from the software *)
  let fire_fpga (p : Level2.platform) ctx (t : Task_graph.task) inputs
      (firing : Task_graph.firing) =
    let name = t.Task_graph.name in
    (* graceful degradation: once recovery has given up on the fabric,
       the task's software implementation computes the very same tokens,
       only slower *)
    let fire_sw_fallback () =
      incr sw_fallbacks;
      p.run_sw t firing
    in
    if not (Fpga.Fpga.is_healthy fpga) then fire_sw_fallback ()
    else begin
      match
        calls := name :: !calls;
        (* reconfigure unless the SW omitted the load (bug injection):
           then the device check fires *)
        if not (List.mem name omit_load_for) then
          Fpga.Fpga.reconfigure
            ~verify_previous:(config.scrub_period_ns > 0)
            fpga ~bus:p.bus ~master:"cpu" ctx;
        Fpga.Fpga.require fpga name
      with
      | exception Fpga.Fpga.Download_failed _ ->
          (* persistent bitstream corruption: the context cannot be
             brought up — degrade *)
          Fpga.Fpga.mark_unhealthy fpga;
          fire_sw_fallback ()
      | () when not (Fpga.Fpga.responding fpga name) ->
          (* wedged resource: the watchdog expires and the controller
             declares the fabric sick *)
          Sim.Process.wait (Sim.Time.ns config.watchdog_ns);
          Fpga.Fpga.note_watchdog fpga;
          Fpga.Fpga.mark_unhealthy fpga;
          fire_sw_fallback ()
      | () -> (
          (* ship operands, compute, ship results *)
          match
            List.iter
              (fun token ->
                Tlm.Bus.transfer p.bus
                  (Tlm.Transaction.make ~master:"cpu" ~target:"efpga"
                     ~kind:Tlm.Transaction.Write ~bytes:(Token.bytes token)))
              inputs
          with
          | exception Tlm.Bus.Transfer_failed _ ->
              (* operands never reached the fabric; the CPU still holds
                 them — degrade *)
              Fpga.Fpga.mark_unhealthy fpga;
              fire_sw_fallback ()
          | () ->
              let corrupt_pre = Fpga.Fpga.loaded_corrupted fpga in
              let cycles =
                Annotation.cycles config.level2.Level2.annotation
                  ~target:Annotation.Fpga ~weight:firing.Task_graph.work
              in
              Sim.Process.wait (Sim.Time.ns (cycles * config.fpga_period_ns));
              if config.masked then begin
                (* TMR: the majority vote at readout masks a single upset
                   copy — the result is correct and the dissenting copy
                   is repaired in the shadow of continued operation.  Only
                   a multi-copy corruption defeats the vote; then the
                   result is discarded and redone in software. *)
                match Fpga.Fpga.vote_and_repair fpga with
                | `Corrupt -> fire_sw_fallback ()
                | `Clean | `Masked ->
                    p.send ~master:"efpga" t firing.Task_graph.outputs
              end
              else if
                config.scrub_period_ns > 0
                && (corrupt_pre || Fpga.Fpga.loaded_corrupted fpga)
              then
                (* the result-integrity check that rides along with
                   scrubbing: a computation that overlapped a corrupt
                   interval is discarded and redone in software *)
                fire_sw_fallback ()
              else
                (* an unrepaired configuration upset makes the fabric
                   compute garbage — silently *)
                let outputs =
                  if corrupt_pre then
                    List.map Token.garble firing.Task_graph.outputs
                  else firing.Task_graph.outputs
                in
                p.send ~master:"efpga" t outputs)
    end
  in
  (* drain-time voter scan: an upset that lands after the last datapath
     use would otherwise go unobserved (periodic scrubbing is off in
     masked mode); the scan repairs it latency-free before the platform
     retires *)
  let drain () =
    if config.masked then ignore (Fpga.Fpga.vote_and_repair fpga)
  in
  let before_run (p : Level2.platform) =
    (* periodic readback scrubbing: detects and repairs configuration
       upsets; stops at the first wake after the schedule has drained *)
    if config.scrub_period_ns > 0 then
      Sim.Kernel.spawn p.kernel (fun () ->
          let rec loop () =
            Sim.Process.wait (Sim.Time.ns config.scrub_period_ns);
            if not (p.cpu_done ()) then begin
              ignore (Fpga.Fpga.scrub fpga ~bus:p.bus ~master:"scrubber");
              loop ()
            end
          in
          loop ());
    (* fault-injection tap: campaigns install bus/download hooks and
       spawn saboteur processes here, after the platform exists and
       before it runs.  [None] is the exact pre-fault code path. *)
    Option.iter (fun install -> install ~bus:p.bus ~fpga ~kernel:p.kernel) tap
  in
  let r =
    Level2.simulate ~config:config.level2 ~ecc:config.masked ~channel_loss
      ~fire_fpga ~drain ~before_run graph mapping
  in
  let schedule =
    List.filter_map
      (fun (t : Task_graph.task) ->
        match Mapping.target_of mapping t.Task_graph.name with
        | Mapping.Sw | Mapping.Fpga _ -> Some t.Task_graph.name
        | Mapping.Hw -> None)
      (Task_graph.topological_order graph)
  in
  {
    trace = r.Level2.trace;
    kernel_stats = r.Level2.kernel_stats;
    bus_report = r.Level2.bus_report;
    cpu_stats = r.Level2.cpu_stats;
    fpga_stats = Fpga.Fpga.stats fpga;
    latency_ns = r.Level2.latency_ns;
    call_sequence = List.rev !calls;
    sw_fallbacks = !sw_fallbacks;
    channel_occupancy = r.Level2.channel_occupancy;
    instrumented_sw = instrumented_program ~omit_load_for schedule mapping;
    config_info = config_info_of mapping;
  }
