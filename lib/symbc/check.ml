(* The SymbC consistency check.

   Fundamental property: "each time the software requires a hardware
   resource of the reconfigurable part, this resource is actually
   available".

   Because the FPGA state is exactly "no configuration loaded yet" or
   "configuration c loaded", the product of the CFG with that finite
   state is a faithful abstraction of every execution's reconfiguration
   behaviour.  Exhaustive reachability on the product yields either a
   per-program-point invariant (the certificate: at this point the FPGA
   can only be in these states, and every outgoing call is available in
   all of them) or a shortest counterexample path ending in a call to a
   function absent from the (possibly missing) loaded configuration. *)

type fpga_state = Unloaded | Loaded of string

let fpga_state_to_string = function
  | Unloaded -> "<no configuration>"
  | Loaded c -> c

type step = { action : Cfg.action; state_after : fpga_state }

type counterexample = {
  failing_call : string;
  state_at_call : fpga_state;
  path : step list;  (* actions from program entry to the failing call *)
}

type certificate = {
  invariants : (int * fpga_state list) list;
      (* program point -> possible FPGA states *)
  calls_checked : int;
}

type verdict = Consistent of certificate | Inconsistent of counterexample

(* A call is safe in a given FPGA state if the function is plain SW, or
   the loaded configuration is a known one that provides it. *)
let call_ok info state f =
  if not (Config_info.is_fpga_function info f) then true
  else
    match state with
    | Unloaded -> false
    | Loaded c ->
        Config_info.has_configuration info c
        && Config_info.provides info ~config:c f

let check info (program : Ast.program) =
  (* reject programs loading unknown configurations outright *)
  List.iter
    (fun c ->
      if not (Config_info.has_configuration info c) then
        invalid_arg ("Symbc.check: program loads unknown configuration " ^ c))
    (Ast.loaded_configs program);
  let cfg = Cfg.build program in
  let out = Cfg.out_edges cfg in
  let module Key = struct
    type t = int * fpga_state
  end in
  let visited : (Key.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let parent : (Key.t, Key.t * Cfg.action) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let start = (cfg.Cfg.entry, Unloaded) in
  Hashtbl.add visited start ();
  Queue.push start queue;
  let calls_checked = ref 0 in
  let rebuild_path key =
    let rec go key acc =
      match Hashtbl.find_opt parent key with
      | None -> acc
      | Some (prev, action) ->
          let _, state_after = key in
          go prev ({ action; state_after } :: acc)
    in
    go key []
  in
  let exception Violation of counterexample in
  try
    while not (Queue.is_empty queue) do
      let ((node, state) as key) = Queue.pop queue in
      List.iter
        (fun (e : Cfg.edge) ->
          let state' =
            match e.Cfg.action with
            | Cfg.Reconfig c -> Loaded c
            | Cfg.Nop | Cfg.Call _ -> state
          in
          (match e.Cfg.action with
          | Cfg.Call f ->
              incr calls_checked;
              if not (call_ok info state f) then begin
                let key' = (e.Cfg.dst, state') in
                if not (Hashtbl.mem parent key') then
                  Hashtbl.add parent key' (key, e.Cfg.action);
                raise
                  (Violation
                     {
                       failing_call = f;
                       state_at_call = state;
                       path = rebuild_path key';
                     })
              end
          | Cfg.Nop | Cfg.Reconfig _ -> ());
          let key' = (e.Cfg.dst, state') in
          if not (Hashtbl.mem visited key') then begin
            Hashtbl.add visited key' ();
            Hashtbl.add parent key' (key, e.Cfg.action);
            Queue.push key' queue
          end)
        out.(node)
    done;
    (* certificate: group reachable states by program point *)
    let inv : (int, fpga_state list) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (node, state) () ->
        let cur = Option.value ~default:[] (Hashtbl.find_opt inv node) in
        if not (List.mem state cur) then Hashtbl.replace inv node (state :: cur))
      visited;
    let invariants =
      Hashtbl.fold (fun node states acc -> (node, states) :: acc) inv []
      |> List.sort compare
    in
    Consistent { invariants; calls_checked = !calls_checked }
  with Violation cex -> Inconsistent cex

let pp_step fmt s =
  Fmt.pf fmt "%s  [fpga: %s]" (Cfg.action_to_string s.action)
    (fpga_state_to_string s.state_after)

let pp_verdict fmt = function
  | Consistent { invariants; calls_checked } ->
      Fmt.pf fmt
        "CONSISTENT: certificate over %d program points, %d call sites checked"
        (List.length invariants) calls_checked
  | Inconsistent cex ->
      Fmt.pf fmt
        "INCONSISTENT: %s() invoked with FPGA state %s@.counterexample path:@."
        cex.failing_call
        (fpga_state_to_string cex.state_at_call);
      List.iter (fun s -> Fmt.pf fmt "  %a@." pp_step s) cex.path
