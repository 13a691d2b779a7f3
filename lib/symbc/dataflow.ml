(* The one FPGA-state may-analysis: a worklist fixpoint over any graph
   whose edges carry CFG actions, instantiated on a single CFG and on
   the interleaved product of two. *)

module States = Set.Make (struct
  type t = Check.fpga_state

  let compare = compare
end)

(* [succ n k] calls [k dst action] for every edge out of node [n]. *)
let solve ~nnodes ~entry ~succ =
  let states = Array.make nnodes States.empty in
  states.(entry) <- States.singleton Check.Unloaded;
  let queue = Queue.create () and queued = Array.make nnodes false in
  let push n =
    if not queued.(n) then begin
      queued.(n) <- true;
      Queue.push n queue
    end
  in
  push entry;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    queued.(n) <- false;
    let s = states.(n) in
    succ n (fun dst (action : Cfg.action) ->
        let out =
          match action with
          | Cfg.Reconfig c -> States.singleton (Check.Loaded c)
          | Cfg.Nop | Cfg.Call _ -> s
        in
        if not (States.subset out states.(dst)) then begin
          states.(dst) <- States.union states.(dst) out;
          push dst
        end)
  done;
  states

let solo (cfg : Cfg.t) =
  let out = Cfg.out_edges cfg in
  solve ~nnodes:cfg.Cfg.nnodes ~entry:cfg.Cfg.entry ~succ:(fun n k ->
      List.iter (fun (e : Cfg.edge) -> k e.Cfg.dst e.Cfg.action) out.(n))

let product (a : Cfg.t) (b : Cfg.t) =
  let nb = b.Cfg.nnodes in
  let out_a = Cfg.out_edges a and out_b = Cfg.out_edges b in
  solve ~nnodes:(a.Cfg.nnodes * nb)
    ~entry:((a.Cfg.entry * nb) + b.Cfg.entry)
    ~succ:(fun n k ->
      let u = n / nb and v = n mod nb in
      List.iter
        (fun (e : Cfg.edge) -> k ((e.Cfg.dst * nb) + v) e.Cfg.action)
        out_a.(u);
      List.iter
        (fun (e : Cfg.edge) -> k ((u * nb) + e.Cfg.dst) e.Cfg.action)
        out_b.(v))

let unavailable info f s =
  States.filter (fun st -> not (Check.call_ok info st f)) s
