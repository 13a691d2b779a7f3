(* CDCL SAT solver (MiniSat architecture): two-watched-literal
   propagation, first-UIP clause learning, VSIDS-style activities with
   phase saving, and Luby restarts.  Literals are non-zero ints: [v] is
   the positive literal of variable [v >= 1], [-v] its negation.

   Hot-path structures: decisions come from a binary max-heap over the
   variables (Eén & Sörensson, "An Extensible SAT-solver", 2003),
   watches live in one growable int stack per literal, conflict
   analysis marks variables in a flat array, and the assumptions of a
   [solve] call are indexed as an array.

   Search identity: the search is fixed, not just its verdicts.  The
   heap orders by activity, then lower variable index first (the
   variable a linear scan with a strict [>] would pick); a watch stack's
   top is the most recently added watch, and [propagate] visits it
   top-down and leaves the kept watches bottom-up in visit order.  Every
   decision, propagation, learned clause and restart is part of the
   contract that verdicts, traces, governed verdict mixes, cache keys
   and bench baselines rely on, so a change here that keeps the search
   needs no [Mc.Engine.version] bump.  test_sat.ml pins the effort of
   fixed instances. *)

type result = Sat | Unsat | Unknown

type t = {
  mutable nvars : int;
  mutable clauses : int array array;
  mutable nclauses : int;
  (* per-literal arrays are indexed by [var_cap + l], where var_cap is
     the capacity of the per-variable arrays *)
  mutable var_cap : int;
  (* lit_value: 0 undef, 1 true, -1 false *)
  mutable lit_value : int array;
  (* watches.(var_cap + l).(0 .. watch_size.(var_cap + l) - 1) = ids of
     the clauses watching literal l, most recent on top *)
  mutable watches : int array array;
  mutable watch_size : int array;
  mutable watch_buf : int array; (* propagate's copy of the visited stack *)
  mutable level : int array;
  mutable reason : int array; (* clause id or -1 *)
  mutable activity : float array;
  mutable phase : bool array; (* saved polarity *)
  mutable seen : bool array; (* analyze's marks; all false between calls *)
  (* decision heap: heap.(0 .. heap_size - 1) holds variables, best
     first; heap_pos.(v) is v's slot or -1.  Every unassigned variable
     is in the heap; assigned ones are dropped when they surface. *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array;
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;
  mutable trail_lim_size : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool; (* false once root-level conflict found *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable learned : int;
  mutable restarts : int;
}

(* --- decision heap: activity descending, then lower index first ---
   The order is total, so the top never depends on the heap's shape. *)

let before s a b =
  let aa = s.activity.(a) and ab = s.activity.(b) in
  aa > ab || (aa = ab && a < b)

let heap_set s i v =
  s.heap.(i) <- v;
  s.heap_pos.(v) <- i

let rec sift_up s i v =
  let parent = (i - 1) / 2 in
  if i > 0 && before s v s.heap.(parent) then begin
    heap_set s i s.heap.(parent);
    sift_up s parent v
  end
  else heap_set s i v

let rec sift_down s i v =
  let l = (2 * i) + 1 in
  if l >= s.heap_size then heap_set s i v
  else begin
    let r = l + 1 in
    let c =
      if r < s.heap_size && before s s.heap.(r) s.heap.(l) then r else l
    in
    if before s s.heap.(c) v then begin
      heap_set s i s.heap.(c);
      sift_down s c v
    end
    else heap_set s i v
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap_size <- s.heap_size + 1;
    sift_up s (s.heap_size - 1) v
  end

let heap_pop s =
  let top = s.heap.(0) in
  s.heap_pos.(top) <- -1;
  s.heap_size <- s.heap_size - 1;
  if s.heap_size > 0 then sift_down s 0 s.heap.(s.heap_size);
  top

let heapify s =
  for i = (s.heap_size / 2) - 1 downto 0 do
    sift_down s i s.heap.(i)
  done

let create nvars =
  if nvars < 0 then invalid_arg "Solver.create: nvars";
  let n = nvars + 1 in
  {
    nvars;
    clauses = Array.make 16 [||];
    nclauses = 0;
    var_cap = n;
    lit_value = Array.make (2 * n) 0;
    watches = Array.make (2 * n) [||];
    watch_size = Array.make (2 * n) 0;
    watch_buf = Array.make 16 0;
    level = Array.make n 0;
    reason = Array.make n (-1);
    activity = Array.make n 0.;
    phase = Array.make n false;
    seen = Array.make n false;
    (* all activities are 0, so 1..nvars in index order is a heap *)
    heap = Array.init n (fun i -> i + 1);
    heap_size = nvars;
    heap_pos = Array.init n (fun v -> v - 1);
    trail = Array.make n 0;
    trail_size = 0;
    trail_lim = Array.make (n + 1) 0;
    trail_lim_size = 0;
    qhead = 0;
    var_inc = 1.;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    learned = 0;
    restarts = 0;
  }

let nvars s = s.nvars

let new_var s =
  let v = s.nvars + 1 in
  s.nvars <- v;
  if v >= s.var_cap then begin
    let cap = max (2 * s.var_cap) (v + 1) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    (* per-literal arrays are re-centred on the new capacity *)
    let grow_lits a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b (cap - s.var_cap) (2 * s.var_cap);
      b
    in
    s.lit_value <- grow_lits s.lit_value 0;
    s.watches <- grow_lits s.watches [||];
    s.watch_size <- grow_lits s.watch_size 0;
    s.var_cap <- cap;
    s.level <- grow s.level 0;
    s.reason <- grow s.reason (-1);
    s.activity <- grow s.activity 0.;
    s.phase <- grow s.phase false;
    s.seen <- grow s.seen false;
    s.heap <- grow s.heap 0;
    s.heap_pos <- grow s.heap_pos (-1);
    s.trail <- grow s.trail 0;
    let tl = Array.make (cap + 1) 0 in
    Array.blit s.trail_lim 0 tl 0 (Array.length s.trail_lim);
    s.trail_lim <- tl
  end;
  heap_insert s v;
  v

let value_lit s l = s.lit_value.(s.var_cap + l)

let decision_level s = s.trail_lim_size

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let v = abs s.trail.(i) in
      s.lit_value.(s.var_cap + v) <- 0;
      s.lit_value.(s.var_cap - v) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.trail_lim_size <- lvl
  end

let enqueue s lit reason =
  let v = abs lit in
  s.lit_value.(s.var_cap + lit) <- 1;
  s.lit_value.(s.var_cap - lit) <- -1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- lit > 0;
  s.trail.(s.trail_size) <- lit;
  s.trail_size <- s.trail_size + 1

let push_clause s lits =
  if s.nclauses = Array.length s.clauses then begin
    let a = Array.make (2 * s.nclauses) [||] in
    Array.blit s.clauses 0 a 0 s.nclauses;
    s.clauses <- a
  end;
  s.clauses.(s.nclauses) <- lits;
  s.nclauses <- s.nclauses + 1;
  s.nclauses - 1

(* Push clause [cid] on the watch stack of [lit]. *)
let watch s lit cid =
  let i = s.var_cap + lit in
  let n = s.watch_size.(i) in
  if n = Array.length s.watches.(i) then begin
    let w = Array.make (max 4 (2 * n)) 0 in
    Array.blit s.watches.(i) 0 w 0 n;
    s.watches.(i) <- w
  end;
  s.watches.(i).(n) <- cid;
  s.watch_size.(i) <- n + 1

(* Add a problem clause.  Simplifies out true/duplicate literals; detects
   tautologies.  Simplification against the assignment is only sound at
   decision level 0, so any leftover search state from a previous [solve]
   is backtracked first — this is what makes the incremental pattern
   (solve, add frame clauses, solve again) safe. *)
let add_clause s lits =
  cancel_until s 0;
  if s.ok then begin
    List.iter
      (fun l ->
        let v = abs l in
        if v = 0 || v > s.nvars then
          invalid_arg (Printf.sprintf "Solver.add_clause: bad literal %d" l))
      lits;
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (-l) lits) lits
      || List.exists (fun l -> value_lit s l = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> value_lit s l <> -1) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] -> enqueue s l (-1)
      | l0 :: l1 :: _ ->
          let cid = push_clause s (Array.of_list lits) in
          watch s l0 cid;
          watch s l1 cid
    end
  end

(* Two-watched-literal unit propagation.  Returns the id of a conflicting
   clause, or -1.  A falsified literal's stack is copied aside and
   visited top-down; the watches kept (on a conflict, also the unvisited
   rest) are written back from the bottom in visit order.  No watch
   moves onto the visited stack meanwhile: a new watch is never false. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let falsified = -p in
    let idx = s.var_cap + falsified in
    let n = s.watch_size.(idx) in
    if n > Array.length s.watch_buf then
      s.watch_buf <- Array.make (max n (2 * Array.length s.watch_buf)) 0;
    let visit = s.watch_buf and ws = s.watches.(idx) in
    Array.blit ws 0 visit 0 n;
    let kept = ref 0 in
    let i = ref (n - 1) in
    while !i >= 0 do
      let cid = visit.(!i) in
      decr i;
      let lits = s.clauses.(cid) in
      (* ensure falsified watch is at position 1 *)
      if lits.(0) = falsified then begin
        lits.(0) <- lits.(1);
        lits.(1) <- falsified
      end;
      if value_lit s lits.(0) = 1 then begin
        (* clause satisfied; keep watching *)
        ws.(!kept) <- cid;
        incr kept
      end
      else begin
        (* look for a new watch *)
        let len = Array.length lits in
        let k = ref 2 in
        while !k < len && value_lit s lits.(!k) = -1 do
          incr k
        done;
        if !k < len then begin
          lits.(1) <- lits.(!k);
          lits.(!k) <- falsified;
          watch s lits.(1) cid
        end
        else begin
          (* unit or conflicting *)
          ws.(!kept) <- cid;
          incr kept;
          if value_lit s lits.(0) = -1 then begin
            (* conflict: keep the remaining watches and stop *)
            while !i >= 0 do
              ws.(!kept) <- visit.(!i);
              incr kept;
              decr i
            done;
            conflict := cid
          end
          else enqueue s lits.(0) cid
        end
      end
    done;
    s.watch_size.(idx) <- !kept
  done;
  !conflict

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100;
    (* rounding can turn distinct activities into ties, which the heap
       breaks by index: rebuild it rather than sift one variable *)
    heapify s
  end
  else if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v) v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* First-UIP conflict analysis.  Returns (learned clause, backjump level);
   learned.(0) is the asserting literal. *)
let analyze s conflict_cid =
  let seen = s.seen in
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref 0 in
  (* 0 = start with whole conflict clause *)
  let cid = ref conflict_cid in
  let trail_pos = ref (s.trail_size - 1) in
  let asserting = ref 0 in
  let continue_loop = ref true in
  while !continue_loop do
    let lits = s.clauses.(!cid) in
    for k = 0 to Array.length lits - 1 do
      let q = lits.(k) in
      if q <> !p then begin
        let v = abs q in
        if (not seen.(v)) && s.level.(v) > 0 then begin
          seen.(v) <- true;
          var_bump s v;
          if s.level.(v) >= decision_level s then incr counter
          else learned := q :: !learned
        end
      end
    done;
    (* pick next literal to expand from the trail *)
    let rec next_seen i =
      if seen.(abs s.trail.(i)) then i else next_seen (i - 1)
    in
    let i = next_seen !trail_pos in
    trail_pos := i - 1;
    let lit = s.trail.(i) in
    let v = abs lit in
    seen.(v) <- false;
    decr counter;
    if !counter = 0 then begin
      asserting := -lit;
      continue_loop := false
    end
    else begin
      (* expand v's reason clause; skip the propagated literal itself *)
      p := lit;
      cid := s.reason.(v)
    end
  done;
  (* the current level's marks are cleared as the trail is walked; the
     lower-level literals of the learned clause are the only marks left *)
  List.iter (fun l -> seen.(abs l) <- false) !learned;
  let learned = !asserting :: !learned in
  let backjump =
    match learned with
    | [ _ ] -> 0
    | _ :: rest ->
        List.fold_left (fun acc l -> max acc s.level.(abs l)) 0 rest
    | [] -> 0
  in
  (Array.of_list learned, backjump)

let record_learned s lits =
  s.learned <- s.learned + 1;
  if Array.length lits = 1 then enqueue s lits.(0) (-1)
  else begin
    (* watch the asserting literal and a highest-level literal *)
    let best = ref 1 in
    for i = 2 to Array.length lits - 1 do
      if s.level.(abs lits.(i)) > s.level.(abs lits.(!best)) then best := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    let cid = push_clause s lits in
    watch s lits.(0) cid;
    watch s lits.(1) cid;
    enqueue s lits.(0) cid
  end

(* The unassigned variable of highest activity, lowest index on ties;
   0 once every variable is assigned. *)
let rec pick_branch_var s =
  if s.heap_size = 0 then 0
  else
    let v = heap_pop s in
    if value_lit s v = 0 then v else pick_branch_var s

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let rec find k = if (1 lsl k) - 1 >= i then k else find (k + 1) in
  let k = find 1 in
  if (1 lsl k) - 1 = i then 1 lsl (k - 1)
  else luby (i - (1 lsl (k - 1)) + 1)

let solve_search ?(assumptions = []) ?gov s =
  (* the governor is the only limit: its conflict allowance caps this
     call, and the deadline is polled at every conflict —
     conflicts are heavy enough that one clock read is noise *)
  let conflict_limit =
    match Option.bind gov Symbad_gov.Gov.conflicts_left with
    | Some left -> left
    | None -> max_int
  in
  let gov_out () =
    match gov with Some g -> Symbad_gov.Gov.out_of_budget g | None -> false
  in
  if gov_out () then Unknown
  else if not s.ok then Unsat
  else begin
    cancel_until s 0;
    let conflict0 = propagate s in
    if conflict0 >= 0 then begin
      s.ok <- false;
      Unsat
    end
    else begin
      (* assumptions are assumed in order at successive levels *)
      let assumptions = Array.of_list assumptions in
      let nassumptions = Array.length assumptions in
      let restart_count = ref 0 in
      let result = ref None in
      let start_conflicts = s.conflicts in
      let conflicts_until_restart () = 100 * luby (!restart_count + 1) in
      let restart_limit = ref (conflicts_until_restart ()) in
      let conflicts_this_restart = ref 0 in
      let new_level () =
        s.trail_lim.(s.trail_lim_size) <- s.trail_size;
        s.trail_lim_size <- s.trail_lim_size + 1
      in
      while Option.is_none !result do
        let cid = propagate s in
        if cid >= 0 then begin
          s.conflicts <- s.conflicts + 1;
          incr conflicts_this_restart;
          if decision_level s <= nassumptions then begin
            (* conflict under assumptions only: unsat *)
            if decision_level s = 0 then s.ok <- false;
            result := Some Unsat
          end
          else begin
            let learned, backjump = analyze s cid in
            cancel_until s (max backjump nassumptions);
            record_learned s learned;
            var_decay s;
            if s.conflicts - start_conflicts >= conflict_limit || gov_out ()
            then result := Some Unknown
            else if !conflicts_this_restart >= !restart_limit then begin
              incr restart_count;
              s.restarts <- s.restarts + 1;
              conflicts_this_restart := 0;
              restart_limit := conflicts_until_restart ();
              cancel_until s nassumptions
            end
          end
        end
        else begin
          (* decision *)
          let lvl = decision_level s in
          if lvl < nassumptions then begin
            let a = assumptions.(lvl) in
            match value_lit s a with
            | 1 ->
                (* already true: open an empty level to keep indices aligned *)
                new_level ()
            | -1 -> result := Some Unsat
            | _ ->
                new_level ();
                enqueue s a (-1)
          end
          else begin
            let v = pick_branch_var s in
            if v = 0 then result := Some Sat
            else begin
              s.decisions <- s.decisions + 1;
              new_level ();
              enqueue s (if s.phase.(v) then v else -v) (-1)
            end
          end
        end
      done;
      match !result with Some r -> r | None -> assert false
    end
  end

let result_string = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

(* Telemetry shell around the search: a span per [solve] call and the
   effort deltas (conflicts, propagations, restarts, ...) flushed to the
   metrics registry once the call returns.  The governor is charged the
   conflicts spent on every exit path, including exceptional ones. *)
let solve ?assumptions ?gov s =
  let module Obs = Symbad_obs.Obs in
  let module Json = Symbad_obs.Json in
  let c_start = s.conflicts in
  let settle () =
    match gov with
    | Some g -> Symbad_gov.Gov.charge_conflicts g (s.conflicts - c_start)
    | None -> ()
  in
  let solve_search ?assumptions ?gov s =
    match solve_search ?assumptions ?gov s with
    | r ->
        settle ();
        r
    | exception e ->
        settle ();
        raise e
  in
  if not (Obs.enabled ()) then solve_search ?assumptions ?gov s
  else begin
    let c0 = s.conflicts
    and p0 = s.propagations
    and d0 = s.decisions
    and r0 = s.restarts in
    let sp =
      Obs.begin_span ~cat:"sat"
        ~args:[ ("vars", Json.Int s.nvars); ("clauses", Json.Int s.nclauses) ]
        "sat.solve"
    in
    let finish result =
      (* through the facade: a solve inside a Par job flushes into the
         job's buffer, not the (foreign) global registry *)
      let flush name v = Obs.incr_counter ~by:v name in
      flush "sat.solves" 1;
      flush "sat.conflicts" (s.conflicts - c0);
      flush "sat.propagations" (s.propagations - p0);
      flush "sat.decisions" (s.decisions - d0);
      flush "sat.restarts" (s.restarts - r0);
      Obs.end_span
        ~args:
          [
            ("result", Json.Str (match result with
              | Some r -> result_string r
              | None -> "exception"));
            ("conflicts", Json.Int (s.conflicts - c0));
          ]
        sp
    in
    match solve_search ?assumptions ?gov s with
    | r ->
        finish (Some r);
        r
    | exception e ->
        finish None;
        raise e
  end

(* Model access: only meaningful right after [solve] returned [Sat]. *)
let model_value s v =
  if v < 1 || v > s.nvars then invalid_arg "Solver.model_value";
  value_lit s v = 1

let model s = Array.init (s.nvars + 1) (fun v -> v >= 1 && value_lit s v = 1)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;
  restarts : int;
}

let stats (s : t) =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    learned = s.learned;
    restarts = s.restarts;
  }
