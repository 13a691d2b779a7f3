(* The resource governor: a budget and live spend counters, organised
   as a tree.  Children are granted shares of the
   remaining budget; their charges propagate to every ancestor, so the
   parent's "remaining" always reflects what the whole subtree spent and
   unspent allowance flows forward to the next phase.

   Determinism contract: the logical allowances (conflicts, patterns)
   are split and spent by arithmetic only.  Each parallel job receives
   its share *before* the fan-out, so which job exhausts first does not
   depend on scheduling — parallel runs reproduce sequential ones.  The
   wall-clock deadline is inherently a race against real time and is
   polled best-effort at step boundaries. *)

module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json
module Severity = Symbad_obs.Severity

type t = {
  label : string;
  budget : Budget.t;
  spent_conflicts : int Atomic.t;
  spent_patterns : int Atomic.t;
  parent : t option;
  children : t list Atomic.t;  (* newest first; [unlimited] keeps none *)
  retries : int Atomic.t;
  degradations : string list Atomic.t;  (* distinct reasons *)
  created : float;  (* host instant, [Unix.gettimeofday] scale *)
}

(* lock-free update of a list cell: children may be created and
   degradations noted on worker domains *)
let rec update cell f =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (f cur)) then update cell f

let node ~label ?parent budget =
  {
    label;
    budget;
    spent_conflicts = Atomic.make 0;
    spent_patterns = Atomic.make 0;
    parent;
    children = Atomic.make [];
    retries = Atomic.make 0;
    degradations = Atomic.make [];
    created = Unix.gettimeofday ();
  }

(* shared by the whole process, so it keeps no children: recording them
   would grow memory with every ungoverned run *)
let unlimited = node ~label:"unlimited" Budget.unlimited

let make ?(label = "gov") ?parent budget =
  let t = node ~label ?parent budget in
  (match parent with
  | Some p when p != unlimited -> update p.children (List.cons t)
  | Some _ | None -> ());
  t

let create ?label budget = make ?label budget
let get = function Some g -> g | None -> unlimited
let label t = t.label
let budget t = t.budget

(* --- spend accounting ------------------------------------------------- *)

let rec charge counter_of t n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add (counter_of t) n);
    match t.parent with Some p -> charge counter_of p n | None -> ()
  end

let charge_conflicts = charge (fun t -> t.spent_conflicts)
let charge_patterns = charge (fun t -> t.spent_patterns)

let spent_conflicts t = Atomic.get t.spent_conflicts
let spent_patterns t = Atomic.get t.spent_patterns

let left allowance spent =
  Option.map (fun a -> max 0 (a - Atomic.get spent)) allowance

let conflicts_left t = left t.budget.Budget.conflicts t.spent_conflicts
let patterns_left t = left t.budget.Budget.patterns t.spent_patterns

let remaining t =
  { t.budget with
    Budget.conflicts = conflicts_left t;
    patterns = patterns_left t }

(* --- exhaustion ------------------------------------------------------- *)

let exhaustion t =
  if conflicts_left t = Some 0 then Some Degrade.Conflicts
  else if patterns_left t = Some 0 then Some Degrade.Patterns
  else if Budget.deadline_over t.budget then Some Degrade.Deadline
  else None

let out_of_budget t = exhaustion t <> None

(* --- telemetry -------------------------------------------------------- *)

(* Obs routes these through the per-job buffer when called inside a Par
   worker (merged at the fan-in) and straight to the registry on the
   owning domain. *)
let event ?(severity = Severity.Info) ~counter name args =
  if Obs.enabled () then begin
    Obs.incr_counter counter;
    Obs.event ~severity ~args name
  end

let opt_int = function None -> Json.Null | Some n -> Json.Int n

let note_degraded t ~what reason =
  let r = Degrade.reason_string reason in
  update t.degradations (fun rs -> if List.mem r rs then rs else r :: rs);
  event ~severity:Severity.Warn ~counter:"gov.degradations" "gov.degrade"
    [
      ("gov", Json.Str t.label);
      ("what", Json.Str what);
      ("reason", Json.Str r);
    ]

(* --- hierarchy -------------------------------------------------------- *)

let split ?label:(l = "split") t n =
  let rem = remaining t in
  event ~counter:"gov.splits" "gov.split"
    [
      ("gov", Json.Str t.label);
      ("into", Json.Str l);
      ("shares", Json.Int n);
      ("conflicts_left", opt_int rem.Budget.conflicts);
      ("patterns_left", opt_int rem.Budget.patterns);
    ];
  List.mapi
    (fun i share ->
      make ~label:(Printf.sprintf "%s.%s/%d" t.label l i) ~parent:t share)
    (Budget.split ~n rem)

let slice ?label:(l = "slice") ~fraction t =
  let share = Budget.slice ~fraction (remaining t) in
  event ~counter:"gov.splits" "gov.split"
    [
      ("gov", Json.Str t.label);
      ("into", Json.Str l);
      ("fraction", Json.Float fraction);
      ("conflicts_left", opt_int share.Budget.conflicts);
      ("patterns_left", opt_int share.Budget.patterns);
    ];
  make ~label:(Printf.sprintf "%s.%s" t.label l) ~parent:t share

(* --- portfolio retry -------------------------------------------------- *)

let with_retry ?label:(l = "engine") t ~inconclusive run =
  let rec go attempt =
    let r = run ~attempt in
    if inconclusive r && attempt < t.budget.Budget.retries
       && not (out_of_budget t)
    then begin
      Atomic.incr t.retries;
      event ~counter:"gov.retries" "gov.retry"
        [
          ("gov", Json.Str t.label);
          ("what", Json.Str l);
          ("attempt", Json.Int (attempt + 1));
        ];
      go (attempt + 1)
    end
    else r
  in
  go 0

let pp fmt t =
  Fmt.pf fmt "%s: %a%a" t.label Budget.pp (remaining t)
    (fun fmt -> function
      | None -> ()
      | Some r -> Fmt.pf fmt " [%s]" (Degrade.reason_string r))
    (exhaustion t)

(* --- the budget waterfall --------------------------------------------- *)

type row = {
  label : string;
  parent : string option;
  depth : int;
  created : int;
  granted_conflicts : int option;
  granted_patterns : int option;
  granted_deadline_s : float option;
  granted_retries : int;
  charged_conflicts : int;
  charged_patterns : int;
  subtree_conflicts : int;
  subtree_patterns : int;
  retries : int;
  degradations : string list;
  first_at_us : float;
}

(* charges propagate, so a node's own charge is its spend less its
   children's *)
let self spent (t : t) =
  List.fold_left
    (fun acc c -> acc - Atomic.get (spent c))
    (Atomic.get (spent t))
    (Atomic.get t.children)

(* Nodes aggregate by label (a label reused by several nodes is one
   row); rows come roots first, then children sorted by label — the
   tree's shape is pool-width-invariant even when creation order is
   not. *)
let waterfall (root : t) =
  let groups : (string, t list) Hashtbl.t = Hashtbl.create 64 in
  let rec visit (n : t) =
    let same = Option.value ~default:[] (Hashtbl.find_opt groups n.label) in
    Hashtbl.replace groups n.label (n :: same);
    List.iter visit (Atomic.get n.children)
  in
  visit root;
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 in
  let add_grant acc g =
    match (acc, g) with Some a, Some b -> Some (a + b) | _ -> None
  in
  let grant f = List.fold_left (fun acc n -> add_grant acc (f n)) (Some 0) in
  let row label (nodes : t list) =
    let first =
      List.fold_left
        (fun (a : t) (n : t) -> if n.created < a.created then n else a)
        (List.hd nodes) nodes
    in
    {
      label;
      parent = Option.map (fun (p : t) -> p.label) first.parent;
      depth = 0;
      created = List.length nodes;
      granted_conflicts = grant (fun n -> n.budget.Budget.conflicts) nodes;
      granted_patterns = grant (fun n -> n.budget.Budget.patterns) nodes;
      granted_deadline_s =
        Option.map (fun d -> d -. first.created) first.budget.Budget.deadline;
      granted_retries =
        List.fold_left (fun acc n -> max acc n.budget.Budget.retries) 0 nodes;
      charged_conflicts = sum (self (fun n -> n.spent_conflicts)) nodes;
      charged_patterns = sum (self (fun n -> n.spent_patterns)) nodes;
      subtree_conflicts = sum spent_conflicts nodes;
      subtree_patterns = sum spent_patterns nodes;
      retries = sum (fun (n : t) -> Atomic.get n.retries) nodes;
      degradations =
        List.sort_uniq compare
          (List.concat_map (fun (n : t) -> Atomic.get n.degradations) nodes);
      first_at_us = (first.created -. root.created) *. 1e6;
    }
  in
  let rows = Hashtbl.fold (fun l ns acc -> row l ns :: acc) groups [] in
  let labels rs = List.sort compare (List.map (fun r -> r.label) rs) in
  let children l = labels (List.filter (fun r -> r.parent = Some l) rows) in
  let roots =
    labels
      (List.filter
         (fun r ->
           match r.parent with
           | None -> true
           | Some p -> not (Hashtbl.mem groups p))
         rows)
  in
  let rec emit depth l =
    let r = List.find (fun r -> r.label = l) rows in
    { r with depth } :: List.concat_map (emit (depth + 1)) (children l)
  in
  List.concat_map (emit 0) roots

let row_to_json ~timings (r : row) =
  Json.Obj
    [
      ("node", Json.Str r.label);
      ("parent", match r.parent with Some p -> Json.Str p | None -> Json.Null);
      ("depth", Json.Int r.depth);
      ("created", Json.Int r.created);
      ("granted_conflicts", opt_int r.granted_conflicts);
      ("granted_patterns", opt_int r.granted_patterns);
      ( "granted_deadline_s",
        if timings then
          match r.granted_deadline_s with
          | Some d -> Json.Float d
          | None -> Json.Null
        else Json.Null );
      ("granted_retries", Json.Int r.granted_retries);
      ("charged_conflicts", Json.Int r.charged_conflicts);
      ("charged_patterns", Json.Int r.charged_patterns);
      ("subtree_conflicts", Json.Int r.subtree_conflicts);
      ("subtree_patterns", Json.Int r.subtree_patterns);
      ("retries", Json.Int r.retries);
      ("degradations", Json.List (List.map (fun d -> Json.Str d) r.degradations));
      ("first_at_us", Json.Float (if timings then r.first_at_us else 0.));
    ]

let waterfall_to_json ?(timings = true) rows =
  Json.List (List.map (row_to_json ~timings) rows)

let grant_cell c p =
  let one = function None -> "∞" | Some n -> string_of_int n in
  Printf.sprintf "%s / %s" (one c) (one p)

let waterfall_to_markdown rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "| governor | granted (confl/patt) | spent (confl/patt) | subtree \
     (confl/patt) | retries | degraded |\n";
  Buffer.add_string b "|---|---|---|---|---|---|\n";
  List.iter
    (fun (r : row) ->
      Buffer.add_string b
        (Printf.sprintf "| %s%s | %s | %d / %d | %d / %d | %d | %s |\n"
           (String.concat "" (List.init r.depth (fun _ -> "&nbsp;&nbsp;")))
           r.label
           (grant_cell r.granted_conflicts r.granted_patterns)
           r.charged_conflicts r.charged_patterns r.subtree_conflicts
           r.subtree_patterns r.retries
           (match r.degradations with
           | [] -> "—"
           | ds -> String.concat ", " ds)))
    rows;
  Buffer.contents b
