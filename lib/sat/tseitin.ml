(* Tseitin gate encodings: build combinational logic directly into a
   solver's clause database.  Each gate returns the literal of a fresh
   variable constrained to equal the gate function.  This is the
   bit-blasting backend used by Symbad_hdl.Unroll and the SAT ATPG
   engine. *)

type ctx = {
  solver : Solver.t;
  lit_true : int; (* literal asserted true, for constant folding *)
}

let create solver =
  let t = Solver.new_var solver in
  Solver.add_clause solver [ t ];
  { solver; lit_true = t }

let solver ctx = ctx.solver
let const_true ctx = ctx.lit_true
let const_false ctx = -ctx.lit_true
let of_bool ctx b = if b then ctx.lit_true else -ctx.lit_true

let fresh ctx = Solver.new_var ctx.solver

let and_gate ctx a b =
  if a = b then a
  else if a = -b then const_false ctx
  else if a = ctx.lit_true then b
  else if b = ctx.lit_true then a
  else if a = -ctx.lit_true || b = -ctx.lit_true then const_false ctx
  else begin
    let o = fresh ctx in
    Solver.add_clause ctx.solver [ -o; a ];
    Solver.add_clause ctx.solver [ -o; b ];
    Solver.add_clause ctx.solver [ o; -a; -b ];
    o
  end

let or_gate ctx a b = -and_gate ctx (-a) (-b)

let xor_gate ctx a b =
  if a = b then const_false ctx
  else if a = -b then const_true ctx
  else if a = ctx.lit_true then -b
  else if a = -ctx.lit_true then b
  else if b = ctx.lit_true then -a
  else if b = -ctx.lit_true then a
  else begin
    let o = fresh ctx in
    Solver.add_clause ctx.solver [ -o; a; b ];
    Solver.add_clause ctx.solver [ -o; -a; -b ];
    Solver.add_clause ctx.solver [ o; -a; b ];
    Solver.add_clause ctx.solver [ o; a; -b ];
    o
  end

let iff_gate ctx a b = -xor_gate ctx a b

(* if s then a else b *)
let mux_gate ctx ~sel a b =
  if a = b then a
  else if sel = ctx.lit_true then a
  else if sel = -ctx.lit_true then b
  else begin
    let o = fresh ctx in
    Solver.add_clause ctx.solver [ -o; -sel; a ];
    Solver.add_clause ctx.solver [ -o; sel; b ];
    Solver.add_clause ctx.solver [ o; -sel; -a ];
    Solver.add_clause ctx.solver [ o; sel; -b ];
    o
  end

let and_list ctx = function
  | [] -> const_true ctx
  | l :: ls -> List.fold_left (and_gate ctx) l ls

(* Full adder: returns (sum, carry). *)
let full_adder ctx a b cin =
  let sum = xor_gate ctx (xor_gate ctx a b) cin in
  let carry =
    or_gate ctx (and_gate ctx a b) (and_gate ctx cin (xor_gate ctx a b))
  in
  (sum, carry)

let assert_lit ctx l = Solver.add_clause ctx.solver [ l ]
