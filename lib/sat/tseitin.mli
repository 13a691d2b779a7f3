(** Tseitin gate encodings over a {!Solver} clause database.

    Gates return literals; constants are folded so that circuits built
    over known inputs cost nothing. *)

type ctx

val create : Solver.t -> ctx
val solver : ctx -> Solver.t

val const_true : ctx -> int
val const_false : ctx -> int
val of_bool : ctx -> bool -> int

val fresh : ctx -> int
(** A fresh unconstrained variable (as a positive literal). *)

val and_gate : ctx -> int -> int -> int
val or_gate : ctx -> int -> int -> int
val xor_gate : ctx -> int -> int -> int
val iff_gate : ctx -> int -> int -> int

val mux_gate : ctx -> sel:int -> int -> int -> int
(** [mux_gate ~sel a b] is [if sel then a else b]. *)

val and_list : ctx -> int list -> int

val full_adder : ctx -> int -> int -> int -> int * int
(** [(sum, carry)] of a one-bit full adder. *)

val assert_lit : ctx -> int -> unit
(** Constrain a literal to hold. *)
