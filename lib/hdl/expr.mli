(** Word-level combinational expressions over inputs and registers.

    Strict widths: binary arithmetic/logic requires equal operand widths
    and wraps; comparisons yield width-1 results. *)

type unop = Not | Neg
type binop = Add | Sub | Mul | And | Or | Xor | Eq | Ult | Ule

type t =
  | Const of Bitvec.t
  | Input of string
  | Reg of string
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t  (** [Mux (sel, then_, else_)], [sel] of width 1 *)
  | Slice of t * int * int  (** [Slice (e, hi, lo)] *)
  | Concat of t * t  (** [Concat (hi, lo)] *)

(** Constructors. *)

val const : width:int -> int -> t
val input : string -> t
val reg : string -> t
val not_ : t -> t
val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val eq : t -> t -> t
val ult : t -> t -> t
(** Unsigned less-than (width-1 result). *)

val ule : t -> t -> t
val mux : t -> t -> t -> t
val slice : t -> hi:int -> lo:int -> t
val concat : t -> t -> t

val binop_to_string : binop -> string

val infer_width :
  input_width:(string -> int option) ->
  reg_width:(string -> int option) ->
  t ->
  (int, string) result
(** Total static width inference: [Ok width], or [Error message] on
    undeclared names or width inconsistencies.  The message names the
    offending operator/name and the widths involved. *)

val width :
  input_width:(string -> int option) ->
  reg_width:(string -> int option) ->
  t ->
  int
(** Static width; raises [Invalid_argument] on undeclared names or width
    inconsistencies.  [width e = infer_width e] with the error raised. *)

val eval : input:(string -> Bitvec.t) -> reg:(string -> Bitvec.t) -> t -> Bitvec.t

val map_leaves : input:(string -> t) -> reg:(string -> t) -> t -> t
(** [map_leaves ~input ~reg e] replaces every [Input n] leaf of [e] by
    [input n] and every [Reg n] leaf by [reg n], keeping the rest of the
    tree as it is. *)

val fold_names :
  ('a -> [ `Input of string | `Reg of string ] -> 'a) -> 'a -> t -> 'a

val pp : Format.formatter -> t -> unit
