(** Event severities, ordered [Info < Warn < Error]; a trace instant
    exports its severity as the Chrome category. *)

type t = Info | Warn | Error

val to_string : t -> string
(** Lowercase name, e.g. ["warn"]. *)
