(* Event severities, ordered from mildest to gravest. *)

type t = Info | Warn | Error

let to_string = function Info -> "info" | Warn -> "warn" | Error -> "error"
