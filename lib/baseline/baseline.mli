(** The registry of committed bench baselines.

    One entry per [BENCH_*.json] file at the repository root.  Each
    entry states, in one place, the file's rows, how each row is
    measured, and which fields a fresh run is held to:

    - {e exact} fields (determinism columns: verdict mixes, diagnostic
      counts, campaign reports, identity flags) must be reproduced
      byte for byte;
    - {e wall} fields (host seconds) may grow up to a tolerance factor;
    - {e committed} fields must hold a fixed value in the file itself
      (an identity flag recorded as [false] is a shipped determinism
      break), with no run needed;
    - every other field is informational.

    Slow rows are re-measured only on request ([full]).  The record
    modes of [bench/main.exe] ({!record}) and [symbad bench --check]
    ({!load}, {!check}) both walk {!all}, so the file a recorder writes
    and the fields a checker reads cannot drift apart. *)

type t

val all : t list
(** par, inc, gov, resil, tmr and lint, in that order. *)

val name : t -> string
(** Short name, the prefix of every check label (["lint"]). *)

val file : t -> string
(** File name, relative to the baseline directory (["BENCH_lint.json"]). *)

val mode : t -> string
(** The [bench/main.exe] mode that records it (["lint"]). *)

val of_mode : string -> t option

val fields : t -> string list list
(** Every path, from the file's root, that the entry's checks read. *)

val record : ?out:string -> t -> bool
(** Measure every row, narrating a human summary on stdout, and write
    the document to [out] (with a trailing newline) or print it when
    [out] is absent.  [false] when the fresh document breaks a
    committed-value check, i.e. it could not serve as the baseline. *)

val load : dir:string -> t -> (Symbad_obs.Json.t, string) result
(** Read and parse [dir/file] and make sure it holds every field the
    checks read (wall fields as numbers).  The error names the file and
    says whether it is missing or malformed. *)

type outcome = {
  label : string;
  failure : string option;  (** [None] when the check holds *)
}

val check :
  full:bool -> tolerance:float -> t -> Symbad_obs.Json.t -> outcome list
(** Check a loaded baseline: committed values directly, exact and wall
    fields against a fresh measurement (a cheaper one where the entry
    has it; slow rows only when [full]).  One outcome per check run. *)
