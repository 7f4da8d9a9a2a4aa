(** Strict RFC 8259 JSON parser, for linting the [vswapper_sim run
    --json] summaries; [benchmark/] builds and parses its results on [t] too.

    Strictness is the point: the bench writer once emitted positive
    deltas as [+2.943] (printf [%+.3f]), which every stock parser
    rejects — a permissive checker would have waved the bug through.
    This parser accepts exactly the RFC grammar: no leading ['+'] or
    leading zeros on numbers, no trailing commas, no comments, one
    top-level value.  [\u] escapes are validated but decoded as ['?']
    (the linter never needs the code points). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in document order *)

(** [parse s] parses the whole string as one JSON value. *)
val parse : string -> (t, string) result

(** [validate s] is [parse] with the value dropped. *)
val validate : string -> (unit, string) result

(** [member key v] looks a field up in an [Obj]; [None] on missing keys
    and non-objects. *)
val member : string -> t -> t option
