(** Data sizes.

    A {!t} is an amount of data in bytes, carried as a non-negative float so
    that it composes with rates and durations without overflow concerns.
    Binary prefixes are used throughout: the paper's "GB" is [2^30] bytes and
    its "TB" is [1024 GB] (verified against the case study arithmetic, see
    DESIGN.md). *)

type t

val zero : t

val bytes : float -> t
(** [bytes b] is a size of [b] bytes. Raises [Invalid_argument] if [b] is
    negative or not finite. *)

val kib : float -> t
val mib : float -> t
val gib : float -> t
val tib : float -> t

val to_bytes : t -> float
val to_gib : t -> float
val to_tib : t -> float

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b], clamped at {!zero} if [b > a]. *)

val scale : float -> t -> t
(** [scale k s] is [k] times [s]. [k] must be non-negative and finite. *)

val ratio : t -> t -> float
(** [ratio num denom] is the dimensionless quotient. Raises
    [Division_by_zero] when [denom] is {!zero}. *)

val min : t -> t -> t
val max : t -> t -> t
val sum : t list -> t

val is_zero : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t

val pp : t Fmt.t
(** Human-readable rendering with an automatically chosen binary prefix,
    e.g. ["1.33 TiB"]. *)

val to_string : t -> string
