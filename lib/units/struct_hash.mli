(** Allocation-light structural hashing for cache keys.

    A 128-bit accumulator folded over a value's structure by an explicit
    walker, replacing the Marshal + MD5 round-trip previously used for
    {!Design.fingerprint}-style canonical keys: no intermediate byte
    serialization is built, and each leaf costs a few integer multiplies.

    Walkers must feed every semantically significant leaf (and a tag for
    every variant constructor) so that structurally equal values hash equal
    and unequal ones almost surely do not. Floats are hashed by bit
    pattern, so [-0.] and [0.] differ — as they did under [Marshal]. *)

type t

val init : t
(** The fixed seed every walk starts from: hashes are stable within and
    across processes, making them usable as persistent cache keys. *)

val int : t -> int -> t
val int64 : t -> int64 -> t
val bool : t -> bool -> t

val float : t -> float -> t
(** Hashes the IEEE-754 bit pattern ([Int64.bits_of_float]). *)

val string : t -> string -> t
(** Length-prefixed, so concatenation boundaries cannot collide. *)

val option : (t -> 'a -> t) -> t -> 'a option -> t
val list : (t -> 'a -> t) -> t -> 'a list -> t
(** Length-prefixed fold of the walker over the elements. *)

val combine : t -> t -> t
(** [combine acc d] folds the finished digest [d] into [acc] as two
    64-bit leaves. A composite key built from per-part digests is as
    stable as the part walks, and a part shared by many values is walked
    once rather than once per value. *)

val compare : t -> t -> int
(** A total order on digests: the order of their {!to_hex} renderings,
    without building them. *)

val to_key : t -> string
(** The digest as 16 raw bytes (both lanes, little-endian): a fixed-width
    table key, built without formatting. *)

val to_hex : t -> string
(** 32 lowercase hex characters (128 bits), for display and pinned
    values. *)
