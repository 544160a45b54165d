val tune : ?jobs:int -> unit -> unit
(** Blind spot of the retired val-block scan: it exempted any block
    whose text mentioned the marker — including this doc comment, which
    merely talks about [@@deprecated] without carrying the attribute.
    The AST rule reads real attributes, and since the migration shims were
    removed it grants no deprecation exemption at all. *)
