open Storage_model

(** Assembling designs from the textual description language.

    A design file contains one [[workload]] section, one [[business]]
    section, any number of [[device NAME]] and [[link NAME]] sections, and
    a contiguous run of [[level 0]], [[level 1]], ... sections composing
    the protection hierarchy. Optional [[scenario NAME]] sections describe
    failure scenarios to evaluate. See [examples/designs/] for complete
    files, and the key reference below.

    {v
    [workload]
    name = orders-db
    data_capacity = 500 GiB
    avg_access_rate = 4 MiB/s
    avg_update_rate = 1.5 MiB/s
    burst_multiplier = 8
    batch = 1min: 1.2 MiB/s, 12hr: 600 KiB/s, 1d: 500 KiB/s

    [device array]
    location = emea/hq/dc-1            # region/site/building
    capacity_slots = 64 x 146 GiB
    bandwidth_slots = 64 x 30 MiB/s    # optional (capacity-only if absent)
    enclosure_bandwidth = 400 MiB/s    # optional
    access_delay = 0                   # optional
    cost_fixed = $60k                  # optional, with...
    cost_per_gib = 15                  # ...per-capacity,
    cost_per_mibps = 0                 # ...per-bandwidth,
    cost_per_shipment = 0              # ...per-shipment components
    spare = dedicated 2min             # none | dedicated DUR | shared DUR FRAC
    remote_spare = shared 9hr 0.2      # optional

    [link san]
    type = network                     # network | shipment
    bandwidth = 2 x 200 MiB/s          # network only
    delay = 0
    cost_per_mibps = 0
    cost_per_shipment = 0              # shipment only

    [level 0]
    technique = primary                # primary | split_mirror | snapshot |
    device = array                     # backup | vaulting | sync_mirror |
    raid = raid1                       # async_mirror | async_batch_mirror
    [level 1]
    technique = backup
    device = tapes
    link = san
    acc = 24hr
    prop = 6hr
    hold = 1hr
    retention = 14
    incremental = cumulative acc=24hr prop=12hr hold=1hr count=5  # optional

    [business]
    outage_penalty = $20k/hr
    loss_penalty = $20k/hr
    rto = 4hr                          # optional
    rpo = 48hr                         # optional

    [scenario array-failure]
    scope = device array               # object | device N | building N |
    target_age = 0                     # site N | region N
    object_size = 1 MiB                # object scope only
    v} *)

val parse :
  ?validate:bool ->
  string ->
  (Design.t * (string * Scenario.t) list, string) result
(** [parse text] is a design file's design and its named [[scenario]]
    sections (empty list when none), read off one parse of the text.
    Every front end loads design files through it (or {!load}), so they
    all agree on what a valid file is: a malformed [[scenario]] section
    makes the whole file invalid, just like a malformed design section.
    Errors carry section/line context; design errors are reported before
    scenario errors.

    [?validate] (default [true]) runs {!Design.validate} as the final
    step of assembling the design, so an [Ok] design is known evaluable;
    [~validate:false] stops after assembly — the loophole [ssdep lint]
    uses to report a statically invalid design's findings (with rule
    codes) instead of a load error. Hierarchy structure is always
    enforced: a level list {!Storage_hierarchy.Hierarchy.make} rejects
    cannot be represented as a [Design.t] at all. *)

type load_error =
  | Unreadable of string
      (** The file could not be read at all (missing, permission denied);
          the message names the file and the OS error. A front end should
          treat this as a configuration error (`ssdep` exits 2), distinct
          from a file that reads fine but does not parse. *)
  | Invalid of string
      (** The file was read but is not valid: {!parse}'s error. *)

val load :
  ?validate:bool ->
  string ->
  (Design.t * (string * Scenario.t) list, load_error) result
(** {!parse} on the contents of a file, keeping unreadable paths and
    invalid contents apart so a front end can map them to different exit
    codes. *)

val design_of_string : ?validate:bool -> string -> (Design.t, string) result
(** The design of {!parse}, ignoring the [[scenario]] sections. *)

val scenarios_of_string :
  string -> ((string * Scenario.t) list, string) result
(** The scenarios of {!parse}, ignoring the design sections. *)

val design_to_string :
  ?scenarios:(string * Scenario.t) list -> Design.t -> (string, string) result
(** The inverse of {!design_of_string}: renders a design (and optional
    named scenarios) in the description language, losslessly — every
    quantity is emitted in its base unit (seconds, bytes, dollars) with a
    shortest-round-trip decimal literal, so
    [design_of_string (design_to_string d)] rebuilds a design whose
    {!Design.fingerprint} matches [d]'s up to one systematic renaming: the
    parser names the workload after the design. Used by the fuzzing
    corpus ({!Storage_testkit}) to persist counterexamples as replayable
    [.ssdep] files. Errors on designs the language cannot express
    (background portfolio demands, non-full copy representations, name
    collisions between structurally distinct devices or links). *)
