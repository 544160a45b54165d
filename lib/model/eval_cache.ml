open Storage_parallel

type t = Evaluate.report Memo.t

let create ?max_entries () = Memo.create ?max_entries ~size:256 ()

let key (design : Design.t) scenario =
  Storage_units.Struct_hash.(
    to_key (combine design.Design.key (Scenario.digest scenario)))

(* One cache slot per engine, minted once at module init: [of_engine]
   inverts the layering (the engine sits below the model yet owns the
   model's cache) via the engine's typed-slot store. *)
let engine_key : t Storage_engine.key = Storage_engine.new_key ()

let of_engine e =
  Storage_engine.slot e engine_key ~default:(fun () ->
      create ?max_entries:(Storage_engine.cache_bound e) ())

let attach e t = Storage_engine.set_slot e engine_key t

let run t design scenario =
  Memo.find_or_add t (key design scenario) (fun () ->
      Evaluate.run design scenario)

let run_all t design scenarios =
  (* Share the scenario-independent stages across this design's misses;
     when every scenario hits, nothing is prepared at all. *)
  let prep = lazy (Evaluate.prepare design) in
  List.map
    (fun scenario ->
      Memo.find_or_add t (key design scenario) (fun () ->
          Evaluate.run_prepared (Lazy.force prep) scenario))
    scenarios

let length t = Memo.length t
let hits t = Memo.hits t
let misses t = Memo.misses t
let evicted t = Memo.evicted t
let clear t = Memo.clear t
