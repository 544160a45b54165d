open Storage_units
open Storage_workload
open Storage_model
module Engine = Storage_engine
module Json = Storage_report.Json

type method_ = Grid | Anneal

let method_name = function Grid -> "grid" | Anneal -> "anneal"

let method_of_string = function
  | "grid" -> Ok Grid
  | "anneal" -> Ok Anneal
  | s -> Error (Printf.sprintf "unknown solver %S, expected grid or anneal" s)

type stats = { evaluations : int; considered : int; accepted : int }

type result = {
  method_ : method_;
  grid_points : int;
  budget : int;
  seed : int64;
  best : Objective.summary option;
  stats : stats;
  listing : Search.result option;
  top_k : int option;
}

let default_budget = 2048
let default_seed = 0xCA5CADEL

(* Solver throughput alongside the search.* family: evaluations requested
   (cache hits included) and annealing moves accepted. *)
let t_solver = Storage_obs.Timer.make "solver.run"
let obs_evaluations = Storage_obs.Counter.make "solver.evaluations"
let obs_accepted = Storage_obs.Counter.make "solver.moves.accepted"

let () =
  Storage_obs.gauge "solver.evals_per_second" (fun () ->
      let s = Storage_obs.Timer.total_seconds t_solver in
      if s > 0. then
        float_of_int (Storage_obs.Counter.value obs_evaluations) /. s
      else 0.)

(* The exhaustive grid: one streaming pass of [Search.run] over the
   enumerated candidates. Only the [top_k] cheapest feasible summaries
   (one when not asked) and the frontier are retained. *)
let run_grid ~engine ?background ?top_k kit space scenarios =
  let candidates = Candidate.enumerate ?background kit space in
  let listing =
    if Seq.is_empty candidates then
      { Search.evaluated = []; feasible = []; frontier = []; best = None;
        considered = 0; feasible_count = 0 }
    else
      Search.run ~engine
        ~top_k:(Option.value top_k ~default:1)
        candidates scenarios
  in
  let n = listing.Search.considered in
  (listing, { evaluations = n; considered = n; accepted = 0 })

let run_in ~engine ?(budget = default_budget) ?(seed = default_seed) ?top_k
    ?background ~method_ kit space scenarios =
  if scenarios = [] then invalid_arg "Solver.run: no scenarios";
  if budget < 1 then invalid_arg "Solver.run: budget must be >= 1";
  (match (method_, top_k) with
  | _, Some k when k < 1 -> invalid_arg "Solver.run: top_k must be >= 1"
  | Anneal, Some _ -> invalid_arg "Solver.run: top_k applies to grid only"
  | _ -> ());
  let grid_points = Candidate.point_count space in
  if grid_points = 0 then invalid_arg "Solver.run: empty candidate space";
  Storage_obs.Timer.time t_solver @@ fun () ->
  let best, stats, listing =
    match method_ with
    | Grid ->
      let listing, stats =
        run_grid ~engine ?background ?top_k kit space scenarios
      in
      (listing.Search.best, stats, Some listing)
    | Anneal ->
      let axes = Candidate.axes ?background kit space in
      let o = Anneal.run ~engine ~budget ~seed ~space ~axes scenarios in
      ( o.Anneal.best,
        { evaluations = o.Anneal.evaluations;
          considered = o.Anneal.proposals;
          accepted = o.Anneal.accepted },
        None )
  in
  Storage_obs.Counter.add obs_evaluations stats.evaluations;
  Storage_obs.Counter.add obs_accepted stats.accepted;
  { method_; grid_points; budget; seed; best; stats; listing; top_k }

let run ?engine ?budget ?seed ?top_k ?background ~method_ kit space
    scenarios =
  let owned, engine =
    match engine with Some e -> (false, e) | None -> (true, Engine.create ())
  in
  Fun.protect
    ~finally:(fun () -> if owned then Engine.shutdown engine)
    (fun () ->
      run_in ~engine ?budget ?seed ?top_k ?background ~method_ kit space
        scenarios)

(* --- hierarchical portfolio roll-up --- *)

type member = {
  label : string;
  workload : Workload.t;
  business : Business.t;
}

let member_of_design (d : Design.t) =
  { label = d.Design.name; workload = d.Design.workload;
    business = d.Design.business }

type site = {
  feasible : bool;
  overcommitted : string list;
  outlays : Money.t;
  penalties : Money.t;
  total : Money.t;
  worst_recovery_time : Duration.t;
  worst_loss : Data_loss.loss;
}

type portfolio_result = {
  assignments : (string * result) list;
  chosen : Design.t list;
  site : site;
}

let kit_devices (kit : Candidate.kit) =
  let devs =
    [ kit.Candidate.primary; kit.Candidate.tape_library; kit.Candidate.vault;
      kit.Candidate.remote_array ]
  in
  (* Kits may alias a device across roles; demands are keyed by name. *)
  List.fold_left
    (fun acc (d : Storage_device.Device.t) ->
      if List.exists (fun (e : Storage_device.Device.t) ->
             String.equal e.Storage_device.Device.name d.Storage_device.Device.name)
           acc
      then acc
      else d :: acc)
    [] devs
  |> List.rev

(* The background one member's search runs under: every other member's
   chosen design, projected onto the shared devices — the same labeled
   demands [Portfolio.make] attaches, computed against tentative
   assignments instead of final ones. *)
let background_for kit chosen ~self =
  kit_devices kit
  |> List.filter_map (fun (dev : Storage_device.Device.t) ->
         let extra =
           List.concat_map
             (fun (label, (d : Design.t)) ->
               if String.equal label self then []
               else
                 Design.demands_on d dev
                 |> List.map (fun (l : Storage_device.Demand.labeled) ->
                        { l with
                          Storage_device.Demand.technique =
                            label ^ ": " ^ l.Storage_device.Demand.technique }))
             chosen
         in
         if extra = [] then None
         else Some (dev.Storage_device.Device.name, extra))

let solve_portfolio ?engine ?budget ?(seed = default_seed) ?(rounds = 2)
    ~method_ ~kit ~space ~members scenarios =
  if members = [] then invalid_arg "Solver.solve_portfolio: no members";
  if rounds < 1 then invalid_arg "Solver.solve_portfolio: rounds must be >= 1";
  let labels = List.map (fun m -> m.label) members in
  if List.length labels <> List.length (List.sort_uniq String.compare labels)
  then invalid_arg "Solver.solve_portfolio: member labels must be distinct";
  let owned, engine =
    match engine with Some e -> (false, e) | None -> (true, Engine.create ())
  in
  Fun.protect
    ~finally:(fun () -> if owned then Engine.shutdown engine)
  @@ fun () ->
  let master = Storage_workload.Prng.create ~seed in
  let kit_for m =
    { kit with Candidate.workload = m.workload; business = m.business }
  in
  (* Gauss–Seidel over the members: each pass re-optimizes every member
     against the latest tentative assignments of the others, folded in as
     background demand on the shared devices. Per-(round, member) seeds
     come from one splitmix64 stream, so the whole consolidation is a
     pure function of (seed, budget, rounds). *)
  let assignments = ref [] (* (label, result) in member order, latest *) in
  let set label r =
    if List.mem_assoc label !assignments then
      assignments :=
        List.map
          (fun (l, old) -> if String.equal l label then (l, r) else (l, old))
          !assignments
    else assignments := !assignments @ [ (label, r) ]
  in
  let chosen () =
    List.filter_map
      (fun (label, r) ->
        match r.best with
        | None -> None
        | Some s -> Some (label, s.Objective.design))
      !assignments
  in
  for _round = 1 to rounds do
    List.iter
      (fun m ->
        let member_seed = Storage_workload.Prng.next_int64 master in
        let background = background_for kit (chosen ()) ~self:m.label in
        let background = if background = [] then None else Some background in
        let r =
          run_in ~engine ?budget ~seed:member_seed ?background ~method_
            (kit_for m) space scenarios
        in
        set m.label r)
      members
  done;
  (* Roll the per-object optima up into one site-level summary: the
     chosen designs become a [Portfolio] (shared fixed costs counted
     once, every member re-loaded with its neighbors' background), and
     each loaded member is re-summarized under the full consolidation. *)
  let chosen_designs =
    List.map
      (fun (label, (d : Design.t)) ->
        Design.make
          ~name:(label ^ ": " ^ d.Design.name)
          ~workload:d.Design.workload ~hierarchy:d.Design.hierarchy
          ~business:d.Design.business ())
      (chosen ())
  in
  let all_assigned = List.length chosen_designs = List.length members in
  let site, chosen_loaded =
    match (chosen_designs, Portfolio.make chosen_designs) with
    | [], _ | _, Error _ ->
      ( {
          feasible = false;
          overcommitted = [];
          outlays = Money.zero;
          penalties = Money.zero;
          total = Money.zero;
          worst_recovery_time = Duration.zero;
          worst_loss = Data_loss.Updates Duration.zero;
        },
        chosen_designs )
    | _, Ok p ->
      let loaded = Portfolio.members p in
      let over =
        List.map
          (fun ((d : Storage_device.Device.t), _) ->
            d.Storage_device.Device.name)
          (Portfolio.overcommitted p)
      in
      let summaries =
        Engine.map engine
          (fun d -> Objective.summarize ~engine d scenarios)
          loaded
      in
      let _, outlays = Portfolio.outlays p in
      let penalties =
        Money.sum
          (List.map (fun (s : Objective.summary) -> s.Objective.worst_penalties)
             summaries)
      in
      ( {
        feasible =
          all_assigned && over = []
          && List.for_all (fun (s : Objective.summary) -> s.Objective.feasible)
               summaries;
        overcommitted = over;
        outlays;
        penalties;
        total = Money.add outlays penalties;
        worst_recovery_time =
          List.fold_left
            (fun acc (s : Objective.summary) ->
              Duration.max acc s.Objective.worst_recovery_time)
            Duration.zero summaries;
        worst_loss =
          List.fold_left
            (fun acc (s : Objective.summary) ->
              if Data_loss.compare_loss s.Objective.worst_loss acc > 0 then
                s.Objective.worst_loss
              else acc)
            (Data_loss.Updates Duration.zero)
            summaries;
      },
        loaded )
  in
  { assignments = !assignments; chosen = chosen_loaded; site }

(* --- rendering --- *)

let pp ppf r =
  match r.listing with
  | Some l ->
    let top ppf k =
      Fmt.pf ppf "@,top %d feasible (of %d):" (min k l.Search.feasible_count)
        l.Search.feasible_count;
      List.iteri
        (fun i s -> Fmt.pf ppf "@,  %2d. %a" (i + 1) Objective.pp s)
        l.Search.feasible
    in
    Fmt.pf ppf "@[<v>%a%a@]" Search.pp l (Fmt.option top) r.top_k
  | None ->
    let best ppf = function
      | Some s -> Fmt.pf ppf "best: %a" Objective.pp s
      | None -> Fmt.pf ppf "no feasible design in the grid"
    in
    Fmt.pf ppf
      "@[<v>solver anneal: %d grid points, budget %d, %d evaluated, %d moves \
       accepted@,%a@]"
      r.grid_points r.budget r.stats.evaluations r.stats.accepted best r.best

let summary_json (s : Objective.summary) =
  Json.Obj
    [
      ("design", Json.String s.Objective.design.Design.name);
      ("outlays_usd", Json.Float (Money.to_usd s.Objective.outlays));
      ( "worst_recovery_hours",
        Json.Float (Duration.to_hours s.Objective.worst_recovery_time) );
      ( "worst_loss",
        Json.String (Fmt.str "%a" Data_loss.pp_loss s.Objective.worst_loss) );
      ("total_usd", Json.Float (Money.to_usd s.Objective.worst_total_cost));
      ("feasible", Json.Bool s.Objective.feasible);
    ]

let to_json r =
  Json.Obj
    [
      ("solver", Json.String (method_name r.method_));
      ("grid_points", Json.Int r.grid_points);
      ("budget", Json.Int r.budget);
      ("seed", Json.String (Printf.sprintf "0x%Lx" r.seed));
      ("evaluations", Json.Int r.stats.evaluations);
      ("considered", Json.Int r.stats.considered);
      ("moves_accepted", Json.Int r.stats.accepted);
      ("feasible", Json.Bool (r.best <> None));
      ( "best",
        match r.best with None -> Json.Null | Some s -> summary_json s );
    ]

let pp_portfolio ppf pr =
  let member ppf (label, r) =
    match r.best with
    | Some s ->
      Fmt.pf ppf "  %-16s %a" label Objective.pp s
    | None -> Fmt.pf ppf "  %-16s no feasible design" label
  in
  Fmt.pf ppf
    "@[<v>portfolio of %d objects (solver %s):@,%a@,site: outlays %a, \
     penalties %a, total %a, worst RT %s, worst DL %a%s%s@]"
    (List.length pr.assignments)
    (match pr.assignments with
    | (_, r) :: _ -> method_name r.method_
    | [] -> "-")
    (Fmt.list ~sep:Fmt.cut member)
    pr.assignments Money.pp pr.site.outlays Money.pp pr.site.penalties Money.pp
    pr.site.total
    (Duration.to_string pr.site.worst_recovery_time)
    Data_loss.pp_loss pr.site.worst_loss
    (match pr.site.overcommitted with
    | [] -> ""
    | names -> ", overcommitted: " ^ String.concat ", " names)
    (if pr.site.feasible then ", feasible" else ", infeasible")

let portfolio_to_json pr =
  Json.Obj
    [
      ( "members",
        Json.List
          (List.map
             (fun (label, r) ->
               Json.Obj [ ("label", Json.String label); ("result", to_json r) ])
             pr.assignments) );
      ( "site",
        Json.Obj
          [
            ("feasible", Json.Bool pr.site.feasible);
            ( "overcommitted",
              Json.List
                (List.map (fun n -> Json.String n) pr.site.overcommitted) );
            ("outlays_usd", Json.Float (Money.to_usd pr.site.outlays));
            ("penalties_usd", Json.Float (Money.to_usd pr.site.penalties));
            ("total_usd", Json.Float (Money.to_usd pr.site.total));
            ( "worst_recovery_hours",
              Json.Float (Duration.to_hours pr.site.worst_recovery_time) );
            ( "worst_loss",
              Json.String (Fmt.str "%a" Data_loss.pp_loss pr.site.worst_loss)
            );
          ] );
    ]
