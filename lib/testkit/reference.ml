open Storage_units
open Storage_model
open Storage_optimize

let same_score (a : Objective.summary) (b : Objective.summary) =
  Money.compare a.Objective.outlays b.Objective.outlays = 0
  && Duration.compare a.Objective.worst_recovery_time
       b.Objective.worst_recovery_time
     = 0
  && Data_loss.compare_loss a.Objective.worst_loss b.Objective.worst_loss = 0

let tie_break (a : Objective.summary) (b : Objective.summary) =
  let c =
    String.compare a.Objective.design.Design.name b.Objective.design.Design.name
  in
  if c <> 0 then c
  else
    Storage_units.Struct_hash.compare a.Objective.design.Design.key
      b.Objective.design.Design.key

let pareto_frontier summaries =
  let non_dominated =
    List.filter
      (fun s ->
        not (List.exists (fun other -> Pareto.dominates other s) summaries))
      summaries
  in
  let rec regroup seen = function
    | [] -> []
    | x :: rest ->
      if List.exists (same_score x) seen then regroup seen rest
      else
        List.stable_sort tie_break (List.filter (same_score x) non_dominated)
        @ regroup (x :: seen) rest
  in
  regroup [] non_dominated

let run_materialized candidates scenarios =
  if candidates = [] then invalid_arg "Search.run: no candidate designs";
  if scenarios = [] then invalid_arg "Search.run: no scenarios";
  let candidates = List.filter Storage_lint.prefilter candidates in
  let evaluated =
    List.map (fun d -> Objective.summarize d scenarios) candidates
  in
  let feasible =
    List.filter (fun s -> s.Objective.feasible) evaluated
    |> List.stable_sort (fun a b ->
           Money.compare a.Objective.worst_total_cost
             b.Objective.worst_total_cost)
  in
  {
    Search.evaluated;
    feasible;
    frontier = pareto_frontier evaluated;
    best = (match feasible with [] -> None | best :: _ -> Some best);
    considered = List.length evaluated;
    feasible_count = List.length feasible;
  }
