open Storage_units
open Storage_model

type summary = {
  design : Design.t;
  reports : Evaluate.report list;
  outlays : Money.t;
  worst_recovery_time : Duration.t;
  worst_loss : Data_loss.loss;
  worst_penalties : Money.t;
  worst_total_cost : Money.t;
  feasible : bool;
}

let summarize_reports design reports =
  let outlays = (List.hd reports).Evaluate.outlays.Cost.total in
  let worst_recovery_time =
    List.fold_left
      (fun acc r -> Duration.max acc r.Evaluate.recovery_time)
      Duration.zero reports
  in
  let worst_loss =
    List.fold_left
      (fun acc r ->
        let l = r.Evaluate.data_loss.Data_loss.loss in
        if Data_loss.compare_loss l acc > 0 then l else acc)
      (Data_loss.Updates Duration.zero)
      reports
  in
  let worst_penalties =
    List.fold_left
      (fun acc r -> Money.max acc r.Evaluate.penalties.Cost.total)
      Money.zero reports
  in
  let feasible =
    List.for_all
      (fun r ->
        r.Evaluate.errors = []
        && r.Evaluate.data_loss.Data_loss.loss <> Data_loss.Entire_object
        && Option.value ~default:true r.Evaluate.meets_rto
        && Option.value ~default:true r.Evaluate.meets_rpo)
      reports
  in
  {
    design;
    reports;
    outlays;
    worst_recovery_time;
    worst_loss;
    worst_penalties;
    worst_total_cost = Money.add outlays worst_penalties;
    feasible;
  }

let summarize ?engine design scenarios =
  if scenarios = [] then invalid_arg "Objective.summarize: no scenarios";
  let reports =
    match engine with
    | None -> Evaluate.run_all design scenarios
    | Some e when not (Storage_engine.cache e) ->
      (* Cache disabled: evaluate directly, building no key and probing
         no table. *)
      Evaluate.run_all design scenarios
    | Some e -> Eval_cache.run_all (Eval_cache.of_engine e) design scenarios
  in
  summarize_reports design reports

let pp ppf s =
  Fmt.pf ppf "%-32s out %-9s worst RT %-9s worst DL %-10s total %-9s%s"
    s.design.Design.name
    (Money.to_string s.outlays)
    (Duration.to_string s.worst_recovery_time)
    (Fmt.str "%a" Data_loss.pp_loss s.worst_loss)
    (Money.to_string s.worst_total_cost)
    (if s.feasible then "" else "  (infeasible)")
