type node = {
  id : int;
  name : string;
  capacity : float;
  mutable reservation : float;
  mutable transferred : float;
}

type state = Active | Done | Cancelled

type flow = {
  fid : int;
  flabel : string;
  through : (node * int) list;
  rate_cap : float;
  mutable remaining : float;
  mutable current_rate : float;
  mutable state : state;
}

type t = {
  mutable nodes : node list;
  mutable flows : flow list;
  mutable next_node : int;
  mutable next_flow : int;
  mutable dirty : bool;
}

let create () =
  { nodes = []; flows = []; next_node = 0; next_flow = 0; dirty = false }

let add_node t ~name ~capacity =
  if capacity <= 0. then invalid_arg "Flow_net.add_node: non-positive capacity";
  if List.exists (fun n -> String.equal n.name name) t.nodes then
    invalid_arg "Flow_net.add_node: duplicate node name";
  let node =
    { id = t.next_node; name; capacity; reservation = 0.; transferred = 0. }
  in
  t.next_node <- t.next_node + 1;
  t.nodes <- node :: t.nodes;
  node

let set_reservation t node r =
  if r < 0. then invalid_arg "Flow_net.set_reservation: negative reservation";
  node.reservation <- Float.min r node.capacity;
  t.dirty <- true

let node_name n = n.name

let add_flow t ?(rate_cap = infinity) ?(label = "") ~through ~bytes () =
  if bytes <= 0. then invalid_arg "Flow_net.add_flow: non-positive bytes";
  if through = [] then invalid_arg "Flow_net.add_flow: empty node list";
  List.iter
    (fun (_, m) ->
      if m <= 0 then invalid_arg "Flow_net.add_flow: non-positive multiplicity")
    through;
  let flow =
    {
      fid = t.next_flow;
      flabel = label;
      through;
      rate_cap;
      remaining = bytes;
      current_rate = 0.;
      state = Active;
    }
  in
  t.next_flow <- t.next_flow + 1;
  t.flows <- flow :: t.flows;
  t.dirty <- true;
  flow

let cancel t flow =
  if flow.state = Active then begin
    flow.state <- Cancelled;
    flow.current_rate <- 0.;
    t.dirty <- true
  end

let label f = f.flabel
let remaining _ f = f.remaining

let active t = List.filter (fun f -> f.state = Active) t.flows

(* Progressive filling (max-min fairness): raise all unfrozen flow rates
   uniformly until a node saturates or a flow hits its cap; freeze and
   repeat. *)
let recompute t =
  let flows = active t in
  t.flows <- List.filter (fun f -> f.state = Active) t.flows;
  List.iter (fun f -> f.current_rate <- 0.) flows;
  let avail = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Float.is_finite n.capacity then
        Hashtbl.replace avail n.id (Float.max 0. (n.capacity -. n.reservation)))
    t.nodes;
  let frozen = Hashtbl.create 16 in
  let unfrozen () = List.filter (fun f -> not (Hashtbl.mem frozen f.fid)) flows in
  let eps = 1e-9 in
  let rec fill () =
    let live = unfrozen () in
    if live <> [] then begin
      (* Load per constrained node from unfrozen flows. *)
      let load = Hashtbl.create 16 in
      List.iter
        (fun f ->
          List.iter
            (fun (n, m) ->
              if Hashtbl.mem avail n.id then begin
                let cur = Option.value ~default:0. (Hashtbl.find_opt load n.id) in
                Hashtbl.replace load n.id (cur +. float_of_int m)
              end)
            f.through)
        live;
      let delta_node =
        Hashtbl.fold
          (fun nid l acc ->
            if l > 0. then Float.min acc (Hashtbl.find avail nid /. l) else acc)
          load infinity
      in
      let delta_cap =
        List.fold_left
          (fun acc f -> Float.min acc (f.rate_cap -. f.current_rate))
          infinity live
      in
      let delta = Float.max 0. (Float.min delta_node delta_cap) in
      (* A flow constrained by nothing (infinite nodes, no cap) would get an
         infinite rate; clamp to a huge finite rate so arithmetic stays
         well-defined (it still completes effectively instantly). *)
      let delta = if Float.is_finite delta then delta else 1e18 in
      List.iter
        (fun f ->
          f.current_rate <- f.current_rate +. delta;
          List.iter
            (fun (n, m) ->
              match Hashtbl.find_opt avail n.id with
              | Some a ->
                Hashtbl.replace avail n.id
                  (Float.max 0. (a -. (delta *. float_of_int m)))
              | None -> ())
            f.through)
        live;
      (* Freeze flows at saturated nodes or at their caps. *)
      let progressed = ref false in
      List.iter
        (fun f ->
          let at_cap = f.current_rate >= f.rate_cap -. eps in
          let saturated =
            List.exists
              (fun (n, _) ->
                match Hashtbl.find_opt avail n.id with
                | Some a -> a <= eps
                | None -> false)
              f.through
          in
          if at_cap || saturated then begin
            Hashtbl.replace frozen f.fid ();
            progressed := true
          end)
        live;
      (* Guard against numerical stalls: if nothing froze, freeze all. *)
      if !progressed then fill ()
      else List.iter (fun f -> Hashtbl.replace frozen f.fid ()) live
    end
  in
  fill ();
  t.dirty <- false

let ensure t = if t.dirty then recompute t

let rate t f =
  ensure t;
  if f.state = Active then f.current_rate else 0.

let active_count t = List.length (active t)

let next_completion t =
  ensure t;
  List.fold_left
    (fun acc f ->
      if f.state = Active && f.current_rate > 0. then begin
        let dt = f.remaining /. f.current_rate in
        match acc with
        | Some (best, _) when best <= dt -> acc
        | _ -> Some (dt, f)
      end
      else acc)
    None (active t)

let advance t dt =
  if dt < 0. then invalid_arg "Flow_net.advance: negative dt";
  ensure t;
  let completed = ref [] in
  List.iter
    (fun f ->
      if f.state = Active && f.current_rate > 0. then begin
        let moved = f.current_rate *. dt in
        f.remaining <- f.remaining -. moved;
        List.iter
          (fun (n, m) -> n.transferred <- n.transferred +. (moved *. float_of_int m))
          f.through;
        (* Sub-byte remainders are rounding noise (the ulp of a multi-TiB
           transfer exceeds 1e-4 bytes); treating them as live would make
           the next completion step smaller than the clock's resolution. *)
        if f.remaining <= 1. then begin
          f.remaining <- 0.;
          f.state <- Done;
          f.current_rate <- 0.;
          completed := f :: !completed;
          t.dirty <- true
        end
      end)
    (active t);
  List.rev !completed

let node_bytes _ n = n.transferred
