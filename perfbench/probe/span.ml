(* Spans recorded by the benchmark around its calls into the program's
   layers: name, start and end on the monotonic clock, the enclosing span
   and a request id, plus the minor words allocated in between. Spans are
   kept in memory and only summarized or written out at the end. *)

type t = {
  name : string;
  parent : int;  (** index of the enclosing span, [-1] at the top *)
  rid : int;  (** request id; [0] outside request replays *)
  start_ns : int;
  mutable stop_ns : int;
  start_words : int;
  mutable stop_words : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())
(* Off, [record] is a plain call: the same work timed with spans off and
   on gives the tracing overhead. *)
let enabled = ref true
let store : t array ref = ref [||]
let count = ref 0
let current = ref (-1)

let push s =
  if !count = Array.length !store then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !store 0 bigger 0 !count;
    store := bigger
  end;
  !store.(!count) <- s;
  incr count

let close s =
  s.stop_words <- minor_words ();
  s.stop_ns <- now_ns ();
  current := s.parent

let record ?(rid = 0) name f =
  if not !enabled then f ()
  else begin
    let idx = !count in
    let s =
      {
        name;
        parent = !current;
        rid;
        start_ns = now_ns ();
        stop_ns = 0;
        start_words = minor_words ();
        stop_words = 0;
      }
    in
    push s;
    current := idx;
    match f () with
    | v ->
      close s;
      v
    | exception e ->
      close s;
      raise e
  end

(* Forgets every span recorded so far. *)
let reset () =
  count := 0;
  current := -1

(* [f ()] with spans off, and its wall time in nanoseconds. *)
let time_off f =
  enabled := false;
  Fun.protect
    ~finally:(fun () -> enabled := true)
    (fun () ->
      let t0 = now_ns () in
      let v = f () in
      (v, now_ns () - t0))

(* Wraps a sequence so that forcing each element is one span: the lazy
   producer's work lands in [name] instead of in whoever consumes it. *)
let rec seq name s () =
  match record name s with
  | Seq.Nil -> Seq.Nil
  | Seq.Cons (x, rest) -> Seq.Cons (x, seq name rest)

type totals = {
  mutable calls : int;
  mutable self_ns : int;
  mutable total_ns : int;
  mutable self_words : int;
}

(* Self time of a span is its duration minus the durations of its direct
   children; likewise for allocated words. *)
let totals () =
  let n = !count in
  let spans = !store in
  let child_ns = Array.make n 0 and child_words = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = spans.(i) in
    if s.parent >= 0 then begin
      child_ns.(s.parent) <- child_ns.(s.parent) + (s.stop_ns - s.start_ns);
      child_words.(s.parent) <-
        child_words.(s.parent) + (s.stop_words - s.start_words)
    end
  done;
  let table = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = spans.(i) in
    let t =
      match Hashtbl.find_opt table s.name with
      | Some t -> t
      | None ->
        let t = { calls = 0; self_ns = 0; total_ns = 0; self_words = 0 } in
        Hashtbl.add table s.name t;
        t
    in
    let dur = s.stop_ns - s.start_ns in
    t.calls <- t.calls + 1;
    t.total_ns <- t.total_ns + dur;
    t.self_ns <- t.self_ns + dur - child_ns.(i);
    t.self_words <- t.self_words + (s.stop_words - s.start_words) - child_words.(i)
  done;
  table

(* Chrome trace-event JSON ("X" complete events, microsecond timestamps,
   process 1), which Perfetto and chrome://tracing open. *)
let write_chrome path =
  let spans = !store in
  let base = if !count = 0 then 0 else spans.(0).start_ns in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      for i = 0 to !count - 1 do
        let s = spans.(i) in
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rid\":%d,\"words\":%d}}\n"
          (if i = 0 then "" else ",")
          s.name
          (float_of_int (s.start_ns - base) /. 1e3)
          (float_of_int (s.stop_ns - s.start_ns) /. 1e3)
          i s.parent s.rid
          (s.stop_words - s.start_words)
      done;
      output_string oc "]}\n")
