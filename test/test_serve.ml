(* The evaluation service: endpoint correctness (responses byte-identical
   to the CLI's --json output), protocol robustness under malformed and
   seeded-fuzz request payloads, deterministic back-pressure at the
   admission queue, and graceful SIGTERM drain of the real binary. *)

open Storage_model
open Storage_presets
module Server = Storage_serve.Server
module Spec = Storage_spec.Spec
module Prng = Storage_workload.Prng

let t name f = Alcotest.test_case name `Quick f

(* --- a tiny raw-socket client (one request per connection) --- *)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_all fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd bytes !off (n - !off)
  done

let recv_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  Buffer.contents buf

(* Send a raw payload, optionally half-closing the write side (so the
   server sees EOF instead of waiting out its read timeout), and return
   the full raw response. *)
let raw_roundtrip ?(eof = true) ~port payload =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_all fd payload;
      (* The server may have answered-and-closed already (a 429 from the
         acceptor); the half-close is then moot. *)
      (if eof then
         try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      recv_all fd)

let status_of raw =
  if String.length raw >= 12 && String.sub raw 0 9 = "HTTP/1.1 " then
    int_of_string_opt (String.sub raw 9 3)
  else None

let body_of raw =
  let n = String.length raw in
  let rec find i =
    if i + 4 > n then ""
    else if String.sub raw i 4 = "\r\n\r\n" then
      String.sub raw (i + 4) (n - i - 4)
    else find (i + 1)
  in
  find 0

let request ~port ~meth ~path body =
  let raw =
    raw_roundtrip ~eof:false ~port
      (Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: \
                       %d\r\n\r\n%s"
         meth path (String.length body) body)
  in
  (status_of raw, body_of raw)

(* --- server fixture --- *)

let small_config =
  {
    Server.port = 0;
    workers = 2;
    queue_capacity = 8;
    shards = 4;
    max_body = 64 * 1024;
    timeout = 5.;
  }

(* [Server.start] flips the process-wide obs registry on; later suites
   assume the default-off state, so every fixture switches it back. *)
let with_server ?(config = small_config) f =
  let engine = Storage_engine.create () in
  let server = Server.start ~config engine in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Storage_engine.shutdown engine;
      Storage_obs.disable ())
    (fun () -> f (Server.port server))

(* The baseline case study with its two hardware-failure scenarios, in
   the design language — the body every correctness test posts. *)
let design_text =
  lazy
    (match
       Spec.design_to_string
         ~scenarios:
           [
             ("array failure", Baseline.scenario_array);
             ("site disaster", Baseline.scenario_site);
           ]
         Baseline.design
     with
    | Ok text -> text
    | Error e -> Alcotest.failf "cannot render baseline design: %s" e)

(* What `ssdep evaluate --file <design_text> --json` prints: parse the
   same text back (the server sees only the text, not our Design.t) and
   evaluate. *)
let expected_evaluate_output () =
  let text = Lazy.force design_text in
  let design =
    match Spec.design_of_string text with
    | Ok d -> d
    | Error e -> Alcotest.failf "baseline text does not parse: %s" e
  in
  let scenarios =
    match Spec.scenarios_of_string text with
    | Ok s -> s
    | Error e -> Alcotest.failf "baseline scenarios do not parse: %s" e
  in
  let named =
    List.map (fun (name, scenario) -> (name, Evaluate.run design scenario))
      scenarios
  in
  Storage_report.Json.to_string_pretty (Json_output.reports named) ^ "\n"

(* --- endpoint correctness --- *)

let test_healthz () =
  with_server @@ fun port ->
  let status, body = request ~port ~meth:"GET" ~path:"/healthz" "" in
  Alcotest.(check (option int)) "status" (Some 200) status;
  Alcotest.(check string) "body" "ok\n" body

let test_evaluate_byte_identical () =
  with_server @@ fun port ->
  let expected = expected_evaluate_output () in
  let post () =
    request ~port ~meth:"POST" ~path:"/evaluate" (Lazy.force design_text)
  in
  let status, body = post () in
  Alcotest.(check (option int)) "cold status" (Some 200) status;
  Alcotest.(check bool) "cold response byte-identical to the CLI" true
    (String.equal expected body);
  (* Second hit answers from the warm cache — and must not change a
     byte. *)
  let status, body = post () in
  Alcotest.(check (option int)) "warm status" (Some 200) status;
  Alcotest.(check bool) "warm response byte-identical to the CLI" true
    (String.equal expected body)

let test_lint_and_stats () =
  with_server @@ fun port ->
  let status, body =
    request ~port ~meth:"POST" ~path:"/lint" (Lazy.force design_text)
  in
  Alcotest.(check (option int)) "lint status" (Some 200) status;
  Alcotest.(check bool) "lint response is a JSON object" true
    (String.length body > 0 && body.[0] = '{');
  let status, body = request ~port ~meth:"GET" ~path:"/stats" "" in
  Alcotest.(check (option int)) "stats status" (Some 200) status;
  Alcotest.(check bool) "stats counts the requests served" true
    (Helpers.contains body "\"serve.requests\"")

let test_concurrent_clients_identical () =
  with_server @@ fun port ->
  let expected = expected_evaluate_output () in
  let clients = 4 and per_client = 8 in
  let domains =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            List.init per_client (fun _ ->
                request ~port ~meth:"POST" ~path:"/evaluate"
                  (Lazy.force design_text))))
  in
  let responses = List.concat_map Domain.join domains in
  Alcotest.(check int) "every request answered" (clients * per_client)
    (List.length responses);
  List.iter
    (fun (status, body) ->
      Alcotest.(check (option int)) "status" (Some 200) status;
      Alcotest.(check bool) "cache-warm response byte-identical" true
        (String.equal expected body))
    responses

(* /optimize answers with the text `ssdep optimize` prints for the same
   objectives: the CLI's renderer over the CLI's problem. The default
   query must also print what a full, non-streaming search over the grid
   prints — the daemon streams with a top-1 bound, and that bound may not
   show. *)
let test_optimize_matches_cli_renderer () =
  with_server @@ fun port ->
  let module Solver = Storage_optimize.Solver in
  let cli ?rto ?rpo ?top_k () =
    let kit, space, scenarios = Whatif.search_problem ?rto ?rpo () in
    Fmt.str "%a@." Solver.pp
      (Solver.run ?top_k ~method_:Solver.Grid kit space scenarios)
  in
  let get path =
    let status, body = request ~port ~meth:"GET" ~path "" in
    Alcotest.(check (option int)) (path ^ " status") (Some 200) status;
    body
  in
  let default = get "/optimize" in
  Alcotest.(check string) "default query = CLI renderer" (cli ()) default;
  let full =
    let kit, space, scenarios = Whatif.search_problem () in
    Fmt.str "%a@." Storage_optimize.Search.pp
      (Storage_optimize.Search.run
         (Storage_optimize.Candidate.enumerate kit space)
         scenarios)
  in
  Alcotest.(check string) "default query = full search listing" full default;
  let ranked = get "/optimize?top_k=3&rto=24&rpo=24" in
  Alcotest.(check string) "top_k=3, rto/rpo 24 h = CLI renderer"
    (cli ~rto:24. ~rpo:24. ~top_k:3 ())
    ranked;
  Alcotest.(check bool) "the top-k block is listed" true
    (Helpers.contains ranked "top 3 feasible (of 4):")

(* --- protocol robustness --- *)

(* Every payload here is wrong in a different way; each must come back
   as a well-formed HTTP error — never a hang, never a dead server. *)
let malformed_cases =
  [
    ("empty request", "", 400);
    ("garbage request line", "GARBAGE\r\n\r\n", 400);
    ("missing content-length", "POST /evaluate HTTP/1.1\r\n\r\n", 411);
    ( "malformed content-length",
      "POST /evaluate HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
      400 );
    ( "oversized body",
      "POST /evaluate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
      413 );
    ( "chunked transfer coding",
      "POST /evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
      501 );
    ( "truncated body",
      "POST /evaluate HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly this",
      400 );
    ( "invalid design body",
      "POST /evaluate HTTP/1.1\r\nContent-Length: 12\r\n\r\nnot a design",
      400 );
    ("unknown endpoint", "GET /nope HTTP/1.1\r\n\r\n", 404);
    ( "wrong method",
      "DELETE /evaluate HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
      405 );
    ( "bad optimize parameter",
      "GET /optimize?grid_scale=banana HTTP/1.1\r\n\r\n",
      400 );
    ("optimize grid_scale too large", "GET /optimize?grid_scale=5 HTTP/1.1\r\n\r\n", 400);
    ("optimize top_k zero", "GET /optimize?top_k=0 HTTP/1.1\r\n\r\n", 400);
    ("optimize top_k garbage", "GET /optimize?top_k=x HTTP/1.1\r\n\r\n", 400);
  ]

(* The worker-loop exception barrier: handler exceptions become a 500,
   but the fatal runtime conditions re-raise — a wedged runtime must not
   keep serving, and Ctrl-C must keep working (the bug this regresses:
   the old catch-all turned Out_of_memory into an HTTP response). *)
let test_guard_route_fatal_exceptions () =
  let resp = Server.guard_route (fun () -> Storage_serve.Http.ok_text "fine") in
  Alcotest.(check int) "pass-through status" 200 resp.Storage_serve.Http.status;
  let resp = Server.guard_route (fun () -> failwith "handler bug") in
  Alcotest.(check int) "handler exception becomes 500" 500
    resp.Storage_serve.Http.status;
  List.iter
    (fun (name, exn) ->
      Alcotest.check_raises name exn (fun () ->
          ignore (Server.guard_route (fun () -> raise exn))))
    [
      ("Out_of_memory re-raises", Out_of_memory);
      ("Stack_overflow re-raises", Stack_overflow);
      ("Sys.Break re-raises", Sys.Break);
    ]

let test_malformed_requests_isolated () =
  with_server @@ fun port ->
  List.iter
    (fun (name, payload, expected_status) ->
      let raw = raw_roundtrip ~port payload in
      Alcotest.(check (option int)) name (Some expected_status)
        (status_of raw))
    malformed_cases;
  (* Header block past the reader's bound. *)
  let huge_header =
    "GET /healthz HTTP/1.1\r\n"
    ^ String.concat "" (List.init 4000 (fun i -> Printf.sprintf "X-%d: y\r\n" i))
    ^ "\r\n"
  in
  Alcotest.(check (option int)) "oversized header block" (Some 431)
    (status_of (raw_roundtrip ~port huge_header));
  (* A malformed [scenario] section makes the whole file invalid, on
     /lint as on /evaluate. *)
  let broken =
    Lazy.force design_text ^ "\n[scenario broken]\nscope = nowhere 3\n"
  in
  List.iter
    (fun path ->
      let status, body = request ~port ~meth:"POST" ~path broken in
      Alcotest.(check (option int)) (path ^ " malformed scenario") (Some 400)
        status;
      Alcotest.(check bool)
        (path ^ " names the section") true
        (Helpers.contains body "[scenario broken]"))
    [ "/evaluate"; "/lint" ];
  (* The daemon outlived all of it. *)
  let status, body = request ~port ~meth:"GET" ~path:"/healthz" "" in
  Alcotest.(check (option int)) "alive after abuse" (Some 200) status;
  Alcotest.(check string) "healthz body" "ok\n" body

(* Seeded fuzz: random byte soup, both as raw payloads (exercising the
   HTTP reader) and as well-framed /evaluate bodies (exercising the
   design parser behind a valid request). Every response must be a
   well-formed HTTP error status; the server answers the probe after
   every case. *)
let test_fuzzed_requests () =
  with_server @@ fun port ->
  let rng = Prng.create ~seed:0x5e7feedL in
  let random_string max_len =
    let len = 1 + Prng.int rng max_len in
    String.init len (fun _ -> Char.chr (Prng.int rng 256))
  in
  for case = 1 to 25 do
    let payload = random_string 512 in
    let raw = raw_roundtrip ~port payload in
    (match status_of raw with
    | Some s when s >= 400 && s < 600 -> ()
    | Some s -> Alcotest.failf "fuzz case %d: unexpected status %d" case s
    | None ->
      Alcotest.failf "fuzz case %d: response is not well-formed HTTP" case);
    let status, _ =
      request ~port ~meth:"POST" ~path:"/evaluate" (random_string 2048)
    in
    match status with
    | Some 400 -> ()
    | Some s -> Alcotest.failf "fuzz body %d: expected 400, got %d" case s
    | None -> Alcotest.failf "fuzz body %d: response not well-formed" case
  done;
  let status, _ = request ~port ~meth:"GET" ~path:"/healthz" "" in
  Alcotest.(check (option int)) "alive after fuzz" (Some 200) status

(* --- back-pressure --- *)

let test_back_pressure_rejects_with_429 () =
  (* One worker, a one-slot queue, a short read timeout: a silent
     connection pins the worker, a second fills the queue, and every
     connection after that must be answered 429 immediately by the
     acceptor — bounded admission, not unbounded queueing. *)
  let config =
    {
      Server.port = 0;
      workers = 1;
      queue_capacity = 1;
      shards = 1;
      max_body = 64 * 1024;
      timeout = 2.;
    }
  in
  with_server ~config @@ fun port ->
  (* Sequence the set-up so it cannot race: park [pinned] first and wait
     until the worker has surely dequeued it, THEN fill the one queue
     slot with [queued]. Only after both settles is every further
     connection guaranteed to overflow. *)
  let pinned = connect port in
  Unix.sleepf 0.3;
  let queued = connect port in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ pinned; queued ])
    (fun () ->
      Unix.sleepf 0.3;
      let overflow_1 = raw_roundtrip ~port "GET /healthz HTTP/1.1\r\n\r\n" in
      let overflow_2 = raw_roundtrip ~port "GET /healthz HTTP/1.1\r\n\r\n" in
      Alcotest.(check (option int)) "first overflow rejected busy" (Some 429)
        (status_of overflow_1);
      Alcotest.(check (option int)) "second overflow rejected busy" (Some 429)
        (status_of overflow_2));
  (* Closing the client fds EOFs the worker out of its pin; the server
     must accept again shortly after. *)
  let rec probe tries =
    let status, _ = request ~port ~meth:"GET" ~path:"/healthz" "" in
    if status = Some 200 then status
    else if tries <= 0 then status
    else (
      Unix.sleepf 0.2;
      probe (tries - 1))
  in
  Alcotest.(check (option int)) "accepts again after drain" (Some 200)
    (probe 15)

(* --- the real binary: drain on SIGTERM, CLI output identity --- *)

let find_ssdep () =
  let candidates =
    (match Sys.getenv_opt "SSDEP_BIN" with Some p -> [ p ] | None -> [])
    (* Under `dune runtest` the cwd is _build/default/test and the
       installed binary sits in _build/install/default/bin; under
       `dune exec` the cwd is the workspace root. *)
    @ [ "../../install/default/bin/ssdep"; "_build/install/default/bin/ssdep" ]
  in
  List.find_opt Sys.file_exists candidates

let test_real_binary_drains_on_sigterm () =
  match find_ssdep () with
  | None -> Alcotest.fail "ssdep binary not found (SSDEP_BIN unset?)"
  | Some bin ->
    let out_read, out_write = Unix.pipe ~cloexec:false () in
    let pid =
      Unix.create_process bin
        [| bin; "serve"; "--port"; "0"; "--workers"; "2" |]
        Unix.stdin out_write Unix.stderr
    in
    Unix.close out_write;
    let ic = Unix.in_channel_of_descr out_read in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        try close_in ic with Sys_error _ -> ())
      (fun () ->
        let first_line = input_line ic in
        let port =
          match String.rindex_opt first_line ':' with
          | Some i ->
            int_of_string
              (String.sub first_line (i + 1)
                 (String.length first_line - i - 1))
          | None -> Alcotest.failf "unexpected banner %S" first_line
        in
        (* The daemon's answers match the CLI's byte for byte. *)
        let tmp = Filename.temp_file "ssdep_serve_test" ".ssdep" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
          (fun () ->
            Out_channel.with_open_text tmp (fun oc ->
                output_string oc (Lazy.force design_text));
            List.iter
              (fun (path, cmd) ->
                let status, body =
                  request ~port ~meth:"POST" ~path (Lazy.force design_text)
                in
                Alcotest.(check (option int)) (path ^ " status") (Some 200)
                  status;
                let cli =
                  Unix.open_process_in
                    (Printf.sprintf "%s %s %s --json" (Filename.quote bin) cmd
                       (Filename.quote tmp))
                in
                let cli_out = In_channel.input_all cli in
                (match Unix.close_process_in cli with
                | Unix.WEXITED 0 -> ()
                | _ -> Alcotest.failf "ssdep %s failed" cmd);
                Alcotest.(check bool)
                  (Printf.sprintf
                     "daemon %s byte-identical to `ssdep %s --json`" path cmd)
                  true
                  (String.equal cli_out body))
              [ ("/evaluate", "evaluate --file"); ("/lint", "lint") ]);
        (* SIGTERM: graceful drain, clean exit, the drain banner. *)
        Unix.kill pid Sys.sigterm;
        let rest = In_channel.input_all ic in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, status ->
          Alcotest.failf "daemon did not exit cleanly: %s"
            (match status with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
            | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n));
        Alcotest.(check bool) "drain banner printed" true
          (Helpers.contains rest "drained"))

let suite =
  [
    ( "serve.endpoints",
      [
        t "healthz answers" test_healthz;
        t "/evaluate byte-identical to the CLI, warm and cold"
          test_evaluate_byte_identical;
        t "/lint and /stats answer" test_lint_and_stats;
        t "4 concurrent clients, identical cache-warm responses"
          test_concurrent_clients_identical;
        t "/optimize byte-identical to the CLI renderer"
          test_optimize_matches_cli_renderer;
      ] );
    ( "serve.robustness",
      [
        t "guard_route: 500 for handler bugs, fatal exceptions re-raise"
          test_guard_route_fatal_exceptions;
        t "malformed requests isolated (one per failure mode)"
          test_malformed_requests_isolated;
        t "seeded fuzz: raw payloads and framed bodies"
          test_fuzzed_requests;
        t "bounded admission queue answers 429"
          test_back_pressure_rejects_with_429;
      ] );
    ( "serve.binary",
      [
        t "real daemon: CLI identity and SIGTERM drain"
          test_real_binary_drains_on_sigterm;
      ] );
  ]
