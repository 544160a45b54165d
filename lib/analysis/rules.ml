open Parsetree

(* Longident helpers. A custom flatten: [Longident.flatten] raises on
   functor applications; we just keep the applied path instead. *)
let rec flat_acc acc = function
  | Longident.Lident s -> s :: acc
  | Longident.Ldot (l, s) -> flat_acc (s :: acc) l
  | Longident.Lapply (_, l) -> flat_acc acc l

let flat lid = flat_acc [] lid

let split_last l =
  match List.rev l with [] -> ([], "") | n :: ms -> (List.rev ms, n)

let modules lid = fst (split_last (flat lid))
let name lid = snd (split_last (flat lid))
let dotted lid = String.concat "." (flat lid)

(* --- predicates shared between rules ------------------------------ *)

let socket_names =
  [
    "socket";
    "socketpair";
    "bind";
    "listen";
    "accept";
    "connect";
    "setsockopt";
    "setsockopt_optint";
    "setsockopt_float";
  ]

let fatal_names = [ "Out_of_memory"; "Stack_overflow"; "Break" ]

let rec pat_is_catch_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pat_is_catch_all p
  | Ppat_or (a, b) -> pat_is_catch_all a || pat_is_catch_all b
  | _ -> false

let rec pat_mentions_fatal p =
  match p.ppat_desc with
  | Ppat_construct (lid, _) -> List.mem (name lid.txt) fatal_names
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pat_mentions_fatal p
  | Ppat_or (a, b) -> pat_mentions_fatal a || pat_mentions_fatal b
  | _ -> false

let expr_mem pred e =
  let found = ref false in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self x ->
          if pred x then found := true;
          if not !found then default_iterator.expr self x);
    }
  in
  it.expr it e;
  !found

let is_ident_named names e =
  match e.pexp_desc with
  | Pexp_ident lid -> List.mem (name lid.txt) names
  | _ -> false

let expr_contains_raise = expr_mem (is_ident_named [ "raise"; "raise_notrace" ])

let expr_contains_protect =
  expr_mem (fun e ->
      match e.pexp_desc with
      | Pexp_ident lid ->
        name lid.txt = "protect"
        && (match modules lid.txt with
           | [ ("Fun" | "Mutex") ] -> true
           | _ -> false)
      | _ -> false)

(* Resource acquisitions SA007 cares about: the fd- and lock-shaped
   ones, where leaking on an exception wedges the process. *)
let acquisition_of fn =
  match fn.pexp_desc with
  | Pexp_ident lid -> (
    match (modules lid.txt, name lid.txt) with
    | [ "Unix" ], ("openfile" | "socket") | [ "Mutex" ], "lock" ->
      Some (dotted lid.txt)
    | _ -> None)
  | _ -> None

let is_float_type lid =
  match flat lid with [ "float" ] | [ "Stdlib"; "float" ] -> true | _ -> false

let floaty_operand e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, _)) -> float_of_string s <> 0.0
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr (lid, []); _ }) ->
    is_float_type lid.txt
  | _ -> false

(* --- the engine --------------------------------------------------- *)

let check (ctx : Source.ctx) parsed =
  let acc = ref [] in
  let emit ~code loc msg =
    let p = loc.Location.loc_start in
    acc :=
      Finding.make ~code (Rule.severity code) ~file:ctx.path
        ~line:p.Lexing.pos_lnum
        ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
        "%s" msg
      :: !acc
  in
  let in_lib = Source.in_lib ctx in
  let lib_sub = match ctx.dir with Source.Lib s -> Some s | _ -> None in
  let exempt bases = List.mem ctx.base bases in
  let sa001_applies = in_lib && not (exempt [ "prng.ml"; "seeded.ml" ]) in
  let sa004_applies = in_lib && lib_sub <> Some "serve" in
  let sa009_applies =
    not
      ((ctx.dir = Source.Lib "testkit" && ctx.base = "oracle.ml")
      || (ctx.dir = Source.Bench && ctx.base = "main.ml"))
  in
  let unix_open = ref 0 in
  let path_check ~loc components =
    if sa001_applies && List.mem "Random" components then
      emit ~code:"SA001" loc
        (Printf.sprintf
           "%s: ambient randomness; route through the seeded PRNG (lib/prng)"
           (String.concat "." components));
    if sa009_applies then
      List.iter
        (fun m ->
          if m = "Marshal" || m = "Obj" then
            emit ~code:"SA009" loc
              (Printf.sprintf "%s referenced outside the audited allowlist" m))
        components
  in
  let is_unix_module me =
    match me.pmod_desc with
    | Pmod_ident lid -> name lid.txt = "Unix"
    | _ -> false
  in
  let check_handler_cases cases =
    (* [cases] are exception-handler cases in source order. *)
    let rec find_catch_all earlier = function
      | [] -> None
      | c :: rest ->
        if pat_is_catch_all c.pc_lhs && c.pc_guard = None then
          Some (List.rev earlier, c)
        else find_catch_all (c :: earlier) rest
    in
    match find_catch_all [] cases with
    | None -> ()
    | Some (earlier, catch_all) ->
      let reraises_fatal_first =
        List.exists
          (fun c ->
            pat_mentions_fatal c.pc_lhs && expr_contains_raise c.pc_rhs)
          earlier
      in
      let safe = reraises_fatal_first || expr_contains_raise catch_all.pc_rhs in
      if not safe then
        emit ~code:"SA006" catch_all.pc_lhs.ppat_loc
          "catch-all handler swallows Out_of_memory/Stack_overflow/Sys.Break; \
           re-raise fatal exceptions first"
  in
  let check_expr e =
    match e.pexp_desc with
    | Pexp_ident lid ->
      path_check ~loc:e.pexp_loc (flat lid.txt);
      if in_lib then begin
        match flat lid.txt with
        | [ "exit" ] | [ "Stdlib"; "exit" ] ->
          emit ~code:"SA003" e.pexp_loc
            (Printf.sprintf "process exit from library code (%s)"
               (dotted lid.txt))
        | _ -> ()
      end;
      if sa004_applies && List.mem (name lid.txt) socket_names then begin
        match modules lid.txt with
        | [ "Unix" ] | [ "UnixLabels" ] ->
          emit ~code:"SA004" e.pexp_loc
            (Printf.sprintf "socket primitive %s outside lib/serve"
               (dotted lid.txt))
        | [] when !unix_open > 0 ->
          emit ~code:"SA004" e.pexp_loc
            (Printf.sprintf
               "socket primitive %s (via open Unix) outside lib/serve"
               (name lid.txt))
        | _ -> ()
      end
    | Pexp_try (_, cases) -> check_handler_cases cases
    | Pexp_match (_, cases) ->
      let handler_cases =
        List.filter_map
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception p -> Some { c with pc_lhs = p }
            | _ -> None)
          cases
      in
      if handler_cases <> [] then check_handler_cases handler_cases
    | Pexp_apply (fn, args) ->
      if
        is_ident_named [ "="; "<>"; "=="; "!="; "compare" ] fn
        && (match fn.pexp_desc with
           | Pexp_ident lid -> (
             match modules lid.txt with [] | [ "Stdlib" ] -> true | _ -> false)
           | _ -> false)
        && List.exists (fun (_, a) -> floaty_operand a) args
      then
        emit ~code:"SA008" e.pexp_loc
          "exact float comparison; use an epsilon or Float.equal"
    | _ -> ()
  in
  let open Ast_iterator in
  let expr self e =
    check_expr e;
    match e.pexp_desc with
    | Pexp_open (od, _) when is_unix_module od.popen_expr ->
      incr unix_open;
      default_iterator.expr self e;
      decr unix_open
    | _ -> default_iterator.expr self e
  in
  let module_expr self me =
    (match me.pmod_desc with
    | Pmod_ident lid -> path_check ~loc:me.pmod_loc (flat lid.txt)
    | _ -> ());
    default_iterator.module_expr self me
  in
  let typ self ty =
    (match ty.ptyp_desc with
    | Ptyp_constr (lid, _) -> path_check ~loc:ty.ptyp_loc (modules lid.txt)
    | _ -> ());
    default_iterator.typ self ty
  in
  let structure_item self si =
    (match si.pstr_desc with
    | Pstr_open od when is_unix_module od.popen_expr ->
      (* A structure-level [open Unix] scopes to the rest of the file;
         traversal is in source order, so leaving it raised is right. *)
      incr unix_open
    | Pstr_value (_, vbs) when in_lib ->
      List.iter
        (fun vb ->
          if not (expr_contains_protect vb.pvb_expr) then begin
            let it =
              {
                default_iterator with
                expr =
                  (fun self e ->
                    (match e.pexp_desc with
                    | Pexp_apply (fn, _) -> (
                      match acquisition_of fn with
                      | Some what ->
                        emit ~code:"SA007" e.pexp_loc
                          (Printf.sprintf
                             "%s acquired without Fun.protect/Mutex.protect \
                              in the same binding"
                             what)
                      | None -> ())
                    | _ -> ());
                    default_iterator.expr self e);
              }
            in
            it.expr it vb.pvb_expr
          end)
        vbs
    | _ -> ());
    default_iterator.structure_item self si
  in
  let signature_item self si =
    (match si.psig_desc with
    | Psig_value vd
      when ctx.kind = Source.Intf && in_lib && lib_sub <> Some "engine" ->
      (* The [@@deprecated] exemption that once grandfathered the
         old migration shims is gone with the shims themselves:
         every engine-context argument outside lib/engine is now an
         error, full stop. *)
      let rec arrows ty =
        match ty.ptyp_desc with
        | Ptyp_arrow (label, _, rest) ->
          (match label with
          | Optional (("jobs" | "cache" | "lint") as l) ->
            emit ~code:"SA005" ty.ptyp_loc
              (Printf.sprintf
                 "val %s exposes ?%s outside lib/engine (route the engine \
                  context through ?engine)"
                 vd.pval_name.txt l)
          | _ -> ());
          arrows rest
        | Ptyp_poly (_, ty) -> arrows ty
        | _ -> ()
      in
      arrows vd.pval_type
    | _ -> ());
    default_iterator.signature_item self si
  in
  let it =
    { default_iterator with expr; module_expr; typ; structure_item;
      signature_item }
  in
  (match parsed with
  | Source.Structure s -> it.structure it s
  | Source.Signature s -> it.signature it s);
  (* SA002 / SA010: shared mutable state created at module init time.
     Only bindings evaluated at load count, so the walk stops at any
     function boundary — [let make () = Hashtbl.create 16] is a
     per-call table, not shared state. *)
  let state_exempt = [ "memo.ml"; "eval_cache.ml"; "storage_obs.ml" ] in
  (if ctx.kind = Source.Impl && in_lib && not (exempt state_exempt) then
     let creator fn =
       match fn.pexp_desc with
       | Pexp_ident lid -> (
         match (modules lid.txt, name lid.txt) with
         | [], "ref" | [ "Stdlib" ], "ref" -> Some ("SA010", "ref")
         | [ "Hashtbl" ], "create" -> Some ("SA002", dotted lid.txt)
         | [ "Array" ], ("make" | "init" | "create_float")
         | [ "Bytes" ], ("create" | "make")
         | [ ("Buffer" | "Queue" | "Stack" | "Atomic") ],
           ("create" | "make") ->
           Some ("SA010", dotted lid.txt)
         | _ -> None)
       | _ -> None
     in
     let scan_binding top =
       let expr self e =
         match e.pexp_desc with
         | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ | Pexp_lazy _ -> ()
         | _ ->
           (match e.pexp_desc with
           | Pexp_apply (fn, _) -> (
             match creator fn with
             | Some ("SA002", what) ->
               emit ~code:"SA002" e.pexp_loc
                 (Printf.sprintf
                    "top-level %s: shared mutable table outside the audited \
                     modules"
                    what)
             | Some (_, what) ->
               emit ~code:"SA010" e.pexp_loc
                 (Printf.sprintf
                    "top-level mutable state (%s) outside the audited modules"
                    what)
             | None -> ())
           | _ -> ());
           default_iterator.expr self e
       in
       let it = { default_iterator with expr } in
       it.expr it top
     in
     let rec walk_items items =
       List.iter
         (fun si ->
           match si.pstr_desc with
           | Pstr_value (_, vbs) ->
             List.iter (fun vb -> scan_binding vb.pvb_expr) vbs
           | Pstr_module mb -> walk_mod mb.pmb_expr
           | Pstr_recmodule mbs ->
             List.iter (fun mb -> walk_mod mb.pmb_expr) mbs
           | Pstr_include incl -> walk_mod incl.pincl_mod
           | _ -> ())
         items
     and walk_mod me =
       match me.pmod_desc with
       | Pmod_structure s -> walk_items s
       | Pmod_constraint (me, _) -> walk_mod me
       | _ -> ()
     in
     match parsed with
     | Source.Structure s -> walk_items s
     | Source.Signature _ -> ());
  List.sort_uniq Finding.compare !acc
