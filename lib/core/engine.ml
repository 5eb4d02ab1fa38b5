(** Algorithm 1 — LLM-guided iterative analysis.

    Each stage starts from a set of target definitions, prompts the
    oracle with their source, and recurses on whatever the oracle marks
    [UNKNOWN], up to [max_iter] rounds. The visited set prevents
    re-analysis; everything is fully automated. *)

let max_iter = 5

type stage_stats = { mutable iterations : int }

let new_stats () = { iterations = 0 }

(** The loop of Algorithm 1, shared by identifier deduction and type
    recovery. Each round extracts the source of every target not yet
    visited ([name] keys the visited set), prompts with it, and collects
    the targets [answer] reads from the response as [UNKNOWN] for the
    next round, for at most [max_iter] rounds. A degraded query (the
    fault-tolerant client gave up) skips its target: the stage keeps
    everything it already has. *)
let iterate ~(client : Client.t) ~(module_index : Csrc.Index.t) ~(stats : stage_stats)
    ~(name : 'a -> string) ~(prompt : 'a -> Prompt.snippet -> Prompt.t)
    ~(answer : Prompt.response -> 'a list) (targets : 'a list) : unit =
  let visited = Hashtbl.create 8 in
  let rec go step targets =
    if step <= max_iter && targets <> [] then begin
      stats.iterations <- stats.iterations + 1;
      go (step + 1)
        (List.concat_map
           (fun t ->
             let n = name t in
             if Hashtbl.mem visited n then []
             else begin
               Hashtbl.replace visited n ();
               match Extractor.snippet module_index n with
               | None -> []
               | Some snip -> (
                   match Client.query client (prompt t snip) with
                   | None -> []
                   | Some resp -> answer resp)
             end)
           targets)
    end
  in
  go 1 targets

(** [xs] without the elements whose [key] an earlier element has. *)
let dedupe ~(key : 'a -> string) (xs : 'a list) : 'a list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    xs

(** Identifier deduction (§3.1.1): follow dispatched functions until the
    command values and argument types are known. *)
let identifier_stage ~(client : Client.t) ~(module_index : Csrc.Index.t)
    ~(handler_fn : string) ~(stats : stage_stats) : Prompt.ident list =
  Obs.with_span
    ~attrs:(fun () -> [ ("fn", Obs.Json.Str handler_fn) ])
    ~kind:"pipeline.stage" "identifier"
  @@ fun () ->
  let idents = ref [] in
  iterate ~client ~module_index ~stats ~name:fst
    ~prompt:(fun (fn, usage) snip ->
      {
        Prompt.task = Prompt.Identifier_deduction { handler_fn = fn };
        (* the module's own #defines ride along so command macros
           resolve against the right header *)
        snippets = [ snip; Extractor.module_macros_snippet module_index ];
        usage;
      })
    ~answer:(fun resp ->
      idents := List.rev_append resp.Prompt.r_idents !idents;
      List.map (fun (u : Prompt.unknown) -> (u.u_name, [ u.u_usage ])) resp.r_unknown)
    [ (handler_fn, []) ];
  (* deduplicate, keeping handler source order: dispatch order usually is
     setup order (create before load), which downstream program
     generation exploits *)
  dedupe ~key:(fun (i : Prompt.ident) -> i.id_cmd) (List.rev !idents)

(** Type recovery (§3.1.2): translate argument structs, chasing nested
    types marked unknown. *)
let type_stage ~(client : Client.t) ~(module_index : Csrc.Index.t)
    ~(type_names : string list) ~(stats : stage_stats) : Syzlang.Ast.comp_def list =
  let type_names = List.sort_uniq String.compare type_names in
  Obs.with_span
    ~attrs:(fun () -> [ ("targets", Obs.Json.Int (List.length type_names)) ])
    ~kind:"pipeline.stage" "type"
  @@ fun () ->
  let types = ref [] in
  iterate ~client ~module_index ~stats ~name:Fun.id
    ~prompt:(fun tn snip ->
      { Prompt.task = Prompt.Type_recovery { type_name = tn }; snippets = [ snip ]; usage = [] })
    ~answer:(fun resp ->
      types := resp.Prompt.r_types @ !types;
      resp.r_nested_types)
    type_names;
  (* the reversal also reverses each answer's own list; generated specs
     (and the goldens that pin them) depend on that order *)
  dedupe ~key:(fun (c : Syzlang.Ast.comp_def) -> c.comp_name) (List.rev !types)

(** Dependency analysis (§3.1.3): present the handler and the functions
    it reaches, and let the oracle spot resource-producing commands. *)
let dependency_stage ~(client : Client.t) ~(module_index : Csrc.Index.t)
    ~(handler_fn : string) ~(stats : stage_stats) : Prompt.dep list =
  Obs.with_span
    ~attrs:(fun () -> [ ("fn", Obs.Json.Str handler_fn) ])
    ~kind:"pipeline.stage" "dependency"
  @@ fun () ->
  stats.iterations <- stats.iterations + 1;
  let fns = Extractor.call_closure module_index handler_fn ~depth:3 in
  let snippets = List.filter_map (Extractor.snippet module_index) fns in
  match
    Client.query client
      { Prompt.task = Prompt.Dependency_analysis { handler_fn }; snippets; usage = [] }
  with
  | None -> []
  | Some resp -> resp.Prompt.r_deps

(** Device-name inference for the registration symbol. *)
let device_stage ~(client : Client.t) ~(module_index : Csrc.Index.t)
    ~(reg_symbol : string) : string option =
  Obs.with_span
    ~attrs:(fun () -> [ ("symbol", Obs.Json.Str reg_symbol) ])
    ~kind:"pipeline.stage" "device"
  @@ fun () ->
  let snippets = List.filter_map (Extractor.snippet module_index) [ reg_symbol ] in
  match
    Client.query client
      { Prompt.task = Prompt.Device_name { reg_symbol }; snippets; usage = [] }
  with
  | None -> None
  | Some resp -> (
      match resp.Prompt.r_device_paths with p :: _ -> Some p | [] -> None)

(** Socket-triple inference for a proto_ops symbol. *)
let socket_stage ~(client : Client.t) ~(module_index : Csrc.Index.t)
    ~(ops_symbol : string) : (int * int * int) option =
  Obs.with_span
    ~attrs:(fun () -> [ ("symbol", Obs.Json.Str ops_symbol) ])
    ~kind:"pipeline.stage" "socket"
  @@ fun () ->
  let snippets =
    List.filter_map (Extractor.snippet module_index) [ ops_symbol ]
    @ [ Extractor.module_macros_snippet module_index ]
  in
  match
    Client.query client
      { Prompt.task = Prompt.Socket_triple { ops_symbol }; snippets; usage = [] }
  with
  | None -> None
  | Some resp -> resp.Prompt.r_socket_triple

(** §5.2.3 ablation: all related code in one prompt, one query. *)
let all_in_one ~(client : Client.t) ~(module_index : Csrc.Index.t) ~(handler_fn : string) :
    Prompt.ident list * Syzlang.Ast.comp_def list * Prompt.dep list =
  Obs.with_span
    ~attrs:(fun () -> [ ("fn", Obs.Json.Str handler_fn) ])
    ~kind:"pipeline.stage" "all-in-one"
  @@ fun () ->
  let fns = Extractor.call_closure module_index handler_fn ~depth:4 in
  (* include every struct any of those functions reference, plus their
     nested structs — everything, as the ablation prescribes *)
  let structs =
    List.concat_map
      (fun fn ->
        match Csrc.Index.find_function module_index fn with
        | Some fd ->
            List.filter_map
              (fun (s : Csrc.Ast.stmt) ->
                match s.Csrc.Ast.node with
                | Csrc.Ast.Decl_stmt (Csrc.Ast.Struct_ref sn, _, _) -> Some sn
                | _ -> None)
              (Csrc.Ast.stmts_of_body fd.fun_body)
        | None -> [])
      fns
    |> List.sort_uniq String.compare
  in
  let nested =
    List.concat_map
      (fun sn ->
        match Csrc.Index.find_composite module_index sn with
        | Some cd ->
            List.filter_map
              (fun (f : Csrc.Ast.field) ->
                match f.field_type with
                | Csrc.Ast.Struct_ref n | Csrc.Ast.Union_ref n
                | Csrc.Ast.Array (Csrc.Ast.Struct_ref n, _) ->
                    Some n
                | _ -> None)
              cd.fields
        | None -> [])
      structs
  in
  let names = fns @ structs @ nested |> List.sort_uniq String.compare in
  let snippets = List.filter_map (Extractor.snippet module_index) names in
  match
    Client.query client
      { Prompt.task = Prompt.All_in_one { handler_fn }; snippets; usage = [] }
  with
  | None -> ([], [], [])
  | Some resp -> (resp.Prompt.r_idents, resp.Prompt.r_types, resp.Prompt.r_deps)
