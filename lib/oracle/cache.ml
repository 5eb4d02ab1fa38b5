(** Content-addressed oracle answer cache. See cache.mli. *)

module J = Obs.Json
module R = Obs.Record_file

let schema_version = 1
let version = 1
let format_tag = "kernelgpt-oracle-cache"

type entry = {
  e_response : Prompt.response;
  e_queries : int;
  e_tokens : int;
  e_truncations : int;
  e_errors : int;
}

type stats = {
  st_entries : int;
  st_loaded : int;
  st_hits : int;
  st_misses : int;
  st_stale : int;
}

type t = {
  table : (string, entry) Hashtbl.t;
  mu : Mutex.t;
  c_file : string option;
  c_readonly : bool;
  mutable dirty : bool;
  mutable loaded : int;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
}

let readonly t = t.c_readonly
let file t = t.c_file

let make ?(readonly = false) file =
  {
    table = Hashtbl.create 256;
    mu = Mutex.create ();
    c_file = file;
    c_readonly = readonly;
    dirty = false;
    loaded = 0;
    hits = 0;
    misses = 0;
    stale = 0;
  }

let in_memory () = make None

(* ------------------------------------------------------------------ *)
(* Key derivation                                                      *)
(* ------------------------------------------------------------------ *)

let key ~(profile : Profile.t) (p : Prompt.t) : string =
  (* the key hashes what the model would actually see: the prompt after
     the profile's context window dropped its trailing snippets *)
  let truncated, _ = Oracle.truncate profile p in
  let buf = Buffer.create 4096 in
  List.iter
    (fun part ->
      Buffer.add_string buf part;
      Buffer.add_char buf '\x00')
    [
      profile.Profile.name;
      Oracle.task_name p.Prompt.task;
      Oracle.task_subject p.Prompt.task;
      Prompt.render truncated;
      string_of_int schema_version;
    ];
  Printf.sprintf "%016Lx" (R.fnv1a64 (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Response (de)serialization                                          *)
(* ------------------------------------------------------------------ *)

let j_opt f = function None -> J.Null | Some v -> f v
let opt_of f = function J.Null -> None | j -> Some (f j)

let str_of = function J.Str s -> s | _ -> R.bad "expected a string"
let int_of = function J.Int i -> i | _ -> R.bad "expected an int"

let j_of_width w = J.Str (Syzlang.Ast.width_to_string w)

let width_of = function
  | J.Str "int8" -> Syzlang.Ast.I8
  | J.Str "int16" -> Syzlang.Ast.I16
  | J.Str "int32" -> Syzlang.Ast.I32
  | J.Str "int64" -> Syzlang.Ast.I64
  | J.Str "intptr" -> Syzlang.Ast.Iptr
  | _ -> R.bad "bad int width"

let j_of_dir d = J.Str (Syzlang.Ast.dir_to_string d)

let dir_of = function
  | J.Str "in" -> Syzlang.Ast.In
  | J.Str "out" -> Syzlang.Ast.Out
  | J.Str "inout" -> Syzlang.Ast.Inout
  | _ -> R.bad "bad direction"

let j_of_cref (c : Syzlang.Ast.const_ref) =
  J.Obj
    [
      ("name", j_opt (fun n -> J.Str n) c.const_name);
      ("value", j_opt R.j_int64 c.const_value);
    ]

let cref_of = function
  | J.Obj [ ("name", n); ("value", v) ] ->
      { Syzlang.Ast.const_name = opt_of str_of n; const_value = opt_of R.int64_of v }
  | _ -> R.bad "bad const_ref encoding"

let j_of_range (r : Syzlang.Ast.range) =
  J.Obj [ ("lo", R.j_int64 r.lo); ("hi", R.j_int64 r.hi) ]

let range_of = function
  | J.Obj [ ("lo", lo); ("hi", hi) ] -> { Syzlang.Ast.lo = R.int64_of lo; hi = R.int64_of hi }
  | _ -> R.bad "bad range encoding"

let rec j_of_typ (t : Syzlang.Ast.typ) : J.t =
  let open Syzlang.Ast in
  match t with
  | Int (w, r) -> J.Obj [ ("int", j_of_width w); ("range", j_opt j_of_range r) ]
  | Const (c, w) -> J.Obj [ ("const", j_of_cref c); ("width", j_of_width w) ]
  | Flags (n, w) -> J.Obj [ ("flags", J.Str n); ("width", j_of_width w) ]
  | Ptr (d, t) -> J.Obj [ ("ptr", j_of_dir d); ("to", j_of_typ t) ]
  | Array (t, n) -> J.Obj [ ("array", j_of_typ t); ("len", j_opt (fun n -> J.Int n) n) ]
  | Buffer d -> J.Obj [ ("buffer", j_of_dir d) ]
  | String s -> J.Obj [ ("string", j_opt (fun s -> J.Str s) s) ]
  | Len (n, w) -> J.Obj [ ("len_of", J.Str n); ("width", j_of_width w) ]
  | Bytesize (n, w) -> J.Obj [ ("bytesize_of", J.Str n); ("width", j_of_width w) ]
  | Resource_ref n -> J.Obj [ ("resource", J.Str n) ]
  | Struct_ref n -> J.Obj [ ("struct", J.Str n) ]
  | Union_ref n -> J.Obj [ ("union", J.Str n) ]
  | Fd -> J.Str "fd"
  | Void -> J.Str "void"

let rec typ_of (j : J.t) : Syzlang.Ast.typ =
  let open Syzlang.Ast in
  match j with
  | J.Str "fd" -> Fd
  | J.Str "void" -> Void
  | J.Obj [ ("int", w); ("range", r) ] -> Int (width_of w, opt_of range_of r)
  | J.Obj [ ("const", c); ("width", w) ] -> Const (cref_of c, width_of w)
  | J.Obj [ ("flags", J.Str n); ("width", w) ] -> Flags (n, width_of w)
  | J.Obj [ ("ptr", d); ("to", t) ] -> Ptr (dir_of d, typ_of t)
  | J.Obj [ ("array", t); ("len", n) ] -> Array (typ_of t, opt_of int_of n)
  | J.Obj [ ("buffer", d) ] -> Buffer (dir_of d)
  | J.Obj [ ("string", s) ] -> String (opt_of str_of s)
  | J.Obj [ ("len_of", J.Str n); ("width", w) ] -> Len (n, width_of w)
  | J.Obj [ ("bytesize_of", J.Str n); ("width", w) ] -> Bytesize (n, width_of w)
  | J.Obj [ ("resource", J.Str n) ] -> Resource_ref n
  | J.Obj [ ("struct", J.Str n) ] -> Struct_ref n
  | J.Obj [ ("union", J.Str n) ] -> Union_ref n
  | _ -> R.bad "bad type encoding"

let j_of_field (f : Syzlang.Ast.field) =
  J.Obj [ ("fname", J.Str f.fname); ("ftyp", j_of_typ f.ftyp) ]

let field_of = function
  | J.Obj [ ("fname", J.Str n); ("ftyp", t) ] -> { Syzlang.Ast.fname = n; ftyp = typ_of t }
  | _ -> R.bad "bad field encoding"

let j_of_comp (c : Syzlang.Ast.comp_def) =
  J.Obj
    [
      ("name", J.Str c.comp_name);
      ("kind", J.Str (match c.comp_kind with Syzlang.Ast.Struct -> "struct" | Syzlang.Ast.Union -> "union"));
      ("fields", J.List (List.map j_of_field c.comp_fields));
    ]

let comp_of = function
  | J.Obj [ ("name", J.Str n); ("kind", J.Str k); ("fields", J.List fs) ] ->
      let kind =
        match k with
        | "struct" -> Syzlang.Ast.Struct
        | "union" -> Syzlang.Ast.Union
        | _ -> R.bad "bad composite kind %S" k
      in
      { Syzlang.Ast.comp_name = n; comp_kind = kind; comp_fields = List.map field_of fs }
  | _ -> R.bad "bad composite encoding"

let j_of_ident (i : Prompt.ident) =
  J.Obj
    [
      ("cmd", J.Str i.id_cmd);
      ("arg_type", j_opt (fun s -> J.Str s) i.id_arg_type);
      ("dir", j_of_dir i.id_arg_dir);
      ("scalar", J.Bool i.id_scalar_arg);
      ("copy_size", j_opt (fun n -> J.Int n) i.id_copy_size);
      ("values", J.List (List.map j_of_cref i.id_values));
    ]

let ident_of = function
  | J.Obj
      [
        ("cmd", J.Str cmd);
        ("arg_type", at);
        ("dir", d);
        ("scalar", J.Bool sc);
        ("copy_size", cs);
        ("values", J.List vs);
      ] ->
      {
        Prompt.id_cmd = cmd;
        id_arg_type = opt_of str_of at;
        id_arg_dir = dir_of d;
        id_scalar_arg = sc;
        id_copy_size = opt_of int_of cs;
        id_values = List.map cref_of vs;
      }
  | _ -> R.bad "bad ident encoding"

let j_of_unknown (u : Prompt.unknown) =
  J.Obj [ ("name", J.Str u.u_name); ("usage", J.Str u.u_usage) ]

let unknown_of = function
  | J.Obj [ ("name", J.Str n); ("usage", J.Str u) ] -> { Prompt.u_name = n; u_usage = u }
  | _ -> R.bad "bad unknown encoding"

let j_of_dep (d : Prompt.dep) =
  J.Obj [ ("cmd", J.Str d.dep_cmd); ("ops", J.Str d.dep_ops) ]

let dep_of = function
  | J.Obj [ ("cmd", J.Str c); ("ops", J.Str o) ] -> { Prompt.dep_cmd = c; dep_ops = o }
  | _ -> R.bad "bad dep encoding"

let j_of_response (r : Prompt.response) : J.t =
  J.Obj
    [
      ("idents", J.List (List.map j_of_ident r.r_idents));
      ("types", J.List (List.map j_of_comp r.r_types));
      ("unknown", J.List (List.map j_of_unknown r.r_unknown));
      ("nested", J.List (List.map (fun n -> J.Str n) r.r_nested_types));
      ("deps", J.List (List.map j_of_dep r.r_deps));
      ("devices", J.List (List.map (fun p -> J.Str p) r.r_device_paths));
      ( "socket",
        j_opt (fun (d, t, p) -> J.List [ J.Int d; J.Int t; J.Int p ]) r.r_socket_triple );
      ("repaired", j_opt (fun s -> J.Str s) r.r_repaired);
    ]

let response_of : J.t -> Prompt.response = function
  | J.Obj
      [
        ("idents", J.List ids);
        ("types", J.List tys);
        ("unknown", J.List us);
        ("nested", J.List ns);
        ("deps", J.List ds);
        ("devices", J.List ps);
        ("socket", sock);
        ("repaired", rep);
      ] ->
      {
        Prompt.r_idents = List.map ident_of ids;
        r_types = List.map comp_of tys;
        r_unknown = List.map unknown_of us;
        r_nested_types = List.map str_of ns;
        r_deps = List.map dep_of ds;
        r_device_paths = List.map str_of ps;
        r_socket_triple =
          opt_of
            (function
              | J.List [ J.Int d; J.Int t; J.Int p ] -> (d, t, p)
              | _ -> R.bad "bad socket triple")
            sock;
        r_repaired = opt_of str_of rep;
      }
  | _ -> R.bad "bad response encoding"

let j_of_entry key (e : entry) : J.t =
  J.Obj
    [
      ("key", J.Str key);
      ("queries", J.Int e.e_queries);
      ("tokens", J.Int e.e_tokens);
      ("truncations", J.Int e.e_truncations);
      ("errors", J.Int e.e_errors);
      ("response", j_of_response e.e_response);
    ]

let entry_of : J.t -> string * entry = function
  | J.Obj
      [
        ("key", J.Str key);
        ("queries", J.Int q);
        ("tokens", J.Int tk);
        ("truncations", J.Int tr);
        ("errors", J.Int er);
        ("response", resp);
      ] ->
      ( key,
        {
          e_response = response_of resp;
          e_queries = q;
          e_tokens = tk;
          e_truncations = tr;
          e_errors = er;
        } )
  | _ -> R.bad "bad entry encoding"

(* ------------------------------------------------------------------ *)
(* Lookup / store / replay                                             *)
(* ------------------------------------------------------------------ *)

let find (t : t) ~(subject : string) (key : string) : entry option =
  let hit =
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e ->
            t.hits <- t.hits + 1;
            Some e
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  (match hit with
  | Some _ ->
      Obs.Metrics.incr "oracle.cache.hits";
      Obs.event ~kind:"oracle.cache"
        ~attrs:(fun () -> [ ("subject", Obs.Json.Str subject); ("key", Obs.Json.Str key) ])
        "hit"
  | None ->
      Obs.Metrics.incr "oracle.cache.misses";
      Obs.event ~kind:"oracle.cache"
        ~attrs:(fun () -> [ ("subject", Obs.Json.Str subject); ("key", Obs.Json.Str key) ])
        "miss");
  hit

let store (t : t) ~(key : string) ~subject:(_ : string) (e : entry) : unit =
  Mutex.protect t.mu (fun () ->
      (* first writer wins: answers are deterministic per key, so every
         worker racing here carries the same entry *)
      if not (Hashtbl.mem t.table key) then begin
        Hashtbl.replace t.table key e;
        t.dirty <- true
      end)

let replay (o : Oracle.t) (e : entry) : Prompt.response =
  o.Oracle.queries <- o.Oracle.queries + e.e_queries;
  o.Oracle.prompt_tokens <- o.Oracle.prompt_tokens + e.e_tokens;
  o.Oracle.truncations <- o.Oracle.truncations + e.e_truncations;
  o.Oracle.injected_errors <- o.Oracle.injected_errors + e.e_errors;
  e.e_response

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let flush (t : t) : (unit, string) result =
  match t.c_file with
  | None -> Ok ()
  | Some _ when t.c_readonly -> Ok ()
  | Some _ when not t.dirty -> Ok ()
  | Some file -> (
      let rows =
        Mutex.protect t.mu (fun () ->
            Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.table [])
      in
      (* key order, so the file bytes never depend on scheduling *)
      let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
      let header =
        J.Obj
          [
            ("format", J.Str format_tag);
            ("version", J.Int version);
            ("schema", J.Int schema_version);
          ]
      in
      match R.save ~file ~header (List.map (fun (k, e) -> j_of_entry k e) rows) with
      | _ ->
          t.dirty <- false;
          Obs.Metrics.incr "oracle.cache.flushes";
          Obs.event ~kind:"oracle.cache"
            ~attrs:(fun () ->
              [
                ("file", Obs.Json.Str file);
                ("entries", Obs.Json.Int (List.length rows));
              ])
            "flush";
          Ok ()
      | exception Sys_error e -> Error (Printf.sprintf "cannot write oracle cache %s: %s" file e))

let load (t : t) (file : string) : (unit, string) result =
  let decode header entries =
    match J.member "schema" header with
    | Some (J.Int s) when s <> schema_version ->
        (* another schema's answers can never be replayed (the schema
           is part of every key): drop them all as stale, unparsed,
           instead of rejecting the file *)
        let n = List.length entries in
        t.stale <- t.stale + n;
        Obs.Metrics.incr ~by:n "oracle.cache.stale"
    | Some (J.Int _) ->
        List.iter
          (fun line ->
            let k, e = entry_of (R.parse line) in
            Hashtbl.replace t.table k e;
            t.loaded <- t.loaded + 1)
          entries
    | _ -> R.bad "oracle cache header lacks a schema version"
  in
  match R.load ~what:"oracle cache" ~format:format_tag ~version file decode with
  | Ok () ->
      Obs.event ~kind:"oracle.cache"
        ~attrs:(fun () ->
          [
            ("file", Obs.Json.Str file);
            ("entries", Obs.Json.Int t.loaded);
            ("stale", Obs.Json.Int t.stale);
          ])
        "load";
      Ok ()
  | Error e -> Error e

let open_file ?(readonly = false) (file : string) : (t, string) result =
  let t = make ~readonly (Some file) in
  if not (Sys.file_exists file) then
    if readonly then Error (Printf.sprintf "%s: read-only oracle cache does not exist" file)
    else Ok t (* cold cache: the file appears on the first flush *)
  else match load t file with Ok () -> Ok t | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let stats (t : t) : stats =
  Mutex.protect t.mu (fun () ->
      {
        st_entries = Hashtbl.length t.table;
        st_loaded = t.loaded;
        st_hits = t.hits;
        st_misses = t.misses;
        st_stale = t.stale;
      })

let summary (t : t) : string =
  let s = stats t in
  let total = s.st_hits + s.st_misses in
  let rate = if total = 0 then 0.0 else 100.0 *. float_of_int s.st_hits /. float_of_int total in
  Printf.sprintf "%d entries (%d loaded, %d stale); %d hits / %d misses (%.1f%% hit rate)"
    s.st_entries s.st_loaded s.st_stale s.st_hits s.st_misses rate
