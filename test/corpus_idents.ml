(* Every identifier the lexer finds in the shared header and the
   registry sources, each once: with the names a lookup lists, the
   inputs on which a lookup that replaced a list must agree with it. *)
let all : string list Lazy.t =
  lazy
    (let seen = Hashtbl.create 4096 in
     List.iter
       (fun src ->
         List.iter
           (fun (t : Csrc.Token.spanned) ->
             match t.tok with Csrc.Token.Ident id -> Hashtbl.replace seen id () | _ -> ())
           (Csrc.Lexer.lex src).tokens)
       (Corpus.Headers.kernel_h
       :: List.map (fun (e : Corpus.Types.entry) -> e.source) (Lazy.force Corpus.Registry.all));
     List.sort String.compare (Hashtbl.fold (fun id () acc -> id :: acc) seen []))

(* [lookup] gives what [reference] gives on each of [listed] and on
   every corpus identifier; [show] prints an answer in a failure. *)
let agree ~what ~show ~reference ~listed lookup =
  List.iter
    (fun name ->
      let want = reference name and got = lookup name in
      if want <> got then
        Alcotest.failf "%s %S: %s, where the former list gives %s" what name (show got)
          (show want))
    (listed @ Lazy.force all)
