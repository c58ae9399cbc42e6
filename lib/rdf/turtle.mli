(** A pragmatic subset of Turtle for reading and writing RDF graphs.

    Supported syntax:
    - comments: [# ...] to end of line;
    - prefix declarations: [@prefix ex: <http://example.org/> .];
    - triple statements: [subject predicate object .] where each term is
      [<iri>], a prefixed name [ex:foo] (or [:foo]), or a SPARQL-style
      variable [?x] (variables are accepted by {!parse_triples} so the same
      reader can load triple-pattern fixtures, but rejected by
      {!parse_graph}).

    Literals and blank nodes are not supported: the paper's data model is
    ground IRI-only RDF.

    Parsers never raise on malformed input: every syntax problem comes
    back as [Error] carrying the offending line and column. *)

val parse_triples_err :
  ?source:string -> string -> (Triple.t list, Wdsparql_error.t) result
(** Parse a document into triples (variables allowed). [source] names the
    input (e.g. a file path) in diagnostics. Syntax errors come back as
    {!Wdsparql_error.Parse_error} with 1-based line/column. *)

val parse_ground_err :
  ?source:string -> string -> (Triple.t list, Wdsparql_error.t) result
(** As {!parse_triples_err} but requires every triple to be ground: the
    first non-ground one is reported as {!Wdsparql_error.Invalid_input}
    ["non-ground triple in data: ..."]. The triples come back in document
    order, duplicates kept. *)

val parse_graph_err :
  ?source:string -> string -> (Graph.t, Wdsparql_error.t) result
(** {!parse_ground_err}, collected into a graph. *)

val parse_triples : string -> (Triple.t list, string) result
(** {!parse_triples_err} with the error rendered as a one-line
    [line L, column C: ...] message. *)

val parse_graph : string -> (Graph.t, string) result
(** {!parse_graph_err} with the error rendered as a one-line message. *)

val to_string : ?prefixes:(string * string) list -> Graph.t -> string
(** Serialise; IRIs matching a [(prefix, expansion)] pair are written as
    prefixed names and the corresponding [@prefix] headers are emitted. *)
