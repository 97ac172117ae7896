(** Policy-aware relational transducers (Section 4.1.2).

    A transducer is a quadruple of queries [(Q_out, Q_ins, Q_del, Q_snd)]
    over the combined schema, producing respectively output facts, memory
    insertions, memory deletions, and messages. Queries can be given as
    OCaml functions or as Datalog¬ programs.

    The four queries must be pure functions of their input instance: no
    hidden state, no effects, the same result for equal instances.
    {!Explore} relies on this, serving repeated local steps from a memo
    table ({!Config.Memo}) instead of calling the queries again. *)

open Relational

type t = {
  schema : Transducer_schema.t;
  q_out : Instance.t -> Instance.t;
  q_ins : Instance.t -> Instance.t;
  q_del : Instance.t -> Instance.t;
  q_snd : Instance.t -> Instance.t;
}

val make :
  schema:Transducer_schema.t ->
  ?out:(Instance.t -> Instance.t) ->
  ?ins:(Instance.t -> Instance.t) ->
  ?del:(Instance.t -> Instance.t) ->
  ?snd:(Instance.t -> Instance.t) ->
  unit -> t
(** Omitted queries are constantly empty. Results are clipped to the
    target schemas ([Υout], [Υmem], [Υmem], [Υmsg] respectively) at
    transition time. *)

val of_datalog :
  schema:Transducer_schema.t ->
  ?out:string -> ?ins:string -> ?del:string -> ?snd:string ->
  unit -> t
(** Each component is the source text of a stratified Datalog¬ program
    evaluated on the transition's visible instance [D]. The component's
    result is read off relations with a reserved prefix — [Out_R], [Ins_R],
    [Del_R], [Snd_R] — which is stripped, the fact landing in relation [R]
    of the corresponding target schema ([Υout], [Υmem], [Υmem], [Υmsg]).
    The namespacing separates "what the query derives" from "what is
    currently stored", which matters for deletion queries. Programs may
    use any other helper idb relations; they are discarded after the
    transition (persistent state lives in [Υmem] only).
    @raise Invalid_argument on parse/stratification errors. *)
