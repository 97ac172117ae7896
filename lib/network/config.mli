(** Configurations and transitions of transducer networks
    (Section 4.1.3), including the model variants of Sections 4.1.5 / 4.3:
    the original model (no policy relations), the policy-aware model, and
    the [All]-free and oblivious restrictions. *)

open Relational

type variant = {
  with_policy : bool;
      (** expose [MyAdom] and the [policy_R] relations (Zinn et al.'s
          extension); the original model of Ameloot et al. has neither *)
  with_all : bool;   (** expose [All]; also widens [A] from [{x}] to [N] *)
  with_id : bool;    (** expose [Id]; oblivious transducers lack it too *)
}

(** [Id] and [All], no policy relations: the model of Ameloot et al. *)
val original : variant

(** Everything visible: Zinn et al.'s policy-aware model. *)
val policy_aware : variant

(** No [All] (Section 4.3). *)
val all_free : variant

(** Neither [Id] nor [All] nor policy relations (Corollary 4.6). *)
val oblivious : variant

type t = {
  state : Instance.t Value.Map.t;    (** per node: facts over Υout ∪ Υmem *)
  buffer : Multiset.t Value.Map.t;   (** per node: undelivered messages *)
}

val start : Distributed.network -> t

val state_of : t -> Value.t -> Instance.t
val buffer_of : t -> Value.t -> Multiset.t

val outputs : Transducer_schema.t -> t -> Instance.t
(** Union over all nodes of the facts over [Υout]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

type stats = {
  messages_sent : int;      (** copies enqueued (fact × recipients) *)
  delivered : int;          (** message copies consumed *)
  new_state_facts : int;    (** state facts added or removed *)
  sent_facts : Instance.t;  (** the message facts produced by [Q_snd] *)
  output_delta : Instance.t;  (** output facts new in this transition *)
}

val system_facts :
  variant -> Policy.t -> Distributed.network -> Value.t -> Value.Set.t ->
  Instance.t
(** The set [S] of system facts shown to node [x] given the value set [A]
    (already including whatever the variant prescribes). Exposed for
    tests. *)

(** A memo table for the local half of {!transition}: node [x]'s new
    state, sent facts and output delta, keyed by [x], [x]'s state and the
    support of what [x] receives. A table is valid for one fixed
    (variant, policy, transducer, input) only, relies on the transducer's
    queries being pure functions of their input instance, and must not
    be shared between domains. *)
module Memo : sig
  type t

  val create : unit -> t
  val hits : t -> int
  val misses : t -> int
end

val transition :
  ?memo:Memo.t ->
  variant:variant ->
  policy:Policy.t ->
  transducer:Transducer.t ->
  input:Instance.t ->
  t -> node:Value.t -> deliver:Multiset.t ->
  t * stats
(** One transition of the given node consuming the given submultiset of
    its buffer (the paper's [(ρ1, x, m, ρ2)]). With [memo], the local
    half is served from the table when the same step was taken before;
    the buffer bookkeeping and the [net.*] metrics run either way.
    @raise Invalid_argument if [deliver] is not a submultiset of the
    node's buffer or the node is not in the network. *)

val heartbeat :
  variant:variant -> policy:Policy.t -> transducer:Transducer.t ->
  input:Instance.t -> t -> node:Value.t -> t * stats
(** [transition] with [deliver = ∅]. *)
