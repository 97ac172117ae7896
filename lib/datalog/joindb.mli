(** Shared join substrate of the Datalog engines.

    A rule is compiled once into a {!plan}: each variable gets an int
    slot, constants are preloaded into slots of their own, and every
    term the join reads or writes — probe keys, bind and check positions,
    the head, negated atoms, inequalities — becomes a slot reference. A
    valuation is then one [Value.t array] that the join loop fills and
    backtracks in place.

    A value of type {!t} stores facts per predicate. A probe returns the
    facts of one body atom agreeing with the valuation on the atom's
    determinate positions (constants, or variables bound by earlier
    atoms). A relation of at most {!scan_threshold} facts is filtered
    directly; a larger one gets a hash index per (arity, key position
    set), built on first probe and kept.

    {!Eval}'s one depth-first join loop drives every probe through this
    module, for the fixpoint, EXPLAIN and {!Ivm} alike. *)

open Relational

(** {2 Rule plans} *)

type slot =
  | Bind of int * string  (** free position: bind the variable *)
  | Check of int * string  (** repeated free variable: check equality *)

type atom_plan = private {
  pred : string;
  arity : int;
  key_positions : int list;
  key_terms : Ast.term list;
  slots : slot list;
  kpos : int array;
  kslot : int array;
  bpos : int array;
  bslot : int array;
  cpos : int array;
  cslot : int array;
}
(** One positive body atom: the positions probed by key (with their
    terms, and the slots holding their values) and the free positions
    bound or checked per candidate. *)

type plan = private {
  rule : Ast.rule;
  atoms : atom_plan array;
  init : Value.t array;
  head_pred : string;
  head_slots : int array;
  skolem : string option;
  negs : atom_plan array;
  ineqs : (int * int) array;
  bound : bool;
}
(** A rule compiled against its positive body order. [init] is a fresh
    valuation with the constants' slots filled; each negated atom is a
    fully keyed {!atom_plan}; [bound] is false when some head, negated or
    inequality term has no binding positive atom (only possible for rules
    built without {!Ast.check_rule}). *)

val plan_rule : Ast.rule -> plan
val plan_program : Ast.program -> plan list

val skolem_functor : string -> string
(** Name of the Skolem functor associated with an invention relation
    ([f_R] in the paper). *)

val bind : atom_plan -> Value.t array -> Fact.t -> bool
(** Write a probed fact's free positions into the valuation; [false]
    when a repeated free variable clashes. Keyed positions are already
    guaranteed equal by the probe. *)

val ground_head : plan -> Value.t array -> Fact.t
(** Ground the head under a complete valuation; invention heads are
    Skolemized (Section 5.2).
    @raise Invalid_argument on a variable no positive atom binds. *)

(** {2 Storage} *)

type t
(** A fact store. Indexes are built on demand and memoized. *)

val scan_threshold : int
(** Relations of at most this many facts are probed by filtering every
    fact on the key positions, without an index. *)

val create : unit -> t

val add : t -> Fact.t -> unit
(** In-place insertion, maintaining every index already built. Only for
    stores that share no storage through {!update} — a saturation's store
    until it becomes an {!Ivm} handle's base, and the overlays and stratum
    stores of one maintenance run. *)

val of_instance : Instance.t -> t

val of_facts : Fact.t list -> t
(** Store a raw fact list (duplicate-free) without building an
    {!Instance.t} first. *)

val update : t -> add:Fact.t list -> remove:Instance.t -> t
(** Functional update. Predicates untouched by [add]/[remove] share
    their storage — including every lazily built index — with the input;
    touched predicates drop their indexes for lazy rebuild. The input
    store is left usable and unchanged. *)

val mem_pred : t -> string -> bool
(** Whether the store holds any fact of the predicate. *)

val mem : t -> Fact.t -> bool
(** Membership: a scan of a small relation, else a lookup in its index
    on every position. *)

val candidates : t -> atom_plan -> Value.t array -> Fact.t list
(** The facts a probe of the atom must filter with {!matches}: the
    whole relation when it is small or the atom has no key, else the
    index bucket of the valuation's key. *)

val matches : atom_plan -> Value.t array -> Fact.t -> bool
(** The fact has the atom's arity and agrees with the valuation on the
    key positions. *)

(** {2 Sources}

    What one body position of a join reads, as data: {!Eval}'s join loop
    walks the parts in order, so a caller composes base, overlay and Δ
    stores without building a closure per probe. *)

type part =
  | All of t
  | Without of t * (Fact.t -> bool)
      (** the store minus the facts the predicate holds for *)

type source = part list

val passes_absent : plan -> source -> Value.t array -> bool
(** Inequality and negation side conditions under a complete valuation,
    each negated atom holding when the source lacks it (a membership
    probe, grounding nothing).
    @raise Invalid_argument on a variable no positive atom binds. *)

(** {2 EXPLAIN} *)

val pp_atom_plan : Format.formatter -> atom_plan -> unit
(** One line: index choice (keyed positions + key terms, or full scan)
    and the bind/check slots the probe loop applies per candidate. *)

val pp_plan : Format.formatter -> plan -> unit
(** The rule followed by one [pp_atom_plan] line per body atom, in
    probe order. *)
