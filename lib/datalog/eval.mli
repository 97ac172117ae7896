(** Fixpoint evaluation of Datalog¬ programs.

    The engine has one semi-naive loop, {!fixpoint}: saturation here and
    every maintenance path of {!Ivm} run it. [seminaive] computes the
    minimal fixpoint of the immediate consequence operator [T_P]
    (Section 2) for semi-positive programs — programs whose negated
    predicates are never derived by the rules being evaluated (their
    extent is fixed throughout). [stratified] runs a syntactic
    stratification bottom-up over one store of the input, each stratum
    one full pass and then the loop's rounds. A negated ground atom holds
    when the store lacks it: the paper's semantics for semi-positive
    programs and strata. *)

open Relational

exception Diverged
(** Raised when a fixpoint exceeds its [max_facts] budget. Pure Datalog¬
    always terminates; the budget matters for ILOG programs with recursive
    value invention, whose output the paper leaves undefined when infinite
    (Section 5.2). *)

val reorder_body : Ast.rule -> Ast.rule
(** Join-order heuristic: greedily reorders the positive body atoms so
    that each atom shares as many variables as possible with the atoms
    before it (ties broken towards atoms with constants, then fewer
    variables). Semantically a no-op — rule bodies are sets — but it
    shrinks the join's intermediate bindings. Not applied by the
    evaluators themselves: rules are joined in source order unless the
    caller optimizes them first, as the E18 ablation bench does. *)

val optimize : Ast.program -> Ast.program
(** {!reorder_body} applied to every rule. *)

val seminaive : ?max_facts:int -> Ast.program -> Instance.t -> Instance.t
(** Least fixpoint above the input by semi-naive (delta) iteration.
    Agrees with the reference naive fixpoint {!Refeval.naive} on
    semi-positive programs (tested property).
    @raise Diverged if the fixpoint grows past [max_facts]. *)

val stratified :
  ?max_facts:int -> Ast.program -> Instance.t -> (Instance.t, string) result
(** Stratified semantics [P_k(...P_1(I)...)]; [Error] if not syntactically
    stratifiable. *)

val stratified_exn : ?max_facts:int -> Ast.program -> Instance.t -> Instance.t
(** @raise Invalid_argument if not stratifiable. *)

val saturate :
  ?max_facts:int -> Joindb.plan list list -> Instance.t -> Instance.t * Joindb.t
(** {!stratified} over strata already compiled by {!Joindb.plan_program},
    bottom-up: the model and the one store that holds it. {!Ivm} compiles
    a program once, saturates many inputs and keeps each store.
    @raise Diverged if the model grows past [max_facts]. *)

val iter_firings :
  Joindb.source -> Joindb.plan -> (Joindb.plan -> Value.t array -> unit) ->
  unit
(** The evaluator's one join loop: enumerate complete valuations of a
    plan's positive body, reading every body position from the source
    (composed base, overlay and Δ stores with their removal filters). The
    valuation passed to the continuation is the loop's own slot array,
    valid only during the call; ground it with {!Joindb.ground_head} and
    test it with {!Joindb.passes_absent}. *)

val iter_delta :
  delta:Joindb.t ->
  ?before:Joindb.source ->
  after:Joindb.source ->
  Joindb.plan list -> (Joindb.plan -> Value.t array -> unit) -> unit
(** The Δ-position enumeration: {!iter_firings} of every plan once per
    body position whose predicate [delta] holds, reading [delta] there,
    [before] (default [after]) at earlier positions and [after] at later
    ones. Only the counting partition of {!Ivm} tells the two apart. *)

val fixpoint :
  ?stats:bool ->
  ?budget:int ->
  ?known:(Fact.t -> bool) ->
  ?fired:(Fact.t -> unit) ->
  full:(Joindb.plan -> bool) ->
  seed:Fact.t list ->
  store:Joindb.t ->
  read:Joindb.source ->
  neg:Joindb.source ->
  Joindb.plan list -> Fact.t list
(** The one semi-naive loop. Round 0 fires the plans [full] selects over
    [read] and probes the [seed] facts (already in [read]) at every body
    position. Each later round probes the facts the previous round fired
    — its Δ — at every body position whose predicate Δ holds, reading
    [read] elsewhere. Rounds are strict: a fired fact that neither
    [store] nor [known] holds goes into a next-round store, which is the
    next round's Δ and joins [store] only at the end of the round that
    fired it. [read] includes [store] unless it already holds every fact
    the loop can add. Negated atoms hold when [neg] lacks them;
    [fired] sees every fact fired. Returns the facts added to [store].

    With [stats] (saturation), the loop records [eval.join_probes],
    [eval.index_hits], [eval.seminaive_rounds], [eval.delta_size] and
    [eval.derived_facts] (the distinct facts of round 0) and, under
    profiling, the per-rule rows below; {!Ivm}'s maintenance records none.
    @raise Diverged once it has added more than [budget] facts. *)

(** {2 EXPLAIN ANALYZE}

    When profiling is enabled ({!Observe.Profile.is_enabled}), every rule
    activation of a saturation (one plan at one Δ-position) additionally
    records stable per-rule counters
    [eval.rule_fired] / [eval.rule_derived] / [eval.rule_deduped], a
    volatile [eval.rule_time] timing, and a [rule:<label>] profile span —
    all keyed by {!rule_label}. While profiling is off a saturation pays
    a single atomic load per stratum. *)

val rule_label : Ast.rule -> string
(** Flat label shared by the per-rule metrics and profile spans:
    [head<-body1,body2,!negated]. *)

type atom_report = {
  atom : Joindb.atom_plan;
  extent : int;  (** facts of this predicate/arity in the database *)
  lookups : int;  (** index probes issued for this atom *)
  est_candidates : int;  (** [lookups × extent]: a nested-loop scan's cost *)
  candidates : int;  (** facts actually examined after hashing *)
}

type rule_report = {
  plan : Joindb.plan;
  atom_reports : atom_report list;
  valuations : int;  (** complete positive-body valuations *)
  fired : int;  (** valuations passing inequality/negation checks *)
  derived : int;  (** facts derived by this pass not already in the db *)
}

val explain : Ast.program -> Instance.t -> rule_report list
(** One instrumented derivation pass of every rule over the given
    database (pass the fixpoint to see the plans under their real
    workload), with per-atom estimated-vs-actual candidate counts.
    Deterministic for a given program and database. *)

val pp_explain : Format.formatter -> rule_report list -> unit
(** [calm plan]'s rendering: each rule, its per-atom access paths with
    lookup/extent/candidate counts, and the valuation summary. *)
