(** Fixpoint evaluation of Datalog¬ programs.

    [seminaive] computes the minimal fixpoint of the immediate
    consequence operator [T_P] (Section 2) for semi-positive programs —
    programs whose negated predicates are never derived by the rules being
    evaluated (their extent is fixed throughout). [stratified] runs a
    syntactic stratification bottom-up, each stratum with [seminaive].

    The optional [neg] argument overrides how a negated ground atom is
    tested; it receives the current total instance and the candidate fact.
    The default tests absence from the current instance, which is the
    paper's semantics for semi-positive programs and strata. The
    well-founded evaluator overrides it to test against a fixed
    underestimate. *)

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

val immediate_consequence :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  Ast.program -> Instance.t -> Instance.t
(** [T_P(J)]. *)

val seminaive :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  ?max_facts:int ->
  Ast.program -> Instance.t -> Instance.t
(** Least fixpoint above the input by semi-naive (delta) iteration.
    Agrees with the reference naive fixpoint {!Refeval.naive} on
    semi-positive programs (tested property).
    @raise Diverged if the fixpoint grows past [max_facts]. *)

val seminaive_plans :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  ?max_facts:int ->
  Joindb.plan list -> Instance.t -> Instance.t
(** {!seminaive} over rules already compiled by {!Joindb.plan_program}:
    {!Ivm} compiles a program once and saturates many inputs. *)

val stratified :
  ?max_facts:int -> Ast.program -> Instance.t -> (Instance.t, string) result
(** Stratified semantics [P_k(...P_1(I)...)]; [Error] if not syntactically
    stratifiable. *)

val stratified_exn : ?max_facts:int -> Ast.program -> Instance.t -> Instance.t
(** @raise Invalid_argument if not stratifiable. *)

type stats = {
  lookups : int array;  (** probes issued, per body atom *)
  hits : int array;  (** probes that yielded at least one candidate *)
  cands : int array;  (** candidate facts examined *)
}

val stats : int -> stats
(** Zeroed counters for a plan with the given number of body atoms. *)

val iter_firings :
  ?stats:stats ->
  Joindb.source -> Joindb.plan -> (Joindb.plan -> Value.t array -> unit) ->
  unit
(** The evaluator's one join loop, shared with {!Ivm}: enumerate
    complete valuations of a plan's positive body, reading every body
    position from the source (composed base, overlay and Δ stores with
    their removal filters). The valuation passed to the continuation is
    the loop's own slot array, valid only during the call; ground it with
    {!Joindb.ground_head} and test it with {!Joindb.passes}. *)

val iter_delta_firings :
  ?stats:stats ->
  at:int ->
  delta:Joindb.source ->
  before:Joindb.source ->
  after:Joindb.source ->
  Joindb.plan -> (Joindb.plan -> Value.t array -> unit) -> unit
(** {!iter_firings} reading body position [at] from [delta], earlier
    positions from [before] and later ones from [after]: one Δ-position
    of semi-naive evaluation ([at < 0] reads [after] everywhere). *)

(** {2 EXPLAIN ANALYZE}

    When profiling is enabled ({!Observe.Profile.is_enabled}), every rule
    activation additionally records stable per-rule counters
    [eval.rule_fired] / [eval.rule_derived] / [eval.rule_deduped], a
    volatile [eval.rule_time] timing, and a [rule:<label>] profile span —
    all keyed by {!rule_label}. While profiling is off the evaluator pays
    a single atomic load per activation. *)

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

val explain :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  Ast.program -> Instance.t -> rule_report list
(** One instrumented derivation pass of every rule over the given
    database (pass the fixpoint to see the plans under their real
    workload), with per-atom estimated-vs-actual candidate counts.
    Deterministic for a given program and database. *)

val pp_explain : Format.formatter -> rule_report list -> unit
(** [calm plan]'s rendering: each rule, its per-atom access paths with
    lookup/extent/candidate counts, and the valuation summary. *)
