(** Well-founded semantics via the doubled program (paper, Section 7).

    Needed for the win-move query and for the "doubled program" discussion
    in the paper's Section 7. Rename every negated idb atom [¬R(ū)] to
    [¬Prev_R(ū)]: the result is an ordinary {e semi-positive} program in
    which the previous iterate is an edb relation. One step evaluates it
    with {!Eval.seminaive}, feeding the previous step's idb facts in as
    the [Prev_*] relations. The step is antimonotone in those facts, so
    iterating it from the empty set alternates: the even iterates climb
    to the true facts, the odd ones descend to the not-false facts (the
    alternating fixpoint). A stratified engine thus computes the
    well-founded model, which is how the paper argues connected Datalog¬
    under the well-founded semantics stays in Mdisjoint. *)

open Relational

type model = {
  true_facts : Instance.t;  (** includes the input *)
  undefined : Instance.t;   (** facts with undefined truth value *)
}

val eval : Ast.program -> Instance.t -> model
(** The well-founded model by iterating {!doubled_step_program}. Agrees
    with the alternating fixpoint read on the reference engine
    ({!Refeval.naive} with negated idb atoms tested against the previous
    iterate) — a tested property. *)

val total : model -> bool
(** No undefined facts: the well-founded model is total. *)

val is_stratified_compatible : Ast.program -> Instance.t -> bool
(** For stratifiable programs, the well-founded model is total and agrees
    with the stratified semantics; this checks both (used as a test
    oracle). *)

val prev_prefix : string
(** ["Prev_"]. *)

val doubled_step_program : Ast.program -> Ast.program
(** The quotient program: negated idb atoms renamed to [Prev_]-relations.
    The result is semi-positive whenever the original negates only idb
    and edb atoms (always). Rule connectivity is untouched: renaming
    preserves [graph+]. *)
