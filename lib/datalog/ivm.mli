(** Incremental view maintenance for stratified Datalog¬.

    A handle caches the saturated model of a program over an input — the
    IDB plus support state: per-fact derivation counts for non-recursive
    strata (counting algorithm), DRed over-delete/re-derive where
    counting is unsound (recursive strata) — and answers updates without
    re-saturating from scratch. Every path runs the engine's one
    semi-naive loop, {!Eval.fixpoint}, with its strict rounds.
    Insertion-only deltas (the monotonicity scan's probes) seed it with Δ
    alone against the store the handle's saturation filled, whose indexes
    are built lazily once and shared across applies; retractions
    decrement counts or take the DRed route (over-deletion and
    re-derivation are both runs of the loop); a stratum whose negated
    predicates are touched by a change is recomputed by itself over the
    maintained lower strata, never the whole program.

    Work is metered by two stable counters: [eval.ivm_applies] (one per
    {!apply}/{!update}) and [eval.ivm_rederived] (facts recomputed by a
    fallback — scratch stratum recomputation or DRed re-derivation).
    Saturating a handle records the [eval.*] rows of {!Eval.saturate};
    maintenance records none of them.
    Under profiling, applies run inside an [ivm.apply] span with
    fallbacks nested as [ivm.rederive].

    Correctness is pinned by the update-sequence test wall: incremental ≡
    from-scratch saturation ({!Refeval} as oracle) at every step of
    random insert/retract sequences. *)

open Relational

type t
(** A materialization handle. Mutable: {!insert}/{!retract}/{!update}
    advance it destructively; {!apply} answers a what-if delta without
    committing (the handle only memoizes shared indexes). Not
    thread-safe — use one handle per domain. *)

val supported : Ast.program -> bool
(** Stratified semantics only: [Stratify.is_stratifiable]. *)

type compiled
(** A program stratified and its rules compiled to {!Joindb} plans, once,
    for any number of handles. Immutable. *)

val compile : Ast.program -> compiled
(** @raise Invalid_argument if the program is not stratifiable. *)

val start : ?max_facts:int -> compiled -> Instance.t -> t
(** {!materialize} from a compiled program: the scan compiles once and
    starts a handle per base. The store {!Eval.saturate} filled becomes
    the handle's own.
    @raise Eval.Diverged past [max_facts]. *)

val materialize : ?max_facts:int -> Ast.program -> Instance.t -> t
(** Saturate the program over the given input and package the model with
    its support state. Derivation counts are built lazily, on the first
    retraction that needs them, so insertion-only users never pay for
    them.
    @raise Invalid_argument if the program is not stratifiable.
    @raise Eval.Diverged past [max_facts]. *)

val given : t -> Instance.t
(** The handle's current input. *)

val current : t -> Instance.t
(** The cached model: [given ∪] every derived fact — extensionally
    [Eval.stratified_exn p (given h)]. *)

val apply : t -> delta:Instance.t -> Instance.t
(** [apply h ~delta] is the model of [given h ∪ delta], computed by
    Δ-seeded semi-naive rounds against the cached model, without
    committing anything to the handle. *)

val apply_facts : t -> Fact.t list -> Instance.t
(** {!apply} taking the delta as a raw fact list (duplicate-free) — the
    scan's hot path, skipping the set construction. *)

val insert : t -> Instance.t -> Instance.t
(** Destructively add input facts and return the new model. *)

val retract : t -> Instance.t -> Instance.t
(** Destructively remove input facts (counting-decrement; DRed for
    recursive strata) and return the new model. *)

val update : t -> add:Instance.t -> remove:Instance.t -> Instance.t
(** Combined retract-then-insert against one consistent snapshot: the
    new input is [(given ∖ remove) ∪ add]. Returns the new model. On an
    exception (e.g. [Eval.Diverged]) the handle is left unchanged. *)
