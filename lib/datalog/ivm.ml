open Relational

(* Incremental view maintenance for stratified Datalog¬.

   A handle caches the saturated model of a program over a given input
   plus enough support state to maintain it under change: per-fact
   derivation counts for non-recursive strata (the counting algorithm),
   DRed over-delete/re-derive for recursive strata where counting is
   unsound. Every path runs {!Eval.fixpoint}, the engine's one
   semi-naive loop. The scan's hot path — insertion-only deltas probed
   against a base — seeds it only with Δ against the handle's Joindb
   store (the store its saturation filled, indexes built once and shared
   across thousands of applies) and one overlay store per run;
   retractions take the counting-decrement or DRed route; strata whose
   negated predicates are touched by the change fall back to a per-
   stratum recomputation (counted in [eval.ivm_rederived]), never a
   whole-program one. *)

module Sset = Set.Make (String)

module Ftbl = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

let m_applies = Observe.Metrics.counter "eval.ivm_applies"
let m_rederived = Observe.Metrics.counter "eval.ivm_rederived"

(* What a stratum's maintenance needs of its rules, compiled once per
   program and shared by every handle. *)
type compiled_stratum = {
  rules : Ast.program;
  plans : Joindb.plan list;
  heads : Sset.t;
  heads_list : string list;
  body_preds : Sset.t;  (* positive and negated body predicates *)
  neg_preds : Sset.t;
  recursive : bool;  (* some body mentions a stratum head *)
}

type compiled = {
  cstrata : compiled_stratum array;
  heads_all : Sset.t;
  reads : Sset.t;  (* predicates some rule reads *)
}

type stratum = {
  c : compiled_stratum;
  mutable derived : Instance.t option;
      (* Head-predicate facts of the stratum's model; [None] stands for
         the model's head facts, built when first needed. Invariant:
         contains every derivable head fact; may over-approximate with
         given idb facts until [counts] is forced (harmless: presence is
         [given ∪ derived] and those facts are given). Exact whenever
         [counts] is [Some _]. *)
  mutable counts : int Ftbl.t option;
      (* Derivation counts, non-recursive strata only, built lazily on
         the first retraction that needs them. Absent keys count 0. *)
  mutable given_heads : Instance.t option;
      (* The handle's given head facts, built on first use and dropped by
         every commit: a what-if apply reads them without filtering the
         whole input. *)
}

type t = {
  max_facts : int option;
  strata : stratum array;
  all_heads : Sset.t;
  reads : Sset.t;
  mutable given : Instance.t;
  mutable model : Instance.t;  (* given ∪ ⋃ derived *)
  mutable size : int;  (* cardinal of model, cached for the guard *)
  mutable db : Joindb.t;
      (* the model's facts: the store saturation filled, indexes lazily
         built and reused *)
}

let supported = Stratify.is_stratifiable
let given h = h.given
let current h = h.model

(* ------------------------------------------------------------------ *)
(* Stratum compilation *)

let compile_stratum rules =
  let heads =
    List.fold_left (fun s (r : Ast.rule) -> Sset.add r.head.pred s) Sset.empty
      rules
  in
  let preds atoms s =
    List.fold_left (fun s (a : Ast.atom) -> Sset.add a.pred s) s atoms
  in
  let body_preds =
    List.fold_left (fun s (r : Ast.rule) -> preds r.neg (preds r.pos s))
      Sset.empty rules
  in
  let neg_preds =
    List.fold_left (fun s (r : Ast.rule) -> preds r.neg s) Sset.empty rules
  in
  {
    rules;
    plans = Joindb.plan_program rules;
    heads;
    heads_list = Sset.elements heads;
    body_preds;
    neg_preds;
    recursive = not (Sset.disjoint heads body_preds);
  }

let compile program =
  match Stratify.stratify program with
  | Error e -> invalid_arg ("Ivm.compile: " ^ e)
  | Ok { strata; _ } ->
    let cstrata = Array.of_list (List.map compile_stratum strata) in
    {
      cstrata;
      heads_all =
        Array.fold_left (fun s c -> Sset.union s c.heads) Sset.empty cstrata;
      reads =
        Array.fold_left (fun s c -> Sset.union s c.body_preds) Sset.empty
          cstrata;
    }

let start ?max_facts compiled given =
  let model, db =
    Eval.saturate ?max_facts
      (Array.to_list (Array.map (fun c -> c.plans) compiled.cstrata))
      given
  in
  {
    max_facts;
    strata =
      Array.map
        (fun c -> { c; derived = None; counts = None; given_heads = None })
        compiled.cstrata;
    all_heads = compiled.heads_all;
    reads = compiled.reads;
    given;
    model;
    size = Instance.cardinal model;
    db;
  }

let materialize ?max_facts program given =
  start ?max_facts (compile program) given

let derived h s =
  match s.derived with
  | Some d -> d
  | None ->
    let d = Instance.restrict_rels h.model s.c.heads_list in
    s.derived <- Some d;
    d

(* Exact derivation counts over the committed model; forced by the first
   retraction that needs them. Also makes [derived] exact (a fact of a
   non-recursive stratum is derivable iff it has a one-step derivation
   from the lower, fully determined predicates — i.e. count > 0). *)
let force_counts h s =
  match s.counts with
  | Some c -> c
  | None ->
    let c = Ftbl.create 64 in
    let all = [ Joindb.All h.db ] in
    List.iter
      (fun (pl : Joindb.plan) ->
        Eval.iter_firings all pl (fun pl env ->
            if Joindb.passes_absent pl all env then begin
              let f = Joindb.ground_head pl env in
              Ftbl.replace c f (1 + Option.value (Ftbl.find_opt c f) ~default:0)
            end))
      s.c.plans;
    s.counts <- Some c;
    s.derived <- Some (Instance.filter (fun f -> Ftbl.mem c f) (derived h s));
    c

(* ------------------------------------------------------------------ *)
(* One maintenance run. All state is functional relative to the handle
   until [commit]; an exception mid-run leaves the handle intact. *)

type counts_patch = Keep | Invalidate | Table of int Ftbl.t

type run = {
  h : t;
  destructive : bool;
  add_list : Fact.t list;  (* the update's input additions *)
  remove : Instance.t;  (* the update's input removals *)
  mutable given' : Instance.t option;  (* the new input, once needed *)
  mutable m_new : Instance.t;  (* new model; head preds ≥ current stratum stale *)
  mutable adds : Fact.t list;  (* presence additions vs the old model *)
  mutable rem_inst : Instance.t;  (* presence removals vs the old model *)
  overlay : Joindb.t;  (* the run's one store over [adds] *)
  mutable ap : Sset.t;  (* predicates with additions *)
  mutable rp : Sset.t;  (* predicates with removals *)
  mutable size : int;
  new_derived : Instance.t option array;  (* destructive runs only *)
  counts_patch : counts_patch array;  (* destructive runs only *)
}

let guard rs =
  match rs.h.max_facts with
  | Some b when rs.size > b -> raise Eval.Diverged
  | _ -> ()

let new_given rs =
  match rs.given' with
  | Some g -> g
  | None ->
    let g =
      List.fold_left
        (fun g f -> Instance.add f g)
        (Instance.diff rs.h.given rs.remove)
        rs.add_list
    in
    rs.given' <- Some g;
    g

let old_given_heads h s =
  match s.given_heads with
  | Some gh -> gh
  | None ->
    let gh = Instance.restrict_rels h.given s.c.heads_list in
    s.given_heads <- Some gh;
    gh

(* The new input's head facts of [s]: the handle's own unless the update
   adds or removes some. *)
let given_heads rs s =
  if
    Instance.is_empty rs.remove
    && not (List.exists (fun f -> Sset.mem (Fact.rel f) s.c.heads) rs.add_list)
  then old_given_heads rs.h s
  else Instance.restrict_rels (new_given rs) s.c.heads_list

(* The old model's head facts of [s]: its given head facts and what it
   derived. *)
let old_presence h s = Instance.union (old_given_heads h s) (derived h s)

let removed rs f = Instance.mem f rs.rem_inst

(* Record presence additions already in [m_new]. Only predicates some
   rule reads enter the overlay. *)
let note_added rs facts =
  match facts with
  | [] -> ()
  | _ ->
    List.iter
      (fun f ->
        if Sset.mem (Fact.rel f) rs.h.reads then Joindb.add rs.overlay f;
        rs.ap <- Sset.add (Fact.rel f) rs.ap)
      facts;
    rs.adds <- List.rev_append facts rs.adds;
    rs.size <- rs.size + List.length facts;
    guard rs

let commit_added rs facts =
  List.iter (fun f -> rs.m_new <- Instance.add f rs.m_new) facts;
  note_added rs facts

let commit_removed rs facts =
  match facts with
  | [] -> ()
  | _ ->
    List.iter
      (fun f ->
        rs.m_new <- Instance.remove f rs.m_new;
        rs.rem_inst <- Instance.add f rs.rem_inst;
        rs.rp <- Sset.add (Fact.rel f) rs.rp)
      facts;
    rs.size <- rs.size - List.length facts

(* The current (partially updated) database [m_new]: old model minus
   removals-so-far, plus the overlay of additions. Negated atoms are
   tested against it by membership probes. *)
let now_source rs =
  let base =
    if Instance.is_empty rs.rem_inst then Joindb.All rs.h.db
    else Joindb.Without (rs.h.db, removed rs)
  in
  [ base; Joindb.All rs.overlay ]

let relevant_to s f = Sset.mem (Fact.rel f) s.c.body_preds

(* What the loop may add before the model passes the budget. *)
let budget rs = Option.map (fun b -> b - rs.size) rs.h.max_facts

(* ------------------------------------------------------------------ *)
(* Insertion-only semi-naive over one stratum: the scan's hot path.
   Requires no removals among the stratum's body or head predicates and
   untouched negated predicates; presence additions committed so far
   (including any new given head facts, already committed by the caller)
   seed the loop. They are already in the overlay, so only the facts the
   rounds derive enter the stratum's store. Returns the freshly derived
   head facts. *)
let sem_add rs s =
  match List.filter (relevant_to s) rs.adds with
  | [] -> []
  | seed ->
    let store = Joindb.create () and now = now_source rs in
    Eval.fixpoint ?budget:(budget rs)
      ~known:(fun f -> Instance.mem f rs.m_new)
      ~full:(fun _ -> false)
      ~seed ~store ~read:(now @ [ Joindb.All store ]) ~neg:now s.c.plans

(* Fixpoint of a stratum's rules for the two recomputing paths, over the
   old model minus [skip], the additions so far and the [given] head
   facts. [full] selects the rules that get one full pass; [adds] seeds
   the loop. A fact is new to the rounds unless [seen] holds it or the
   stratum's store (seeded with [given]) already does; a non-recursive
   stratum's rules read none of its heads, so it has no rounds. [derived]
   starts from what the caller already holds. Returns every head fact
   fired plus [derived]. The facts the loop adds all belong to the new
   model, so the budget bounds them alone. *)
let refixpoint rs s ~skip ~given ~seen ~derived ~full ~adds =
  let store = Joindb.of_facts given and now = now_source rs in
  let derived' = ref derived in
  ignore
    (Eval.fixpoint ?budget:rs.h.max_facts
       ~known:(fun f -> (not s.c.recursive) || seen f)
       ~fired:(fun f -> derived' := Instance.add f !derived')
       ~full ~seed:adds ~store
       ~read:
         [ Joindb.Without (rs.h.db, skip); Joindb.All rs.overlay;
           Joindb.All store ]
       ~neg:now s.c.plans);
  !derived'

(* ------------------------------------------------------------------ *)
(* Per-stratum recomputation: the fallback when a stratum's negated
   predicates are touched (or, in pure mode, when any removal reaches its
   body). Evaluates the stratum's rules to fixpoint over the new lower
   model — old head facts of this stratum excluded, given head facts kept
   — and returns the set of fired (hence derivable) head facts. *)
let scratch rs s =
  let gh_start = Instance.to_list (given_heads rs s) in
  let derived' =
    refixpoint rs s
      ~skip:(fun f -> removed rs f || Sset.mem (Fact.rel f) s.c.heads)
      ~given:gh_start ~seen:(fun _ -> false) ~derived:Instance.empty
      ~full:(fun _ -> true)
      ~adds:[]
  in
  Observe.Metrics.incr ~by:(Instance.cardinal derived') m_rederived;
  derived'

(* ------------------------------------------------------------------ *)
(* DRed for a recursive stratum under removals (negated predicates
   untouched): over-delete everything with a derivation through a
   removed fact, then re-derive from the survivors plus the new input. *)
let dred rs s ~ghr =
  let derived = derived rs.h s in
  let gone =
    Instance.of_list (List.filter (fun f -> Instance.mem f derived) ghr)
  in
  (* The old model already holds every fact the loop adds, so it reads
     the old store alone. *)
  let over =
    Eval.fixpoint
      ~known:(fun f -> (not (Instance.mem f derived)) || Instance.mem f gone)
      ~full:(fun _ -> false)
      ~seed:
        (List.filter (relevant_to s) (Instance.to_list rs.rem_inst)
        @ Instance.to_list gone)
      ~store:(Joindb.create ()) ~read:[ Joindb.All rs.h.db ]
      ~neg:(now_source rs) s.c.plans
  in
  let d = List.fold_left (fun d f -> Instance.add f d) gone over in
  (Instance.diff derived d, d)

(* Re-derivation phase of DRed: fixpoint over survivors ∪ new input.
   Rules whose head predicate was over-deleted get one full pass (a
   survivor-supported derivation uses no new fact, so semi-naive seeding
   alone would miss it); everything else rides the semi-naive rounds
   seeded by the additions. *)
let rederive rs s ~survivors ~d ~ghr =
  let gh = given_heads rs s in
  let gh_all = Instance.to_list gh in
  let ghr_inst = Instance.of_list ghr in
  let d_preds =
    Instance.fold (fun f s -> Sset.add (Fact.rel f) s) d Sset.empty
  in
  let derived' =
    refixpoint rs s
      ~skip:(fun f ->
        removed rs f || Instance.mem f d || Instance.mem f ghr_inst)
      ~given:(List.filter (fun f -> not (Instance.mem f rs.h.model)) gh_all)
      ~seen:(fun f -> Instance.mem f survivors || Instance.mem f gh)
      ~derived:survivors
      (* Pass B: full pass for rules that can resurrect over-deleted
         heads. *)
      ~full:(fun pl -> Sset.mem pl.Joindb.rule.Ast.head.pred d_preds)
      (* Pass A: semi-naive over the additions accumulated so far. *)
      ~adds:(List.filter (relevant_to s) rs.adds)
  in
  let recomputed = Instance.cardinal (Instance.diff derived' survivors) in
  if recomputed > 0 then Observe.Metrics.incr ~by:recomputed m_rederived;
  derived'

(* ------------------------------------------------------------------ *)
(* Counting maintenance for a non-recursive stratum (negated predicates
   untouched): destroyed firings decrement, created firings increment,
   each enumerated exactly once by the standard partition — the position
   of the least changed fact probes the change, earlier positions the
   pre-state, later positions the post-state. *)
let counting_maintain rs s ~ghr =
  let body_rem =
    List.filter (relevant_to s) (Instance.to_list rs.rem_inst)
  in
  let body_add = List.filter (relevant_to s) rs.adds in
  let need_counts = ghr <> [] || body_rem <> [] in
  let counts =
    if need_counts then Some (Ftbl.copy (force_counts rs.h s))
    else Option.map Ftbl.copy s.counts
  in
  let derived' = ref (derived rs.h s) in
  let now = now_source rs in
  let mid = [ Joindb.Without (rs.h.db, removed rs) ] in
  (match body_rem with
  | [] -> ()
  | _ ->
    let c = Option.get counts in
    Eval.iter_delta ~delta:(Joindb.of_facts body_rem) ~before:mid
      ~after:[ Joindb.All rs.h.db ] s.c.plans (fun pl env ->
        if Joindb.passes_absent pl now env then begin
          let f = Joindb.ground_head pl env in
          match Ftbl.find_opt c f with
          | Some k when k > 1 -> Ftbl.replace c f (k - 1)
          | Some _ ->
            Ftbl.remove c f;
            derived' := Instance.remove f !derived'
          | None -> ()
        end));
  (match body_add with
  | [] -> ()
  | _ ->
    Eval.iter_delta ~delta:(Joindb.of_facts body_add) ~before:mid
      ~after:(mid @ [ Joindb.All rs.overlay ])
      s.c.plans (fun pl env ->
        if Joindb.passes_absent pl now env then begin
          let f = Joindb.ground_head pl env in
          (match counts with
          | Some c ->
            Ftbl.replace c f (1 + Option.value (Ftbl.find_opt c f) ~default:0)
          | None -> ());
          derived' := Instance.add f !derived'
        end));
  (!derived', match counts with Some c -> Table c | None -> Keep)

(* ------------------------------------------------------------------ *)
(* Driver: route each stratum to the cheapest sound maintenance path,
   threading presence changes downward. *)

let in_span name f =
  if Observe.Profile.is_enabled () then Observe.Profile.span name f else f ()

(* Commit a stratum's new derived facts: diff its new presence (given'
   head facts ∪ derived') against the old. [m_new] may already hold some
   of the additions (new given head facts committed up front). *)
let commit_pres rs si s derived' =
  let new_pres = Instance.union (given_heads rs s) derived' in
  let old_pres = old_presence rs.h s in
  commit_removed rs
    (Instance.fold
       (fun f acc -> if Instance.mem f new_pres then acc else f :: acc)
       old_pres []);
  commit_added rs
    (Instance.fold
       (fun f acc ->
         if Instance.mem f old_pres || Instance.mem f rs.m_new then acc
         else f :: acc)
       new_pres []);
  if rs.destructive then rs.new_derived.(si) <- Some derived'

(* Profiling checked here rather than through [in_span]: comp-TC's scan
   recomputes on every apply, and should not pay for a closure. *)
let recompute rs si s =
  commit_pres rs si s
    (if Observe.Profile.is_enabled () then
       Observe.Profile.span "ivm.rederive" (fun () -> scratch rs s)
     else scratch rs s)

(* The facts outside [model] whose predicate [keep] holds. *)
let fresh_in model keep facts =
  List.filter (fun f -> keep (Fact.rel f) && not (Instance.mem f model)) facts

let maintain_stratum rs si s =
  let h = rs.h in
  let gha_new =
    fresh_in h.model (fun r -> Sset.mem r s.c.heads) rs.add_list
  in
  let ghr =
    if Instance.is_empty rs.remove then []
    else
      Instance.fold
        (fun f acc ->
          if
            Sset.mem (Fact.rel f) s.c.heads
            && Instance.mem f h.given
            && not (List.exists (Fact.equal f) rs.add_list)
          then f :: acc
          else acc)
        rs.remove []
  in
  let changed = Sset.union rs.ap rs.rp in
  let touched =
    (not (Sset.disjoint s.c.body_preds changed)) || gha_new <> [] || ghr <> []
  in
  if touched then begin
    let neg_hit = not (Sset.disjoint s.c.neg_preds changed) in
    let body_rem = not (Sset.disjoint s.c.body_preds rs.rp) in
    if rs.destructive then
      if neg_hit then begin
        recompute rs si s;
        if not s.c.recursive then rs.counts_patch.(si) <- Invalidate
      end
      else if s.c.recursive then begin
        if body_rem || ghr <> [] then
          commit_pres rs si s
            (in_span "ivm.rederive" (fun () ->
                 let survivors, d = dred rs s ~ghr in
                 rederive rs s ~survivors ~d ~ghr))
        else begin
          commit_added rs gha_new;
          let fresh = sem_add rs s in
          commit_added rs fresh;
          rs.new_derived.(si) <-
            Some
              (List.fold_left (fun acc f -> Instance.add f acc) (derived h s)
                 fresh)
        end
      end
      else begin
        commit_added rs gha_new;
        let derived', patch = counting_maintain rs s ~ghr in
        commit_pres rs si s derived';
        rs.counts_patch.(si) <- patch
      end
    else if neg_hit || body_rem || ghr <> [] then recompute rs si s
    else begin
      commit_added rs gha_new;
      commit_added rs (sem_add rs s)
    end
  end

let run_update h ~destructive ~add_list ~remove =
  Observe.Metrics.incr m_applies;
  (* Trajectory of delta sizes, tick auto-assigned per apply: shows how
     the workload's updates shrink or grow over a scan. *)
  if Observe.Series.is_enabled () then
    Observe.Series.sample_auto "eval.ivm_delta"
      (float_of_int (List.length add_list + Instance.cardinal remove));
  let strata = if destructive then Array.length h.strata else 0 in
  let rs =
    {
      h;
      destructive;
      add_list;
      remove;
      given' = None;
      m_new = h.model;
      adds = [];
      rem_inst = Instance.empty;
      overlay = Joindb.create ();
      ap = Sset.empty;
      rp = Sset.empty;
      size = h.size;
      new_derived = Array.make strata None;
      counts_patch = Array.make strata Keep;
    }
  in
  (* Edb-level presence changes: predicates no stratum derives. *)
  commit_added rs
    (fresh_in h.model (fun r -> not (Sset.mem r h.all_heads)) add_list);
  if not (Instance.is_empty remove) then
    commit_removed rs
      (Instance.fold
         (fun f acc ->
           if
             (not (Sset.mem (Fact.rel f) h.all_heads))
             && Instance.mem f h.given
             && not (List.exists (Fact.equal f) add_list)
           then f :: acc
           else acc)
         remove []);
  Array.iteri (maintain_stratum rs) h.strata;
  if destructive then begin
    h.given <- new_given rs;
    h.model <- rs.m_new;
    h.size <- rs.size;
    h.db <-
      Joindb.update h.db ~add:rs.adds ~remove:rs.rem_inst;
    Array.iteri
      (fun si s ->
        s.given_heads <- None;
        (match rs.new_derived.(si) with
        | Some d -> s.derived <- Some d
        | None -> ());
        match rs.counts_patch.(si) with
        | Keep -> ()
        | Invalidate -> s.counts <- None
        | Table c -> s.counts <- Some c)
      h.strata
  end;
  rs.m_new

(* ------------------------------------------------------------------ *)
(* Public entry points *)

let apply_facts h facts =
  match List.filter (fun f -> not (Instance.mem f h.model)) facts with
  | [] ->
    Observe.Metrics.incr m_applies;
    h.model
  | adds ->
    if Observe.Profile.is_enabled () then
      Observe.Profile.span "ivm.apply" (fun () ->
          run_update h ~destructive:false ~add_list:adds ~remove:Instance.empty)
    else run_update h ~destructive:false ~add_list:adds ~remove:Instance.empty

let apply h ~delta = apply_facts h (Instance.to_list delta)

let update h ~add ~remove =
  in_span "ivm.apply" (fun () ->
      run_update h ~destructive:true ~add_list:(Instance.to_list add) ~remove)

let insert h delta = update h ~add:delta ~remove:Instance.empty
let retract h delta = update h ~add:Instance.empty ~remove:delta
