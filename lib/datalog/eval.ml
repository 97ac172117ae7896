open Relational

exception Diverged

let default_neg j f = not (Instance.mem f j)

(* Telemetry (all stable): where the evaluator's work goes. Counted
   locally per rule activation and committed in one increment, so the hot
   join loop pays one registry hit per rule rather than one per candidate
   fact. [eval.index_hits] counts index probes that produced at least one
   candidate; [eval.join_probes] counts the candidates examined — under
   the indexed engine the latter is the post-hashing residue, not the
   predicate's whole extent as in the seed nested-loop engine. *)
let m_join_probes = Observe.Metrics.counter "eval.join_probes"
let m_index_hits = Observe.Metrics.counter "eval.index_hits"
let m_derived = Observe.Metrics.counter "eval.derived_facts"
let m_rounds = Observe.Metrics.counter "eval.seminaive_rounds"
let m_delta = Observe.Metrics.histogram "eval.delta_size"
let m_fixpoint = Observe.Metrics.timing "eval.fixpoint"

(* Greedy join ordering: repeatedly pick the atom sharing the most
   variables with the already-bound set; prefer atoms with constants and
   small variable counts as tie-breakers. *)
let reorder_body (r : Ast.rule) =
  let score bound (a : Ast.atom) =
    let vars = Ast.vars_of_atom a in
    let shared = List.length (List.filter (fun v -> List.mem v bound) vars) in
    let constants =
      List.length (List.filter (function Ast.Const _ -> true | _ -> false) a.terms)
    in
    (* Lexicographic: shared desc, constants desc, free vars asc. *)
    (shared, constants, -List.length vars)
  in
  let rec go bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | first :: _ ->
      (* Select by position, not physical identity: two structurally
         equal occurrences of one atom must survive as two atoms. *)
      let _, best_i, best =
        List.fold_left
          (fun (i, best_i, best) a ->
            if score bound a > score bound best then (i + 1, i, a)
            else (i + 1, best_i, best))
          (1, 0, first) (List.tl remaining)
      in
      let remaining = List.filteri (fun i _ -> i <> best_i) remaining in
      go (Ast.vars_of_atom best @ bound) remaining (best :: acc)
  in
  { r with pos = go [] r.pos [] }

let optimize p = List.map reorder_body p

(* The one join loop: enumerate the valuations of a plan's positive
   body, reading position [at] from [delta], earlier positions from
   [before] and later ones from [after]. The valuation is one slot array
   filled and backtracked in place, and the loop state is one record per
   call: no closure is built per probe or per candidate. Each atom costs
   one probe: a filter of a small relation, or of one index bucket of a
   large one. The fixpoint reads the database or Δ; the IVM layer
   composes base, overlay and Δ stores and the removal filters. With
   [stats], per-atom lookups, non-empty lookups and candidates are
   counted. Inequality and negation side conditions stay with the
   continuation, which sees each complete valuation (valid only during
   the call). *)
type stats = { lookups : int array; hits : int array; cands : int array }

let stats n =
  { lookups = Array.make n 0; hits = Array.make n 0; cands = Array.make n 0 }

type frame = {
  stats : stats option;
  at : int;
  delta : Joindb.source;
  before : Joindb.source;
  after : Joindb.source;
  plan : Joindb.plan;
  env : Value.t array;
  k : Joindb.plan -> Value.t array -> unit;
}

let rec descend fr i =
  if i = Array.length fr.plan.atoms then fr.k fr.plan fr.env
  else
    let ap = fr.plan.atoms.(i) in
    let src =
      if i = fr.at then fr.delta else if i < fr.at then fr.before else fr.after
    in
    match fr.stats with
    | None -> parts fr i ap src
    | Some s ->
      let before = s.cands.(i) in
      s.lookups.(i) <- s.lookups.(i) + 1;
      parts fr i ap src;
      if s.cands.(i) > before then s.hits.(i) <- s.hits.(i) + 1

and parts fr i ap = function
  | [] -> ()
  | Joindb.All db :: rest ->
    all fr i ap (Joindb.candidates db ap fr.env);
    parts fr i ap rest
  | Joindb.Without (db, skip) :: rest ->
    without fr i ap skip (Joindb.candidates db ap fr.env);
    parts fr i ap rest

and all fr i ap = function
  | [] -> ()
  | f :: rest ->
    if Joindb.matches ap fr.env f then candidate fr i ap f;
    all fr i ap rest

and without fr i ap skip = function
  | [] -> ()
  | f :: rest ->
    if Joindb.matches ap fr.env f && not (skip f) then candidate fr i ap f;
    without fr i ap skip rest

and candidate fr i ap f =
  (match fr.stats with
  | Some s -> s.cands.(i) <- s.cands.(i) + 1
  | None -> ());
  if Joindb.bind ap fr.env f then descend fr (i + 1)

let iter_delta_firings ?stats ~at ~delta ~before ~after plan k =
  descend
    { stats; at; delta; before; after; plan; env = Array.copy plan.init; k }
    0

let iter_firings ?stats source plan k =
  iter_delta_firings ?stats ~at:(-1) ~delta:[] ~before:source ~after:source
    plan k

(* ANALYZE label: one flat string per rule, shared by the profile span
   and the per-rule metric rows. *)
let rule_label (r : Ast.rule) =
  let preds atoms = List.map (fun (a : Ast.atom) -> a.Ast.pred) atoms in
  r.head.Ast.pred ^ "<-"
  ^ String.concat "," (preds r.pos)
  ^ (match r.neg with
    | [] -> ""
    | ns -> ",!" ^ String.concat ",!" (preds ns))

let derive_plan ~neg ~current ~db ~delta ~which (p : Joindb.plan) acc =
  let profiling = Observe.Profile.is_enabled () in
  let run () =
    let out = ref acc and fired = ref 0 in
    let st = stats (Array.length p.atoms) in
    let neg = neg current in
    (* Atom [which] reads [delta] instead of the full database. *)
    iter_delta_firings ~stats:st
      ~at:(Option.value which ~default:(-1))
      ~delta ~before:db ~after:db p
      (fun p env ->
        if Joindb.passes p ~neg env then begin
          if profiling then incr fired;
          out := Instance.add (Joindb.ground_head p env) !out
        end);
    let sum a = Array.fold_left ( + ) 0 a in
    let probes = sum st.cands and hits = sum st.hits in
    if probes > 0 then Observe.Metrics.incr ~by:probes m_join_probes;
    if hits > 0 then Observe.Metrics.incr ~by:hits m_index_hits;
    (!out, !fired)
  in
  if not profiling then fst (run ())
  else begin
    (* Per-rule ANALYZE, recorded only under [calm profile]/[--profile]:
       fired/derived/deduped are stable counters (summed per activation,
       so byte-identical across --jobs by the pool's in-order merge);
       the timing and the profile span stay volatile. *)
    let label = rule_label p.rule in
    let labels = [ ("rule", label) ] in
    let out, fired =
      Observe.Profile.span ("rule:" ^ label) (fun () ->
          Observe.Metrics.time
            (Observe.Metrics.timing ~labels "eval.rule_time")
            run)
    in
    let derived = Instance.cardinal out - Instance.cardinal acc in
    Observe.Metrics.incr ~by:fired
      (Observe.Metrics.counter ~labels "eval.rule_fired");
    Observe.Metrics.incr ~by:derived
      (Observe.Metrics.counter ~labels "eval.rule_derived");
    Observe.Metrics.incr ~by:(fired - derived)
      (Observe.Metrics.counter ~labels "eval.rule_deduped");
    out
  end

let derive_plans ?(neg = default_neg) plans j =
  let db = [ Joindb.All (Joindb.of_instance j) ] in
  let out =
    List.fold_left
      (fun acc p -> derive_plan ~neg ~current:j ~db ~delta:[] ~which:None p acc)
      Instance.empty plans
  in
  Observe.Metrics.incr ~by:(Instance.cardinal out) m_derived;
  out

let immediate_consequence ?neg p j =
  Instance.union j (derive_plans ?neg (Joindb.plan_program p) j)

let guard max_facts j =
  match max_facts with
  | Some budget when Instance.cardinal j > budget -> raise Diverged
  | _ -> ()

(* Semi-naive: after the first full round, every new derivation must match
   at least one positive atom in the delta. Negated predicates are fixed
   during a semi-positive fixpoint, so they take no part in deltas. *)
let seminaive_plans ?(neg = default_neg) ?max_facts plans i =
  let step db_i delta_i =
    let db = [ Joindb.All (Joindb.of_instance db_i) ]
    and delta = [ Joindb.All (Joindb.of_instance delta_i) ] in
    List.fold_left
      (fun acc (p : Joindb.plan) ->
        let n = Array.length p.atoms in
        let rec over_idx which acc =
          if which = n then acc
          else
            over_idx (which + 1)
              (derive_plan ~neg ~current:db_i ~db ~delta ~which:(Some which) p
                 acc)
        in
        over_idx 0 acc)
      Instance.empty plans
  in
  Observe.Metrics.time m_fixpoint (fun () ->
      let first = derive_plans ~neg plans i in
      let rec go db delta =
        guard max_facts db;
        if Instance.is_empty delta then db
        else begin
          Observe.Metrics.incr m_rounds;
          Observe.Metrics.observe m_delta
            (float_of_int (Instance.cardinal delta));
          let db' = Instance.union db delta in
          let fresh = Instance.diff (step db' delta) db' in
          go db' fresh
        end
      in
      go i (Instance.diff first i))

let seminaive ?neg ?max_facts p i =
  seminaive_plans ?neg ?max_facts (Joindb.plan_program p) i

let stratified ?max_facts p i =
  match Stratify.stratify p with
  | Error e -> Error e
  | Ok { strata; _ } ->
    Ok
      (List.fold_left
         (fun acc stratum -> seminaive ?max_facts stratum acc)
         i strata)

let stratified_exn ?max_facts p i =
  match stratified ?max_facts p i with
  | Ok r -> r
  | Error e -> invalid_arg ("Eval.stratified_exn: " ^ e)

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: one instrumented derivation pass over a database
   (typically the fixpoint), counting per-atom index lookups and the
   candidates each probe actually examined, against the estimate a
   nested-loop scan would have paid (lookups × predicate extent). *)

type atom_report = {
  atom : Joindb.atom_plan;
  extent : int;
  lookups : int;
  est_candidates : int;
  candidates : int;
}

type rule_report = {
  plan : Joindb.plan;
  atom_reports : atom_report list;
  valuations : int;
  fired : int;
  derived : int;
}

let explain ?(neg = default_neg) p j =
  let db = [ Joindb.All (Joindb.of_instance j) ] in
  let extent_of (ap : Joindb.atom_plan) =
    Instance.fold
      (fun f n ->
        if Fact.rel f = ap.pred && Fact.arity f = ap.arity then n + 1 else n)
      j 0
  in
  let neg = neg j in
  List.map
    (fun (pl : Joindb.plan) ->
      let n = Array.length pl.atoms in
      let st = stats n in
      let vals = ref 0 and fired = ref 0 in
      let out = ref Instance.empty in
      iter_firings ~stats:st db pl (fun pl env ->
          incr vals;
          if Joindb.passes pl ~neg env then begin
            incr fired;
            out := Instance.add (Joindb.ground_head pl env) !out
          end);
      let atom_reports =
        List.init n (fun i ->
            let ap = pl.atoms.(i) in
            let extent = extent_of ap in
            {
              atom = ap;
              extent;
              lookups = st.lookups.(i);
              est_candidates = st.lookups.(i) * extent;
              candidates = st.cands.(i);
            })
      in
      {
        plan = pl;
        atom_reports;
        valuations = !vals;
        fired = !fired;
        derived = Instance.cardinal (Instance.diff !out j);
      })
    (Joindb.plan_program p)

let pp_explain ppf reports =
  List.iteri
    (fun ri r ->
      Format.fprintf ppf "rule %d: %a@." (ri + 1) Ast.pp_rule r.plan.Joindb.rule;
      List.iteri
        (fun ai a ->
          Format.fprintf ppf "  atom %d: %a@." (ai + 1) Joindb.pp_atom_plan
            a.atom;
          let saved =
            if a.candidates < a.est_candidates && a.candidates > 0 then
              Format.asprintf " (%.1fx fewer than scan)"
                (float_of_int a.est_candidates /. float_of_int a.candidates)
            else ""
          in
          Format.fprintf ppf
            "          lookups=%d extent=%d est-candidates=%d candidates=%d%s@."
            a.lookups a.extent a.est_candidates a.candidates saved)
        r.atom_reports;
      Format.fprintf ppf "  valuations=%d fired=%d derived=%d@." r.valuations
        r.fired r.derived)
    reports
