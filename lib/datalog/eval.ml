open Relational

exception Diverged

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
   large one. Saturation reads its store and Δ; the IVM layer composes
   base, overlay and Δ stores and the removal filters. With
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

let iter_firings source plan k =
  iter_delta_firings ~at:(-1) ~delta:[] ~before:source ~after:source plan k

(* The Δ-position enumeration: every plan once per body position whose
   predicate [delta] holds (a position it lacks fires nothing, so it is
   skipped before any probe). *)
let delta_positions delta plans act =
  List.iter
    (fun (pl : Joindb.plan) ->
      for at = 0 to Array.length pl.atoms - 1 do
        if Joindb.mem_pred delta pl.atoms.(at).pred then act pl at
      done)
    plans

let iter_delta ~delta ?before ~after plans k =
  let before = Option.value before ~default:after in
  let d = [ Joindb.All delta ] in
  delta_positions delta plans (fun pl at ->
      iter_delta_firings ~at ~delta:d ~before ~after pl k)

(* ANALYZE label: one flat string per rule, shared by the profile span
   and the per-rule metric rows. *)
let rule_label (r : Ast.rule) =
  let preds atoms = List.map (fun (a : Ast.atom) -> a.Ast.pred) atoms in
  r.head.Ast.pred ^ "<-"
  ^ String.concat "," (preds r.pos)
  ^ (match r.neg with
    | [] -> ""
    | ns -> ",!" ^ String.concat ",!" (preds ns))

(* ------------------------------------------------------------------ *)
(* The one semi-naive loop, shared by saturation and {!Ivm}.

   Round 0 fires the plans [full] selects over [read] and probes the
   [seed] facts at every body position. Every later round probes the
   facts the previous round fired (its Δ) at each body position whose
   predicate Δ holds, reading [read] everywhere else. Rounds are strict:
   a fact fired in round k that neither [store] nor [known] holds goes
   into a next-round store, which is round k+1's Δ and joins [store] only
   at the end of round k. [read] includes [store] unless it already holds
   every fact the loop can add. Negated atoms are tested for absence
   from [neg]; [fired] sees every fact fired. More than [budget] facts
   added raises [Diverged]. Returns the facts added to [store].

   With [stats], the loop records the eval.* rows: probes and non-empty
   probes per activation (one plan at one Δ-position), rounds and Δ
   sizes, and the distinct facts round 0 fired. Under profiling each
   activation also runs in a [rule:<label>] span and counts its fired,
   derived (distinct within the round) and deduped facts. *)
let fixpoint ?stats:(telemetry = false) ?(budget = max_int)
    ?(known = fun _ -> false) ?(fired = ignore) ~full ~seed ~store ~read ~neg
    plans =
  if budget < 0 then raise Diverged;
  let profiling = telemetry && Observe.Profile.is_enabled () in
  let next = ref (Joindb.create ()) and fresh = ref [] in
  (* Fired facts already held, distinct within the round: counted only
     where the telemetry asks for distinct facts. *)
  let again = ref (Joindb.create ()) and tally = ref telemetry in
  let n_fired = ref 0 and n_derived = ref 0 in
  let fire (pl : Joindb.plan) env =
    if Joindb.passes_absent pl neg env then begin
      let f = Joindb.ground_head pl env in
      incr n_fired;
      fired f;
      if known f || Joindb.mem store f then begin
        if !tally && not (Joindb.mem !again f) then begin
          Joindb.add !again f;
          incr n_derived
        end
      end
      else if not (Joindb.mem !next f) then begin
        Joindb.add !next f;
        fresh := f :: !fresh;
        incr n_derived
      end
    end
  in
  let activate ~at ~delta (pl : Joindb.plan) =
    let run ?stats () =
      iter_delta_firings ?stats ~at ~delta ~before:read ~after:read pl fire
    in
    if not telemetry then run ()
    else begin
      let st = stats (Array.length pl.atoms) in
      let run () = run ~stats:st () in
      let fired0 = !n_fired and derived0 = !n_derived in
      if not profiling then run ()
      else begin
        (* Per-rule ANALYZE, recorded only under [calm profile]/[--profile]:
           fired/derived/deduped are stable counters (summed per
           activation, so byte-identical across --jobs by the pool's
           in-order merge); the timing and the profile span stay
           volatile. *)
        let labels = [ ("rule", rule_label pl.rule) ] in
        Observe.Profile.span ("rule:" ^ rule_label pl.rule) (fun () ->
            Observe.Metrics.time
              (Observe.Metrics.timing ~labels "eval.rule_time")
              run);
        let fired = !n_fired - fired0 and derived = !n_derived - derived0 in
        Observe.Metrics.incr ~by:fired
          (Observe.Metrics.counter ~labels "eval.rule_fired");
        Observe.Metrics.incr ~by:derived
          (Observe.Metrics.counter ~labels "eval.rule_derived");
        Observe.Metrics.incr ~by:(fired - derived)
          (Observe.Metrics.counter ~labels "eval.rule_deduped")
      end;
      let sum a = Array.fold_left ( + ) 0 a in
      let probes = sum st.cands and hits = sum st.hits in
      if probes > 0 then Observe.Metrics.incr ~by:probes m_join_probes;
      if hits > 0 then Observe.Metrics.incr ~by:hits m_index_hits
    end
  in
  let delta_pass delta =
    let d = [ Joindb.All delta ] in
    delta_positions delta plans (fun pl at -> activate ~at ~delta:d pl)
  in
  List.iter
    (fun pl -> if full pl then activate ~at:(-1) ~delta:[] pl)
    plans;
  (match seed with [] -> () | _ -> delta_pass (Joindb.of_facts seed));
  if telemetry then Observe.Metrics.incr ~by:!n_derived m_derived;
  tally := profiling;
  let rec rounds added acc =
    match !fresh with
    | [] -> acc
    | facts ->
      let delta = !next and n = List.length facts in
      next := Joindb.create ();
      fresh := [];
      if profiling then again := Joindb.create ();
      List.iter (Joindb.add store) facts;
      if added + n > budget then raise Diverged;
      if telemetry then begin
        Observe.Metrics.incr m_rounds;
        Observe.Metrics.observe m_delta (float_of_int n)
      end;
      delta_pass delta;
      rounds (added + n) (List.rev_append facts acc)
  in
  rounds 0 []

(* Saturation: the strata's plans bottom-up over one store of the input,
   each stratum one full pass and then the rounds. *)
let saturate ?max_facts strata i =
  let store = Joindb.of_instance i in
  let size = ref (Instance.cardinal i) in
  let model =
    List.fold_left
      (fun model plans ->
        let added =
          Observe.Metrics.time m_fixpoint (fun () ->
              fixpoint ~stats:true
                ?budget:(Option.map (fun b -> b - !size) max_facts)
                ~full:(fun _ -> true)
                ~seed:[] ~store ~read:[ Joindb.All store ]
                ~neg:[ Joindb.All store ] plans)
        in
        size := !size + List.length added;
        List.fold_left (fun m f -> Instance.add f m) model added)
      i strata
  in
  (model, store)

let seminaive ?max_facts p i =
  fst (saturate ?max_facts [ Joindb.plan_program p ] i)

let stratified ?max_facts p i =
  match Stratify.stratify p with
  | Error e -> Error e
  | Ok { strata; _ } ->
    Ok (fst (saturate ?max_facts (List.map Joindb.plan_program strata) i))

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

let explain p j =
  let db = [ Joindb.All (Joindb.of_instance j) ] in
  let extent_of (ap : Joindb.atom_plan) =
    Instance.fold
      (fun f n ->
        if Fact.rel f = ap.pred && Fact.arity f = ap.arity then n + 1 else n)
      j 0
  in
  List.map
    (fun (pl : Joindb.plan) ->
      let n = Array.length pl.atoms in
      let st = stats n in
      let vals = ref 0 and fired = ref 0 in
      let out = ref Instance.empty in
      iter_delta_firings ~stats:st ~at:(-1) ~delta:[] ~before:db ~after:db pl
        (fun pl env ->
          incr vals;
          if Joindb.passes_absent pl db env then begin
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
