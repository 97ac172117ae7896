open Relational

(* The join substrate of the evaluation engine and its incremental
   maintenance.

   A [Joindb.t] is a per-predicate store of facts. A probe asks for the
   facts of one body atom that agree with the current bindings on the
   atom's determinate positions (constants or already-bound variables).
   Which positions are determinate is a static property of the rule — it
   depends only on the atoms preceding the probe, never on the data — so
   it is computed once per rule as a [plan]. The plan also numbers the
   rule's variables: a valuation is one [Value.t array] indexed by those
   slots, constants are preloaded into slots of their own, and every key,
   bind, check, head, negated-atom and inequality term becomes a slot
   reference.

   A relation of at most [scan_threshold] facts is answered by filtering
   its facts on the key positions; a larger one gets one hash index per
   (arity, key position set) actually probed, built on first use and
   shared by every later probe. The monotonicity scan's Δ-probes run over
   instances of a handful of facts, where building and hashing into an
   index costs more than the scan it replaces. *)

module Smap = Map.Make (String)

let scan_threshold = 8

(* ------------------------------------------------------------------ *)
(* Values: a monomorphic fast path for the common integer case. *)

let value_hash = function
  | Value.Int x -> x
  | Value.Sym s -> Hashtbl.hash s
  | v -> Value.hash v

let value_equal a b =
  match a, b with
  | Value.Int x, Value.Int y -> Int.equal x y
  | _ -> Value.equal a b

let mix h v = (h * 486187739) + v

(* ------------------------------------------------------------------ *)
(* Rule plans *)

(* How to process one candidate fact after the probe: keyed positions
   already matched, so only the free positions remain — bind first
   occurrences, check repeats. Kept by name for EXPLAIN; the probe loop
   runs the slot-compiled arrays below. *)
type slot =
  | Bind of int * string
  | Check of int * string

type atom_plan = {
  pred : string;
  arity : int;
  key_positions : int list;
  key_terms : Ast.term list;  (* aligned with [key_positions] *)
  slots : slot list;
  kpos : int array;  (* [key_positions] *)
  kslot : int array;  (* env slot holding each key value *)
  bpos : int array;  (* bind: env.(bslot.(j)) <- arg bpos.(j) *)
  bslot : int array;
  cpos : int array;  (* check: arg cpos.(j) = env.(cslot.(j)) *)
  cslot : int array;
}

type plan = {
  rule : Ast.rule;
  atoms : atom_plan array;
  init : Value.t array;  (* a fresh valuation: constants preloaded *)
  head_pred : string;
  head_slots : int array;
  skolem : string option;  (* functor of an invention head *)
  negs : atom_plan array;  (* fully keyed: a membership probe each *)
  ineqs : (int * int) array;
  bound : bool;  (* every head, negated and inequality term is bound *)
}

let skolem_functor pred = "f_" ^ pred

(* Slot of a term that no positive atom binds: only reachable through
   rules built without [Ast.check_rule], and an error when read. *)
let unbound = -1

let plan_rule (r : Ast.rule) =
  let vars = Hashtbl.create 8 and consts = ref [] and nslots = ref 0 in
  let fresh_slot () =
    let s = !nslots in
    incr nslots;
    s
  in
  let const_slot c =
    let s = fresh_slot () in
    consts := (s, c) :: !consts;
    s
  in
  let make (a : Ast.atom) ~keyed ~slots ~binds ~checks =
    let pairs l = Array.of_list (List.rev l) in
    let binds = pairs binds and checks = pairs checks in
    {
      pred = a.pred;
      arity = List.length a.terms;
      key_positions = List.map (fun (i, _, _) -> i) keyed;
      key_terms = List.map (fun (_, t, _) -> t) keyed;
      slots;
      kpos = Array.of_list (List.map (fun (i, _, _) -> i) keyed);
      kslot = Array.of_list (List.map (fun (_, _, s) -> s) keyed);
      bpos = Array.map fst binds;
      bslot = Array.map snd binds;
      cpos = Array.map fst checks;
      cslot = Array.map snd checks;
    }
  in
  let plan_atom (a : Ast.atom) =
    let keyed = ref [] and slots = ref [] in
    let binds = ref [] and checks = ref [] in
    let fresh = Hashtbl.create 4 in
    List.iteri
      (fun i t ->
        match t with
        | Ast.Const c -> keyed := (i, t, const_slot c) :: !keyed
        | Ast.Var v -> (
          match Hashtbl.find_opt fresh v with
          | Some s ->
            slots := Check (i, v) :: !slots;
            checks := (i, s) :: !checks
          | None -> (
            match Hashtbl.find_opt vars v with
            | Some s -> keyed := (i, t, s) :: !keyed
            | None ->
              let s = fresh_slot () in
              Hashtbl.add fresh v s;
              slots := Bind (i, v) :: !slots;
              binds := (i, s) :: !binds)))
      a.terms;
    Hashtbl.iter (Hashtbl.replace vars) fresh;
    make a ~keyed:(List.rev !keyed) ~slots:(List.rev !slots) ~binds:!binds
      ~checks:!checks
  in
  let atoms = Array.of_list (List.map plan_atom r.pos) in
  let term_slot = function
    | Ast.Const c -> const_slot c
    | Ast.Var v -> (
      match Hashtbl.find_opt vars v with Some s -> s | None -> unbound)
  in
  let keyed (a : Ast.atom) =
    let keyed = List.mapi (fun i t -> (i, t, term_slot t)) a.terms in
    make a ~keyed ~slots:[] ~binds:[] ~checks:[]
  in
  let head_slots = Array.of_list (List.map term_slot r.head.terms) in
  let negs = Array.of_list (List.map keyed r.neg) in
  let ineqs =
    Array.of_list (List.map (fun (x, y) -> (term_slot x, term_slot y)) r.ineq)
  in
  let init = Array.make !nslots (Value.Int 0) in
  List.iter (fun (s, c) -> init.(s) <- c) !consts;
  let slot_bound s = s <> unbound in
  {
    rule = r;
    atoms;
    init;
    head_pred = r.head.pred;
    head_slots;
    skolem =
      (if r.head.invents then Some (skolem_functor r.head.pred) else None);
    negs;
    ineqs;
    bound =
      Array.for_all slot_bound head_slots
      && Array.for_all (fun ap -> Array.for_all slot_bound ap.kslot) negs
      && Array.for_all (fun (x, y) -> slot_bound x && slot_bound y) ineqs;
  }

let plan_program p = List.map plan_rule p

(* ------------------------------------------------------------------ *)
(* Valuations *)

let check_bound p =
  if not p.bound then
    invalid_arg "Joindb: unbound variable in a checked position"

let values env slots =
  let a = Array.make (Array.length slots) (Value.Int 0) in
  for j = 0 to Array.length a - 1 do
    Array.unsafe_set a j (Array.unsafe_get env slots.(j))
  done;
  a

(* Invention heads R(⋆, ū) ground to R(f_R(v̄), v̄): the Skolemization of
   Section 5.2, with the functor applied to the remaining head
   arguments. *)
let ground_head p env =
  check_bound p;
  let args = values env p.head_slots in
  match p.skolem with
  | None -> Fact.make_array p.head_pred args
  | Some fn ->
    Fact.make_array p.head_pred
      (Array.append [| Value.Skolem (fn, Array.to_list args) |] args)

let rec ineqs_hold env ineqs j =
  j = Array.length ineqs
  ||
  let x, y = Array.unsafe_get ineqs j in
  (not (value_equal (Array.unsafe_get env x) (Array.unsafe_get env y)))
  && ineqs_hold env ineqs (j + 1)

let rec checks_hold ap env (args : Value.t array) j =
  j = Array.length ap.cpos
  || value_equal args.(ap.cpos.(j)) (Array.unsafe_get env ap.cslot.(j))
     && checks_hold ap env args (j + 1)

(* Bind the free positions of a candidate (keyed positions already
   matched); [false] when a repeated free variable clashes. Slots are
   overwritten in place: a slot bound by atom [i] is read only by later
   atoms, so backtracking needs no undo. *)
let bind ap env (f : Fact.t) =
  let args = f.args in
  for j = 0 to Array.length ap.bpos - 1 do
    Array.unsafe_set env ap.bslot.(j) args.(ap.bpos.(j))
  done;
  checks_hold ap env args 0

(* ------------------------------------------------------------------ *)
(* Storage *)

type index = {
  iarity : int;
  ipos : int array;
  mutable buckets : Fact.t list array;  (* length a power of two *)
  mutable count : int;
}

type rel = {
  mutable facts : Fact.t list;
  mutable size : int;
  mutable indexes : index list;  (* a handful per predicate *)
}

type t = { mutable rels : rel Smap.t }

let create () = { rels = Smap.empty }

let key_hash ipos (f : Fact.t) =
  Array.fold_left (fun h p -> mix h (value_hash f.args.(p))) 0 ipos

let insert buckets ipos f =
  let b = key_hash ipos f land (Array.length buckets - 1) in
  buckets.(b) <- f :: buckets.(b)

(* Rehash into twice the buckets once the load passes two per bucket. *)
let index_add ix f =
  if ix.count >= 2 * Array.length ix.buckets then begin
    let old = ix.buckets in
    ix.buckets <- Array.make (2 * Array.length old) [];
    Array.iter (fun l -> List.iter (insert ix.buckets ix.ipos) (List.rev l)) old
  end;
  insert ix.buckets ix.ipos f;
  ix.count <- ix.count + 1

(* In-place insertion, maintaining the indexes already built. Only for
   stores no [update] shares storage with: a saturation's store until it
   becomes a handle's base, and the overlays and stratum stores of one
   maintenance run. *)
let add db (f : Fact.t) =
  match Smap.find f.rel db.rels with
  | exception Not_found ->
    db.rels <- Smap.add f.rel { facts = [ f ]; size = 1; indexes = [] } db.rels
  | r ->
    r.facts <- f :: r.facts;
    r.size <- r.size + 1;
    List.iter
      (fun ix -> if Array.length f.args = ix.iarity then index_add ix f)
      r.indexes

let of_facts facts =
  let db = create () in
  List.iter (add db) facts;
  db

let of_instance i =
  let db = create () in
  Instance.fold (fun f () -> add db f) i ();
  db

(* Functional update: predicates untouched by [add]/[remove] share their
   [rel] record — and thus every index already built — with the input
   database; touched predicates get a fresh record with no indexes, to be
   rebuilt lazily on first probe. This is what lets an IVM handle keep
   its base indexes warm across thousands of delta applies. *)
let update db ~add:added ~remove =
  let rels = ref db.rels in
  let touched = Hashtbl.create 8 in
  let fresh pred =
    match Hashtbl.find_opt touched pred with
    | Some r -> Some r
    | None ->
      let r =
        match Smap.find_opt pred !rels with
        | None -> None
        | Some r ->
          let facts =
            if Instance.is_empty remove then r.facts
            else List.filter (fun f -> not (Instance.mem f remove)) r.facts
          in
          Some { facts; size = List.length facts; indexes = [] }
      in
      Option.iter (Hashtbl.replace touched pred) r;
      r
  in
  Instance.iter (fun f -> ignore (fresh (Fact.rel f))) remove;
  List.iter
    (fun (f : Fact.t) ->
      match fresh f.rel with
      | Some r ->
        r.facts <- f :: r.facts;
        r.size <- r.size + 1
      | None ->
        Hashtbl.replace touched f.rel { facts = [ f ]; size = 1; indexes = [] })
    added;
  Hashtbl.iter
    (fun pred r ->
      rels :=
        if r.size = 0 then Smap.remove pred !rels else Smap.add pred r !rels)
    touched;
  { rels = !rels }

let mem_pred db pred = Smap.mem pred db.rels

(* Probe paths look stores up with [Smap.find] and walk lists by hand:
   an option or a closure per probe is most of a Δ-probe's allocation. *)
let rec find_index arity kpos = function
  | [] -> raise Not_found
  | ix :: rest ->
    if
      ix.iarity = arity
      && (ix.ipos == kpos
         || Array.length ix.ipos = Array.length kpos
            && Array.for_all2 Int.equal ix.ipos kpos)
    then ix
    else find_index arity kpos rest

let index_for r ~arity ~kpos =
  match find_index arity kpos r.indexes with
  | ix -> ix
  | exception Not_found ->
    let n = ref 16 in
    while !n < r.size do
      n := 2 * !n
    done;
    let ix =
      { iarity = arity; ipos = kpos; buckets = Array.make !n []; count = 0 }
    in
    List.iter
      (fun (f : Fact.t) ->
        if Array.length f.args = arity then begin
          insert ix.buckets ix.ipos f;
          ix.count <- ix.count + 1
        end)
      (List.rev r.facts);
    r.indexes <- ix :: r.indexes;
    ix

let rec keys_match ap env (args : Value.t array) j =
  j = Array.length ap.kpos
  || value_equal args.(ap.kpos.(j)) (Array.unsafe_get env ap.kslot.(j))
     && keys_match ap env args (j + 1)

let matches ap env (f : Fact.t) =
  Array.length f.args = ap.arity && keys_match ap env f.args 0

let rec env_hash env kslot h j =
  if j = Array.length kslot then h
  else
    let v = Array.unsafe_get env kslot.(j) in
    env_hash env kslot (mix h (value_hash v)) (j + 1)

(* The facts a probe filters: the whole relation when it is small or the
   atom has no key, else one bucket of its index. *)
let candidates_of r ap env =
  if r.size <= scan_threshold || Array.length ap.kpos = 0 then r.facts
  else
    let ix = index_for r ~arity:ap.arity ~kpos:ap.kpos in
    ix.buckets.(env_hash env ap.kslot 0 0 land (Array.length ix.buckets - 1))

let candidates db ap env =
  match Smap.find ap.pred db.rels with
  | r -> candidates_of r ap env
  | exception Not_found -> []

let rec scan_exists ap env skip = function
  | [] -> false
  | f :: rest ->
    (matches ap env f && not (skip f)) || scan_exists ap env skip rest

(* Whether some fact not held by [skip] matches a fully keyed atom. *)
let exists skip db ap env =
  match Smap.find ap.pred db.rels with
  | r -> scan_exists ap env skip (candidates_of r ap env)
  | exception Not_found -> false

let all_positions = Array.init 8 (fun n -> Array.init n Fun.id)

let rec mem_list f = function
  | [] -> false
  | g :: rest -> Fact.equal f g || mem_list f rest

(* Membership: a scan of a small relation, else a lookup in its index on
   every position. *)
let mem db (f : Fact.t) =
  match Smap.find f.rel db.rels with
  | exception Not_found -> false
  | r ->
    if r.size <= scan_threshold then mem_list f r.facts
    else
      let arity = Array.length f.args in
      let kpos =
        if arity < Array.length all_positions then all_positions.(arity)
        else Array.init arity Fun.id
      in
      let ix = index_for r ~arity ~kpos in
      mem_list f ix.buckets.(key_hash kpos f land (Array.length ix.buckets - 1))

(* ------------------------------------------------------------------ *)
(* Sources: what one body position of a join reads, as data, so the join
   loop composes base, overlay and Δ stores without a closure per
   probe. [Eval] walks the parts. *)

type part =
  | All of t
  | Without of t * (Fact.t -> bool)  (* the store minus facts [skip] holds *)

type source = part list

let never _ = false

let rec exists_source source ap env =
  match source with
  | [] -> false
  | All db :: rest -> exists never db ap env || exists_source rest ap env
  | Without (db, skip) :: rest ->
    exists skip db ap env || exists_source rest ap env

let rec negs_absent env source negs j =
  j = Array.length negs
  || (not (exists_source source (Array.unsafe_get negs j) env))
     && negs_absent env source negs (j + 1)

(* The inequality and negation side conditions of a complete valuation,
   each negated atom read as absence from [source]: a membership probe
   per negated atom, grounding nothing. *)
let passes_absent p source env =
  check_bound p;
  ineqs_hold env p.ineqs 0 && negs_absent env source p.negs 0

(* ------------------------------------------------------------------ *)
(* EXPLAIN: pretty-print a compiled plan. One line per body atom showing
   the access path the probe loop will take — which positions are keyed
   (and under which terms), which free positions bind, and which repeats
   are equality-checked after the probe. *)

let pp_term_str t = Format.asprintf "%a" Ast.pp_term t

let pp_slot ppf = function
  | Bind (i, v) -> Format.fprintf ppf "bind %s@@%d" v i
  | Check (i, v) -> Format.fprintf ppf "check %s@@%d" v i

let pp_atom_plan ppf ap =
  (match ap.key_positions with
  | [] -> Format.fprintf ppf "%s/%d via full scan" ap.pred ap.arity
  | ps ->
    Format.fprintf ppf "%s/%d via index(%s) key=<%s>" ap.pred ap.arity
      (String.concat "," (List.map string_of_int ps))
      (String.concat "," (List.map pp_term_str ap.key_terms)));
  match ap.slots with
  | [] -> Format.fprintf ppf ", fully keyed"
  | slots ->
    Format.fprintf ppf ", %s"
      (String.concat ", "
         (List.map (fun s -> Format.asprintf "%a" pp_slot s) slots))

let pp_plan ppf p =
  Format.fprintf ppf "@[<v>%a@," Ast.pp_rule p.rule;
  Array.iteri
    (fun i ap -> Format.fprintf ppf "  atom %d: %a@," (i + 1) pp_atom_plan ap)
    p.atoms;
  Format.fprintf ppf "@]"
