open Relational

type model = { true_facts : Instance.t; undefined : Instance.t }

let total m = Instance.is_empty m.undefined

let prev_prefix = "Prev_"

let doubled_step_program p =
  let idb = Ast.idb p in
  List.map
    (fun (r : Ast.rule) ->
      {
        r with
        Ast.neg =
          List.map
            (fun (a : Ast.atom) ->
              if Schema.mem idb a.pred then
                { a with Ast.pred = prev_prefix ^ a.pred }
              else a)
            r.neg;
      })
    p

(* Alternating fixpoint: T0 = the input (no idb fact beyond it),
   T_{k+1} = step(T_k), where a step is an ordinary evaluation of the
   semi-positive doubled program with T_k's idb facts as its Prev_
   relations. Even iterates climb to the true facts, odd iterates
   descend to the not-false facts; stop when two consecutive even/odd
   pairs repeat. *)
let eval p input =
  let idb = Ast.idb p in
  let step_program = doubled_step_program p in
  let as_prev i =
    Instance.fold
      (fun f acc ->
        if Schema.mem idb (Fact.rel f) then
          Instance.add (Fact.make (prev_prefix ^ Fact.rel f) (Fact.args f)) acc
        else acc)
      i Instance.empty
  in
  let step prev =
    let full =
      Eval.seminaive step_program (Instance.union input (as_prev prev))
    in
    (* Keep only genuine idb facts (drop the Prev_ helpers). *)
    Instance.union input (Instance.restrict full idb)
  in
  let rec fix under over =
    let under' = step over in
    let over' = step under' in
    if Instance.equal under under' && Instance.equal over over' then
      (under, over)
    else fix under' over'
  in
  let under, over = fix input (step input) in
  { true_facts = under; undefined = Instance.diff over under }

let is_stratified_compatible p input =
  match Eval.stratified p input with
  | Error _ -> false
  | Ok strat ->
    let m = eval p input in
    total m && Instance.equal m.true_facts strat
