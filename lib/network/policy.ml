open Relational

type t = {
  name : string;
  schema : Schema.t;
  network : Distributed.network;
  raw_assign : Fact.t -> Value.t list;
  alpha : (Value.t -> Value.t list) option;
}

let name t = t.name
let network t = t.network
let schema t = t.schema

let assign t f =
  if not (Schema.fact_over t.schema f) then
    invalid_arg
      (Printf.sprintf "Policy.assign (%s): fact %s not over schema %s" t.name
         (Fact.to_string f)
         (Schema.to_string t.schema));
  let nodes =
    t.raw_assign f
    |> List.filter (fun x -> List.exists (Value.equal x) t.network)
    |> List.sort_uniq Value.compare
  in
  if nodes = [] then
    invalid_arg
      (Printf.sprintf "Policy.assign (%s): empty assignment for %s" t.name
         (Fact.to_string f))
  else nodes

let responsible t x f = List.exists (Value.equal x) (assign t f)

(* Under a domain-guided policy a fact is [x]'s exactly when one of its
   values is [x]'s own — [α] maps it to [x] — so only the argument lists
   through an own value are built, each once: an own value at the head,
   or a non-own head and an own value further on. Other policies, and an
   [α] that leaves some value of [a] without a node, filter every fact
   over [a] through {!responsible}, which raises where {!assign} does. *)
let responsible_facts t x a =
  let filter () =
    List.filter (responsible t x) (Schema.all_facts t.schema a)
  in
  match t.alpha with
  | None -> filter ()
  | Some alpha ->
    let owners = List.map (fun v -> (v, alpha v)) (Value.Set.elements a) in
    if List.exists (fun (_, nodes) -> nodes = []) owners then filter ()
    else
      let own, others =
        List.partition_map
          (fun (v, nodes) ->
            if List.exists (Value.equal x) nodes then Left v else Right v)
          owners
      in
      let cons heads tails =
        List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) heads
      in
      let rec any k =
        if k = 0 then [ [] ] else cons (List.map fst owners) (any (k - 1))
      in
      let rec touching k =
        if k = 0 || own = [] then []
        else cons own (any (k - 1)) @ cons others (touching (k - 1))
      in
      List.concat_map
        (fun (name, k) -> List.map (Fact.make name) (touching k))
        (Schema.relations t.schema)

let is_domain_guided t = t.alpha <> None
let domain_assignment t = t.alpha

let dist t i =
  Instance.fold
    (fun f acc ->
      if Schema.fact_over t.schema f then
        List.fold_left
          (fun acc x -> Distributed.update_local acc x (Instance.add f))
          acc (assign t f)
      else acc)
    i
    (Distributed.create t.network)

let make ~name schema network raw_assign =
  { name; schema; network = Distributed.validate_network network; raw_assign;
    alpha = None }

let normalize_nodes network nodes =
  nodes
  |> List.filter (fun x -> List.exists (Value.equal x) network)
  |> List.sort_uniq Value.compare

let domain_guided ~name schema network alpha =
  let network = Distributed.validate_network network in
  let raw_assign f =
    List.concat_map alpha (Value.Set.elements (Fact.adom f))
  in
  { name; schema; network; raw_assign;
    alpha = Some (fun v -> normalize_nodes network (alpha v)) }

let nth_node network k =
  let n = List.length network in
  [ List.nth network (((k mod n) + n) mod n) ]

let hash_fact schema network =
  let network = Distributed.validate_network network in
  make ~name:"hash-fact" schema network (fun f -> nth_node network (Fact.hash f))

let first_attribute schema network =
  let network = Distributed.validate_network network in
  make ~name:"first-attribute" schema network (fun f ->
      nth_node network (Value.hash (Fact.arg f 0)))

let hash_value schema network =
  let network = Distributed.validate_network network in
  domain_guided ~name:"hash-value" schema network (fun v ->
      nth_node network (Value.hash v))

let replicate_all schema network =
  let network = Distributed.validate_network network in
  domain_guided ~name:"replicate-all" schema network (fun _ -> network)

let single schema network x =
  let network = Distributed.validate_network network in
  domain_guided
    ~name:("single-" ^ Value.to_string x)
    schema network
    (fun _ -> [ x ])

let override ~name ~on ~to_ p =
  {
    p with
    name;
    raw_assign = (fun f -> if on f then to_ else p.raw_assign f);
    alpha = None;
  }
