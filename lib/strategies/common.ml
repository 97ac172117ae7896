open Relational

let rename_schema ~prefix sg =
  Schema.of_list
    (List.map (fun (name, ar) -> (prefix ^ name, ar)) (Schema.relations sg))

let rename ~prefix i =
  Instance.fold
    (fun f acc -> Instance.add (Fact.make (prefix ^ Fact.rel f) (Fact.args f)) acc)
    i Instance.empty

let unrename ~prefix i =
  let pl = String.length prefix in
  Seq.fold_left
    (fun acc f ->
      let name = Fact.rel f in
      if String.length name > pl then
        Instance.add
          (Fact.make_array
             (String.sub name pl (String.length name - pl))
             f.Fact.args)
          acc
      else acc)
    Instance.empty
    (Instance.with_prefix i prefix)

let restrict_input input d = Instance.restrict d input

let my_id d =
  match Instance.by_rel d Network.Transducer_schema.id_rel with
  | f :: _ when Fact.arity f = 1 -> Some (Fact.arg f 0)
  | _ -> None

let my_adom d =
  List.fold_left
    (fun acc f -> Value.Set.add (Fact.arg f 0) acc)
    Value.Set.empty
    (Instance.by_rel d Network.Transducer_schema.myadom_rel)

let responsible_fact d f =
  Instance.mem
    (Fact.make (Network.Transducer_schema.policy_rel (Fact.rel f)) (Fact.args f))
    d

let responsible_value input d a =
  List.exists
    (fun (r, k) ->
      Instance.mem
        (Fact.make (Network.Transducer_schema.policy_rel r) (List.init k (fun _ -> a)))
        d)
    (Schema.relations input)
