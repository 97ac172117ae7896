open Relational

let val_msg_rel = "ValMsg"
let req_rel = "Req"
let ok_rel = "OkMsg"
let fact_msg_prefix = "FMsg_"
let ack_msg_prefix = "AckMsg_"

(* memory *)
let got_prefix = "Got_"
let got_ack_prefix = "GotAck_"
let known_val_rel = "KnownVal"
let got_req_rel = "GotReq"
let got_ok_rel = "GotOk"

(* Each local query below reads [d] through range seeks and builds every
   index it needs once per call — the OK'd values, acks grouped by
   requester, local facts by value — so a step costs work in proportion
   to [d], never a rescan per value or per request. *)

(* Response facts, stored or just delivered, over the input schema. *)
let responses input d =
  Instance.union
    (Instance.restrict (Common.unrename ~prefix:got_prefix d) input)
    (Instance.restrict (Common.unrename ~prefix:fact_msg_prefix d) input)

let collected input d =
  Instance.union (Common.restrict_input input d) (responses input d)

(* Binary facts of the given relations. *)
let binary d rels =
  List.concat_map
    (fun rel -> List.filter (fun f -> Fact.arity f = 2) (Instance.by_rel d rel))
    rels

(* Values [a] with [OK(x, a)] stored or just delivered. *)
let oks_for d x =
  List.fold_left
    (fun acc f ->
      if Value.equal (Fact.arg f 0) x then Value.Set.add (Fact.arg f 1) acc
      else acc)
    Value.Set.empty
    (binary d [ got_ok_rel; ok_rel ])

let complete input d =
  match Common.my_id d with
  | None -> false
  | Some x ->
    let oks = oks_for d x in
    Value.Set.for_all
      (fun a -> Value.Set.mem a oks || Common.responsible_value input d a)
      (Common.my_adom d)

(* Acks seen, stored or just delivered, grouped by requester: [z] maps
   to the facts [R(ā)] of every [GotAck_R(z, ā)] / [AckMsg_R(z, ā)]. *)
let acks_by_requester d =
  Instance.fold
    (fun f acc ->
      if Fact.arity f >= 2 then
        let acked = Fact.make (Fact.rel f) (List.tl (Fact.args f)) in
        Value.Map.update (Fact.arg f 0)
          (fun s ->
            Some (Instance.add acked (Option.value s ~default:Instance.empty)))
          acc
      else acc)
    (Instance.union
       (Common.unrename ~prefix:got_ack_prefix d)
       (Common.unrename ~prefix:ack_msg_prefix d))
    Value.Map.empty

(* Local facts containing each value. *)
let facts_by_value local =
  Instance.fold
    (fun f acc ->
      Value.Set.fold
        (fun a acc ->
          Value.Map.update a
            (fun l -> Some (f :: Option.value l ~default:[]))
            acc)
        (Fact.adom f) acc)
    local Value.Map.empty

let requests_seen d = binary d [ got_req_rel; req_rel ]

let q_snd input d =
  let local = Common.restrict_input input d in
  let out = ref Instance.empty in
  let add f = out := Instance.add f !out in
  (* 1. Broadcast the local active domain. *)
  Value.Set.iter
    (fun a -> add (Fact.make val_msg_rel [ a ]))
    (Instance.adom local);
  (match Common.my_id d with
  | None -> ()
  | Some x ->
    (* 2. Request every unresolved value of MyAdom. *)
    let oks = oks_for d x in
    Value.Set.iter
      (fun a ->
        if
          (not (Value.Set.mem a oks))
          && not (Common.responsible_value input d a)
        then add (Fact.make req_rel [ x; a ]))
      (Common.my_adom d);
    (* 3. Acknowledge every collected response fact. *)
    Instance.iter
      (fun f ->
        add (Fact.make (ack_msg_prefix ^ Fact.rel f) (x :: Fact.args f)))
      (responses input d));
  (* 4. Answer remembered requests for values we are responsible for. *)
  (match requests_seen d with
  | [] -> ()
  | requests ->
    let by_value = facts_by_value local in
    let acks = acks_by_requester d in
    List.iter
      (fun f ->
        let z = Fact.arg f 0 and a = Fact.arg f 1 in
        if Common.responsible_value input d a then begin
          let mine =
            Option.value (Value.Map.find_opt a by_value) ~default:[]
          in
          List.iter
            (fun f ->
              add (Fact.make (fact_msg_prefix ^ Fact.rel f) (Fact.args f)))
            mine;
          let acked =
            Option.value (Value.Map.find_opt z acks) ~default:Instance.empty
          in
          if List.for_all (fun f -> Instance.mem f acked) mine then
            add (Fact.make ok_rel [ z; a ])
        end)
      requests);
  !out

let q_ins input d =
  let out = ref Instance.empty in
  let add f = out := Instance.add f !out in
  (* Persist MyAdom. *)
  Value.Set.iter
    (fun a -> add (Fact.make known_val_rel [ a ]))
    (Common.my_adom d);
  (* Persist collected response facts. *)
  Instance.iter add (Common.rename ~prefix:got_prefix (responses input d));
  (* Persist requests, acks, OKs. *)
  List.iter
    (fun f -> add (Fact.make got_req_rel (Fact.args f)))
    (requests_seen d);
  List.iter
    (fun f -> add (Fact.make got_ok_rel (Fact.args f)))
    (binary d [ ok_rel; got_ok_rel ]);
  Instance.iter add
    (Common.rename ~prefix:got_ack_prefix
       (Common.unrename ~prefix:ack_msg_prefix d));
  Seq.iter
    (fun f ->
      if String.length (Fact.rel f) > String.length got_ack_prefix then add f)
    (Instance.with_prefix d got_ack_prefix);
  !out

let q_out q input d =
  if complete input d then Query.apply q (collected input d)
  else Instance.empty

let transducer (q : Query.t) =
  let input = q.Query.input in
  let message =
    Schema.of_list [ (val_msg_rel, 1); (req_rel, 2); (ok_rel, 2) ]
    |> Schema.union (Common.rename_schema ~prefix:fact_msg_prefix input)
    |> Schema.union
         (Schema.of_list
            (List.map
               (fun (r, k) -> (ack_msg_prefix ^ r, k + 1))
               (Schema.relations input)))
  in
  let memory =
    Schema.of_list [ (known_val_rel, 1); (got_req_rel, 2); (got_ok_rel, 2) ]
    |> Schema.union (Common.rename_schema ~prefix:got_prefix input)
    |> Schema.union
         (Schema.of_list
            (List.map
               (fun (r, k) -> (got_ack_prefix ^ r, k + 1))
               (Schema.relations input)))
  in
  let schema =
    Network.Transducer_schema.make ~input ~output:q.Query.output ~message
      ~memory ()
  in
  Network.Transducer.make ~schema
    ~out:(q_out q input)
    ~ins:(q_ins input)
    ~snd:(q_snd input) ()
