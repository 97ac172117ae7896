(* Unit tests for the evaluation-strategy plumbing: renaming helpers,
   system-relation accessors, and the completeness predicates of the
   Mdistinct and Mdisjoint strategies, on hand-crafted transition views
   [D]. The end-to-end behaviour is covered in test_network.ml. *)

open Relational
open Strategies
open Queries

let v = Value.int
let e a b = Graph_gen.edge a b
let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual

let instance_testable = Alcotest.testable Instance.pp Instance.equal

let graph = Graph_gen.schema
let net = Distributed.network_of_ints [ 1; 2 ]
let single_policy = Network.Policy.single graph net (v 1)

(* A hand-crafted D for node 1: local input, stored facts, delivered
   messages, and the policy-aware system facts over the A-set. *)
let craft_d ?(variant = Network.Config.policy_aware)
    ?(policy = single_policy) ~local ~mem ~msgs () =
  let j =
    Instance.union (Instance.of_list local)
      (Instance.union (Instance.of_list mem) (Instance.of_list msgs))
  in
  let a =
    List.fold_left
      (fun acc x -> Value.Set.add x acc)
      (Instance.adom j)
      (Distributed.network_of_ints [ 1; 2 ])
  in
  Instance.union j
    (Network.Config.system_facts variant policy
       (Distributed.network_of_ints [ 1; 2 ])
       (v 1) a)

(* ------------------------------------------------------------------ *)
(* Common *)

let test_rename_roundtrip () =
  let i = Instance.of_list [ e 1 2; e 3 4 ] in
  let renamed = Common.rename ~prefix:"Msg_" i in
  check_bool "renamed" true
    (Instance.for_all (fun f -> Fact.rel f = "Msg_E") renamed);
  Alcotest.check instance_testable "roundtrip" i
    (Common.unrename ~prefix:"Msg_" renamed);
  check_bool "unrename drops others" true
    (Instance.is_empty (Common.unrename ~prefix:"Got_" renamed))

let test_rename_schema () =
  let sg = Common.rename_schema ~prefix:"Got_" graph in
  Alcotest.(check (option int)) "Got_E/2" (Some 2) (Schema.arity sg "Got_E");
  check_bool "E gone" false (Schema.mem sg "E")

let test_my_id_and_adom () =
  let d = craft_d ~local:[ e 5 6 ] ~mem:[] ~msgs:[] () in
  check_bool "id" true (Common.my_id d = Some (v 1));
  let adom = Common.my_adom d in
  check_bool "has 5" true (Value.Set.mem (v 5) adom);
  check_bool "has node ids" true (Value.Set.mem (v 2) adom);
  (* No Id relation in the oblivious model. *)
  let d' =
    craft_d ~variant:Network.Config.oblivious ~local:[ e 5 6 ] ~mem:[]
      ~msgs:[] ()
  in
  check_bool "no id" true (Common.my_id d' = None)

let test_responsibility () =
  let d = craft_d ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  (* Node 1 holds everything under the single policy. *)
  check_bool "fact responsibility" true (Common.responsible_fact d (e 1 2));
  check_bool "value responsibility" true
    (Common.responsible_value graph d (v 2));
  (* Facts outside A have no policy row. *)
  check_bool "outside A" false (Common.responsible_fact d (e 77 78))

let test_responsibility_split_policy () =
  let policy =
    Network.Policy.make ~name:"parity" graph net (fun f ->
        match Fact.arg f 0 with
        | Value.Int a when a mod 2 = 1 -> [ v 1 ]
        | _ -> [ v 2 ])
  in
  let d = craft_d ~policy ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  check_bool "odd first attr is mine" true (Common.responsible_fact d (e 1 1));
  check_bool "even first attr is not" false (Common.responsible_fact d (e 2 1))

(* ------------------------------------------------------------------ *)
(* Broadcast *)

let test_broadcast_known () =
  let d =
    craft_d ~local:[ e 1 2 ]
      ~mem:[ Fact.make "Got_E" [ v 3; v 4 ] ]
      ~msgs:[ Fact.make "Msg_E" [ v 5; v 6 ] ]
      ()
  in
  Alcotest.check instance_testable "assembled"
    (Instance.of_list [ e 1 2; e 3 4; e 5 6 ])
    (Broadcast.known graph d)

let test_broadcast_delta_snd () =
  (* The delta variant suppresses re-sends of facts marked Sent_E. *)
  let t = Broadcast_delta.transducer Zoo.tc in
  let d =
    craft_d ~local:[ e 1 2; e 3 4 ]
      ~mem:[ Fact.make "Sent_E" [ v 1; v 2 ] ]
      ~msgs:[] ()
  in
  let sent = t.Network.Transducer.q_snd d in
  Alcotest.check instance_testable "only the unsent fact"
    (Instance.of_list [ Fact.make "Msg_E" [ v 3; v 4 ] ])
    sent

(* ------------------------------------------------------------------ *)
(* Absence *)

let test_certified_absences () =
  (* Node 1 responsible for everything, holding E(1,2): every other
     E-fact over A = {1,2} is certifiably absent. *)
  let d = craft_d ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  let absences = Absence.certified_absences graph d in
  check_bool "E(2,1) certified" true (Instance.mem (e 2 1) absences);
  check_bool "E(1,2) not (present)" false (Instance.mem (e 1 2) absences);
  check_int "3 of 4 candidate facts" 3 (Instance.cardinal absences)

let test_absence_complete () =
  let d = craft_d ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  check_bool "complete when responsible for all" true
    (Absence.complete graph d);
  (* With a split policy, node 1 cannot certify even-first facts. *)
  let policy =
    Network.Policy.make ~name:"parity" graph net (fun f ->
        match Fact.arg f 0 with
        | Value.Int a when a mod 2 = 1 -> [ v 1 ]
        | _ -> [ v 2 ])
  in
  let d' = craft_d ~policy ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  check_bool "incomplete without certificates" false
    (Absence.complete graph d');
  (* Certificates for the even-first facts restore completeness: the
     absent E-facts over A = {1,2} with even first value. *)
  let certs =
    [ Fact.make "Abs_E" [ v 2; v 1 ]; Fact.make "Abs_E" [ v 2; v 2 ] ]
  in
  let d'' = craft_d ~policy ~local:[ e 1 2 ] ~mem:certs ~msgs:[] () in
  check_bool "complete with certificates" true (Absence.complete graph d'')

(* ------------------------------------------------------------------ *)
(* Domain request *)

let test_domain_request_collected () =
  let d =
    craft_d ~local:[ e 1 2 ]
      ~mem:[ Fact.make "Got_E" [ v 3; v 4 ] ]
      ~msgs:[ Fact.make "FMsg_E" [ v 5; v 6 ] ]
      ()
  in
  Alcotest.check instance_testable "collected"
    (Instance.of_list [ e 1 2; e 3 4; e 5 6 ])
    (Domain_request.collected graph d)

let test_domain_request_complete () =
  (* Responsible for every value under the single policy: complete. *)
  let d = craft_d ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  check_bool "complete when responsible" true
    (Domain_request.complete graph d);
  (* Under a value-split policy node 1 owns odd values only; value 2 is
     unresolved until an OK arrives. *)
  let policy =
    Network.Policy.domain_guided ~name:"parity-values" graph net (fun value ->
        match value with
        | Value.Int a when a mod 2 = 1 -> [ v 1 ]
        | _ -> [ v 2 ])
  in
  let d' = craft_d ~policy ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  check_bool "incomplete without OK" false (Domain_request.complete graph d');
  let oks =
    [ Fact.make "GotOk" [ v 1; v 2 ] ]
  in
  let d'' = craft_d ~policy ~local:[ e 1 2 ] ~mem:oks ~msgs:[] () in
  check_bool "complete with OK" true (Domain_request.complete graph d'')

(* ------------------------------------------------------------------ *)
(* Local-query equivalence wall *)

(* The local queries as they were before they read [D] through range
   seeks and per-call indexes, frozen here as the reference the rewritten
   strategies must agree with on every local database: [by_rel] and
   [unrename] fold the whole instance, and domain-request rescans [D] per
   value and per request. *)
module Frozen = struct
  let by_rel t name =
    Instance.fold (fun f acc -> if Fact.rel f = name then f :: acc else acc) t []

  let unrename ~prefix i =
    let pl = String.length prefix in
    Instance.fold
      (fun f acc ->
        let name = Fact.rel f in
        if String.length name > pl && String.sub name 0 pl = prefix then
          Instance.add
            (Fact.make (String.sub name pl (String.length name - pl))
               (Fact.args f))
            acc
        else acc)
      i Instance.empty

  let restrict_input input d = Instance.restrict d input

  let my_id d =
    match by_rel d Network.Transducer_schema.id_rel with
    | f :: _ when Fact.arity f = 1 -> Some (Fact.arg f 0)
    | _ -> None

  let my_adom d =
    List.fold_left
      (fun acc f -> Value.Set.add (Fact.arg f 0) acc)
      Value.Set.empty
      (by_rel d Network.Transducer_schema.myadom_rel)

  let responsible_value = Common.responsible_value
  let responsible_fact = Common.responsible_fact

  module Broadcast = struct
    let known input d =
      let local = restrict_input input d in
      let stored = unrename ~prefix:"Got_" d in
      let delivered = unrename ~prefix:"Msg_" d in
      Instance.union local
        (Instance.union
           (Instance.restrict stored input)
           (Instance.restrict delivered input))

    let q_out (q : Query.t) d = Query.apply q (known q.Query.input d)
    let q_ins input d = Common.rename ~prefix:"Got_" (known input d)
    let q_snd input d = Common.rename ~prefix:"Msg_" (restrict_input input d)
  end

  module Absence = struct
    let known_absent input d =
      let stored = unrename ~prefix:"Abs_" d in
      let delivered = unrename ~prefix:"AbsMsg_" d in
      Instance.union
        (Instance.restrict stored input)
        (Instance.restrict delivered input)

    let certified_absences input d =
      let local = restrict_input input d in
      let a = my_adom d in
      List.fold_left
        (fun acc f ->
          if responsible_fact d f && not (Instance.mem f local) then
            Instance.add f acc
          else acc)
        Instance.empty
        (Schema.all_facts input a)

    let complete input d =
      let known = Broadcast.known input d in
      let absent =
        Instance.union (known_absent input d) (certified_absences input d)
      in
      List.for_all
        (fun f -> Instance.mem f known || Instance.mem f absent)
        (Schema.all_facts input (my_adom d))

    let id_facts d =
      match my_id d with
      | None -> Instance.empty
      | Some x -> Instance.of_list [ Fact.make "IdMsg" [ x ] ]

    let seen_ids d =
      List.fold_left
        (fun acc f -> Instance.add (Fact.make "SeenId" [ Fact.arg f 0 ]) acc)
        Instance.empty
        (by_rel d "IdMsg" @ by_rel d "SeenId")

    let q_out (q : Query.t) d =
      let input = q.Query.input in
      if complete input d then Query.apply q (Broadcast.known input d)
      else Instance.empty

    let q_ins input d =
      Instance.union (seen_ids d)
        (Instance.union
           (Common.rename ~prefix:"Got_" (Broadcast.known input d))
           (Common.rename ~prefix:"Abs_"
              (Instance.union (known_absent input d)
                 (certified_absences input d))))

    let q_snd input d =
      Instance.union (id_facts d)
        (Instance.union
           (Common.rename ~prefix:"Msg_" (restrict_input input d))
           (Common.rename ~prefix:"AbsMsg_" (certified_absences input d)))
  end

  module Domain_request = struct
    let collected input d =
      let local = restrict_input input d in
      let stored = Instance.restrict (unrename ~prefix:"Got_" d) input in
      let delivered = Instance.restrict (unrename ~prefix:"FMsg_" d) input in
      Instance.union local (Instance.union stored delivered)

    let pairs_of d rels =
      List.concat_map
        (fun rel ->
          List.filter_map
            (fun f ->
              if Fact.arity f = 2 then Some (Fact.arg f 0, Fact.arg f 1)
              else None)
            (by_rel d rel))
        rels

    let has_ok d x a =
      List.exists
        (fun (z, b) -> Value.equal z x && Value.equal b a)
        (pairs_of d [ "GotOk"; "OkMsg" ])

    let complete input d =
      match my_id d with
      | None -> false
      | Some x ->
        Value.Set.for_all
          (fun a -> responsible_value input d a || has_ok d x a)
          (my_adom d)

    let strip prefix rel =
      let pl = String.length prefix in
      if String.length rel > pl && String.sub rel 0 pl = prefix then
        Some (String.sub rel pl (String.length rel - pl))
      else None

    let acks_from d z =
      List.fold_left
        (fun acc f ->
          let base =
            match strip "GotAck_" (Fact.rel f) with
            | Some b -> Some b
            | None -> strip "AckMsg_" (Fact.rel f)
          in
          match base with
          | Some base when Fact.arity f >= 2 && Value.equal (Fact.arg f 0) z ->
            Instance.add (Fact.make base (List.tl (Fact.args f))) acc
          | _ -> acc)
        Instance.empty (Instance.to_list d)

    let requests_seen d = pairs_of d [ "GotReq"; "Req" ]

    let responses input d =
      Instance.union
        (Instance.restrict (unrename ~prefix:"Got_" d) input)
        (Instance.restrict (unrename ~prefix:"FMsg_" d) input)

    let q_snd input d =
      let local = restrict_input input d in
      let out = ref Instance.empty in
      let add f = out := Instance.add f !out in
      Value.Set.iter
        (fun a -> add (Fact.make "ValMsg" [ a ]))
        (Instance.adom local);
      (match my_id d with
      | None -> ()
      | Some x ->
        Value.Set.iter
          (fun a ->
            if (not (responsible_value input d a)) && not (has_ok d x a) then
              add (Fact.make "Req" [ x; a ]))
          (my_adom d);
        Instance.iter
          (fun f -> add (Fact.make ("AckMsg_" ^ Fact.rel f) (x :: Fact.args f)))
          (responses input d));
      List.iter
        (fun (z, a) ->
          if responsible_value input d a then begin
            let mine =
              Instance.filter (fun f -> Value.Set.mem a (Fact.adom f)) local
            in
            Instance.iter
              (fun f -> add (Fact.make ("FMsg_" ^ Fact.rel f) (Fact.args f)))
              mine;
            let acked = acks_from d z in
            if Instance.for_all (fun f -> Instance.mem f acked) mine then
              add (Fact.make "OkMsg" [ z; a ])
          end)
        (requests_seen d);
      !out

    let q_ins input d =
      let out = ref Instance.empty in
      let add f = out := Instance.add f !out in
      Value.Set.iter (fun a -> add (Fact.make "KnownVal" [ a ])) (my_adom d);
      Instance.iter
        (fun f -> add (Fact.make ("Got_" ^ Fact.rel f) (Fact.args f)))
        (responses input d);
      List.iter
        (fun (z, a) -> add (Fact.make "GotReq" [ z; a ]))
        (requests_seen d);
      List.iter
        (fun (z, a) -> add (Fact.make "GotOk" [ z; a ]))
        (pairs_of d [ "OkMsg"; "GotOk" ]);
      Instance.iter
        (fun f ->
          match strip "AckMsg_" (Fact.rel f) with
          | Some base -> add (Fact.make ("GotAck_" ^ base) (Fact.args f))
          | None -> if strip "GotAck_" (Fact.rel f) <> None then add f)
        d;
      !out

    let q_out (q : Query.t) d =
      let input = q.Query.input in
      if complete input d then Query.apply q (collected input d)
      else Instance.empty
  end
end

(* Random local databases [D] over small values, mixing input, memory,
   message and system relations of every strategy, relations named
   exactly by a prefix, prefixes of each other, and arities no strategy
   expects. [input] is the input relation ([Move] or [E], binary). *)
let gen_local_db input =
  let rels =
    [ (input, 2); (input, 2); ("Got_" ^ input, 2); ("FMsg_" ^ input, 2);
      ("Msg_" ^ input, 2); ("Abs_" ^ input, 2); ("AbsMsg_" ^ input, 2);
      ("AckMsg_" ^ input, 3); ("GotAck_" ^ input, 3); ("GotAck_X", 3);
      ("AckMsg_" ^ input, 1); ("Got_", 2); ("GotAck_", 3); ("Got_" ^ input, 3);
      ("ValMsg", 1); ("Req", 2); ("Req", 1); ("OkMsg", 2); ("KnownVal", 1);
      ("GotReq", 2); ("GotOk", 2); ("GotOk", 3); ("IdMsg", 1); ("SeenId", 1);
      ("Id", 1); ("MyAdom", 1); ("MyAdom", 1); ("MyAdom", 1); ("All", 1);
      ("policy_" ^ input, 2); ("policy_" ^ input, 2); ("policy_" ^ input, 2);
      ("policy_" ^ input, 1); ("policy_" ^ input, 3) ]
  in
  QCheck2.Gen.(
    let gen_fact =
      let* rel, arity = oneofl rels in
      let* args = list_size (return arity) (int_range 1 4) in
      return (Fact.make rel (List.map v args))
    in
    map Instance.of_list (list_size (int_range 0 40) gen_fact))

let print_db = Instance.to_string

let wall ~name (q : Query.t) checks =
  let input = q.Query.input in
  let rel = fst (List.hd (Schema.relations input)) in
  QCheck2.Test.make ~name ~count:1000 ~print:print_db (gen_local_db rel)
    (fun d -> List.for_all (fun check -> check input d) checks)

let same_queries (t : Network.Transducer.t) ~out ~ins ~snd input d =
  Instance.equal (t.Network.Transducer.q_out d) (out d)
  && Instance.equal (t.Network.Transducer.q_ins d) (ins input d)
  && Instance.equal (t.Network.Transducer.q_snd d) (snd input d)

let prop_domain_request_wall =
  let q = Zoo.winmove in
  wall ~name:"domain-request local queries = frozen" q
    [
      same_queries (Domain_request.transducer q)
        ~out:(Frozen.Domain_request.q_out q) ~ins:Frozen.Domain_request.q_ins
        ~snd:Frozen.Domain_request.q_snd;
      (fun input d ->
        Domain_request.complete input d = Frozen.Domain_request.complete input d);
      (fun input d ->
        Instance.equal
          (Domain_request.collected input d)
          (Frozen.Domain_request.collected input d));
    ]

let prop_absence_wall =
  let q = Zoo.comp_tc in
  wall ~name:"absence local queries = frozen" q
    [
      same_queries (Absence.transducer q) ~out:(Frozen.Absence.q_out q)
        ~ins:Frozen.Absence.q_ins ~snd:Frozen.Absence.q_snd;
      (fun input d -> Absence.complete input d = Frozen.Absence.complete input d);
    ]

let prop_broadcast_wall =
  let q = Zoo.tc in
  wall ~name:"broadcast local queries = frozen" q
    [
      same_queries (Broadcast.transducer q) ~out:(Frozen.Broadcast.q_out q)
        ~ins:Frozen.Broadcast.q_ins ~snd:Frozen.Broadcast.q_snd;
      (fun input d ->
        Instance.equal (Broadcast.known input d) (Frozen.Broadcast.known input d));
    ]

let prop_unrename_wall =
  let q = Zoo.winmove in
  wall ~name:"unrename = frozen" q
    [
      (fun _ d ->
        List.for_all
          (fun prefix ->
            Instance.equal
              (Common.unrename ~prefix d)
              (Frozen.unrename ~prefix d))
          [ "Got_"; "GotAck_"; "Got"; "FMsg_"; "AckMsg_"; "Abs_"; "policy_" ]);
      (fun _ d ->
        Common.my_id d = Frozen.my_id d
        && Value.Set.equal (Common.my_adom d) (Frozen.my_adom d));
    ]

let local_equivalence_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_unrename_wall; prop_broadcast_wall; prop_absence_wall;
      prop_domain_request_wall ]

let () =
  Alcotest.run "strategies"
    [
      ( "common",
        [
          Alcotest.test_case "rename roundtrip" `Quick test_rename_roundtrip;
          Alcotest.test_case "rename schema" `Quick test_rename_schema;
          Alcotest.test_case "id and adom" `Quick test_my_id_and_adom;
          Alcotest.test_case "responsibility" `Quick test_responsibility;
          Alcotest.test_case "split responsibility" `Quick
            test_responsibility_split_policy;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "known" `Quick test_broadcast_known;
          Alcotest.test_case "delta snd" `Quick test_broadcast_delta_snd;
        ] );
      ( "absence",
        [
          Alcotest.test_case "certified absences" `Quick test_certified_absences;
          Alcotest.test_case "completeness" `Quick test_absence_complete;
        ] );
      ( "domain-request",
        [
          Alcotest.test_case "collected" `Quick test_domain_request_collected;
          Alcotest.test_case "completeness" `Quick test_domain_request_complete;
        ] );
      ("local-equivalence", local_equivalence_cases);
    ]
