open Relational

type variant = {
  with_policy : bool;
  with_all : bool;
  with_id : bool;
}

let original = { with_policy = false; with_all = true; with_id = true }
let policy_aware = { with_policy = true; with_all = true; with_id = true }
let all_free = { with_policy = true; with_all = false; with_id = true }
let oblivious = { with_policy = false; with_all = false; with_id = false }

type t = {
  state : Instance.t Value.Map.t;
  buffer : Multiset.t Value.Map.t;
}

let start network =
  let network = Distributed.validate_network network in
  {
    state =
      List.fold_left
        (fun m x -> Value.Map.add x Instance.empty m)
        Value.Map.empty network;
    buffer =
      List.fold_left
        (fun m x -> Value.Map.add x Multiset.empty m)
        Value.Map.empty network;
  }

let state_of t x =
  match Value.Map.find_opt x t.state with
  | Some s -> s
  | None -> invalid_arg ("Config.state_of: unknown node " ^ Value.to_string x)

let buffer_of t x =
  match Value.Map.find_opt x t.buffer with
  | Some b -> b
  | None -> invalid_arg ("Config.buffer_of: unknown node " ^ Value.to_string x)

let outputs schema t =
  Value.Map.fold
    (fun _ s acc ->
      Instance.union (Instance.restrict s schema.Transducer_schema.output) acc)
    t.state Instance.empty

let equal a b =
  Value.Map.equal Instance.equal a.state b.state
  && Value.Map.equal Multiset.equal a.buffer b.buffer

let compare a b =
  let c = Value.Map.compare Instance.compare a.state b.state in
  if c <> 0 then c else Value.Map.compare Multiset.compare a.buffer b.buffer

type stats = {
  messages_sent : int;
  delivered : int;
  new_state_facts : int;
  sent_facts : Instance.t;
  output_delta : Instance.t;
}

(* Telemetry (all stable): one recording per transition, mirroring the
   [stats] record. Runs are deterministic given (policy, scheduler,
   input), so these are reproducible across [jobs] by the pool's
   buffer-merge discipline. *)
let m_transitions = Observe.Metrics.counter "net.transitions"
let m_messages = Observe.Metrics.counter "net.messages_sent"
let m_deliveries = Observe.Metrics.counter "net.deliveries"
let m_output_delta = Observe.Metrics.histogram "net.transition_output_delta"

let record_stats stats =
  Observe.Metrics.incr m_transitions;
  if stats.messages_sent > 0 then
    Observe.Metrics.incr ~by:stats.messages_sent m_messages;
  if stats.delivered > 0 then
    Observe.Metrics.incr ~by:stats.delivered m_deliveries;
  Observe.Metrics.observe m_output_delta
    (float_of_int (Instance.cardinal stats.output_delta))

let system_facts variant policy network x a =
  let open Transducer_schema in
  let base = Instance.empty in
  let base =
    if variant.with_id then Instance.add (Fact.make id_rel [ x ]) base
    else base
  in
  let base =
    if variant.with_all then
      List.fold_left
        (fun acc y -> Instance.add (Fact.make all_rel [ y ]) acc)
        base network
    else base
  in
  if not variant.with_policy then base
  else
    let base =
      Value.Set.fold
        (fun v acc -> Instance.add (Fact.make myadom_rel [ v ]) acc)
        a base
    in
    (* policy_R(a1..ak) for every R-fact over A that x is responsible
       for. *)
    List.fold_left
      (fun acc f ->
        Instance.add
          (Fact.make_array (policy_rel (Fact.rel f)) f.Fact.args)
          acc)
      base
      (Policy.responsible_facts policy x a)

(* The local half of a transition: node [x]'s new state, sent facts and
   output delta. It reads only [x], [x]'s state [s1] and the support [m]
   of the delivery — the variant, policy, transducer and input are fixed
   for a whole run or check — which is what makes it memoizable. *)
type local = {
  state2 : Instance.t;
  snd : Instance.t;
  out_delta : Instance.t;
  state_churn : int;
}

(* [dist_P] of the input over the transducer's input schema is fixed for
   a whole run or check, so each domain keeps the last one it computed,
   keyed by the physical identity of its arguments, rather than placing
   the input again on every transition. *)
let last_placement = Domain.DLS.new_key (fun () -> None)

let placement policy sigma input =
  match Domain.DLS.get last_placement with
  | Some (p, s, i, h) when p == policy && s == sigma && i == input -> h
  | _ ->
    let h = Policy.dist policy (Instance.restrict input sigma) in
    Domain.DLS.set last_placement (Some (policy, sigma, input, h));
    h

let local_step ~variant ~policy ~transducer ~input ~node:x s1 m =
  let schema = transducer.Transducer.schema in
  let network = Policy.network policy in
  let local_input =
    Distributed.local
      (placement policy schema.Transducer_schema.input input)
      x
  in
  let j = Instance.union local_input (Instance.union s1 (Instance.of_set m)) in
  let a =
    let from_j = Instance.adom j in
    if variant.with_all then
      List.fold_left (fun acc y -> Value.Set.add y acc) from_j network
    else Value.Set.add x from_j
  in
  let s = system_facts variant policy network x a in
  let d = Instance.union j s in
  let out_new = Instance.restrict (transducer.Transducer.q_out d) schema.Transducer_schema.output in
  let ins = Instance.restrict (transducer.Transducer.q_ins d) schema.Transducer_schema.memory in
  let del = Instance.restrict (transducer.Transducer.q_del d) schema.Transducer_schema.memory in
  let snd = Instance.restrict (transducer.Transducer.q_snd d) schema.Transducer_schema.message in
  let mem1 = Instance.restrict s1 schema.Transducer_schema.memory in
  let out1 = Instance.restrict s1 schema.Transducer_schema.output in
  let mem2 =
    Instance.diff
      (Instance.union mem1 (Instance.diff ins del))
      (Instance.diff del ins)
  in
  let out2 = Instance.union out1 out_new in
  let s2 = Instance.union out2 mem2 in
  {
    state2 = s2;
    snd;
    out_delta = Instance.diff out2 out1;
    state_churn =
      Instance.cardinal (Instance.diff s2 s1)
      + Instance.cardinal (Instance.diff s1 s2);
  }

module Memo = struct
  module Key = struct
    type t = Value.t * Instance.t * Fact.Set.t

    let equal (x1, s1, m1) (x2, s2, m2) =
      Value.equal x1 x2 && Instance.equal s1 s2 && Fact.Set.equal m1 m2

    let hash (x, s, m) =
      Hashtbl.hash
        ( Value.hash x,
          Instance.hash s,
          Fact.Set.fold (fun f acc -> (acc * 31) + Fact.hash f) m 0 )
  end

  module Tbl = Hashtbl.Make (Key)

  type t = { tbl : local Tbl.t; mutable hits : int; mutable misses : int }

  let create () = { tbl = Tbl.create 256; hits = 0; misses = 0 }
  let hits t = t.hits
  let misses t = t.misses

  let find_or_add t key compute =
    match Tbl.find_opt t.tbl key with
    | Some l ->
      t.hits <- t.hits + 1;
      l
    | None ->
      t.misses <- t.misses + 1;
      let l = compute () in
      Tbl.add t.tbl key l;
      l
end

(* The buffer half: remove what [x] consumed, fan its sends out to every
   other node. *)
let deliver_and_send ~network t ~node:x ~deliver local =
  let snd_ms = Multiset.of_instance local.snd in
  let buffer =
    Value.Map.mapi
      (fun y b ->
        if Value.equal y x then Multiset.diff b deliver
        else Multiset.union b snd_ms)
      t.buffer
  in
  let state = Value.Map.add x local.state2 t.state in
  let stats =
    {
      messages_sent = Multiset.size snd_ms * (List.length network - 1);
      delivered = Multiset.size deliver;
      new_state_facts = local.state_churn;
      sent_facts = local.snd;
      output_delta = local.out_delta;
    }
  in
  ({ state; buffer }, stats)

let transition ?memo ~variant ~policy ~transducer ~input t ~node:x ~deliver =
  let network = Policy.network policy in
  if not (List.exists (Value.equal x) network) then
    invalid_arg ("Config.transition: node not in network: " ^ Value.to_string x);
  if not (Multiset.sub deliver (buffer_of t x)) then
    invalid_arg "Config.transition: deliver is not a submultiset of the buffer";
  let s1 = state_of t x in
  let m = Multiset.support deliver in
  let compute () =
    local_step ~variant ~policy ~transducer ~input ~node:x s1 m
  in
  let local =
    match memo with
    | None -> compute ()
    | Some memo -> Memo.find_or_add memo (x, s1, m) compute
  in
  let t', stats = deliver_and_send ~network t ~node:x ~deliver local in
  record_stats stats;
  (t', stats)

let heartbeat ~variant ~policy ~transducer ~input t ~node =
  transition ~variant ~policy ~transducer ~input t ~node
    ~deliver:Multiset.empty
