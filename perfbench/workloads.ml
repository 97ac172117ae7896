(* The benchmark's four workloads. Each is a fixed list of jobs, and
   every job carries its known answer: the verdict or output the paper
   (and the experiment tables E1, E12, E19) fix for it. One pass runs
   every job once.

   Workload inputs: the two scans and the explorer run at fixed
   exhaustive bounds, so the seed does not change them. The seed drives
   the network workload only: the renaming of its graphs' vertices, its
   Stingy scheduler and its fault plan. *)

open Relational
open Monotone
open Queries

type job = {
  id : string;
  expected : string;
  run : unit -> string;  (** the answer the program gave *)
}

type env = {
  jobs : job list;
  walks : (string * (unit -> int * int)) list;
      (** per scan job: a standalone enumeration walk at its bounds,
          returning (bases, extension deltas) *)
  twins : (string * string) list;
      (** (faulty job, its failure-free twin): same query, input and
          base scheduler *)
}

type t = {
  name : string;
  setup : seed:int -> tracer:Spans.t option -> env;
}

(* An entry-point span when tracing, the bare call otherwise. *)
let entry tracer name f =
  match tracer with None -> f () | Some t -> Spans.span t name f

let wrap_query tracer q =
  match tracer with None -> q | Some t -> Spans.query t q

let wrap_transducer tracer tr =
  match tracer with None -> tr | Some t -> Spans.transducer t tr

(* {1 Monotonicity scans} *)

let membership violated = if violated then "not in" else "in"

let walk ~bounds kind schema () =
  let fresh = Enumerate.fresh_pool bounds.Checker.fresh in
  Seq.fold_left
    (fun (bases, deltas) base ->
      ( bases + 1,
        deltas
        + Seq.length
            (Enumerate.extension_deltas kind ~base ~schema ~fresh
               ~max_size:bounds.max_ext) ))
    (0, 0)
    (Enumerate.instances schema
       ~dom:(Enumerate.value_pool bounds.dom_size)
       ~max_facts:bounds.max_base)

let kind_name = function
  | Classes.Plain -> "M"
  | Classes.Distinct -> "Mdistinct"
  | Classes.Disjoint -> "Mdisjoint"

(* One scan job: [Checker.check_exhaustive] of [q] for [kind]; the known
   answer is membership ("in") or a violation ("not in"). *)
let scan_job tracer ~name ~bounds kind q ~member =
  let id = name ^ "/" ^ kind_name kind in
  let q = wrap_query tracer q in
  let job =
    {
      id;
      expected = membership (not member);
      run =
        (fun () ->
          membership
            (Checker.is_violation
               (entry tracer "checker.check_exhaustive" (fun () ->
                    Checker.check_exhaustive ~jobs:1 ~bounds kind q))));
    }
  in
  (job, (id, walk ~bounds kind q.Query.input))

let scan_env scans =
  let jobs, walks = List.split scans in
  { jobs; walks; twins = [] }

(* E1's bounds. *)
let e1_bounds = { Checker.dom_size = 3; fresh = 3; max_base = 3; max_ext = 3 }

(* Figure 1 as a user runs it: the zoo queries, whose staged
   Graph_kernel witnesses answer every probe. Known answers are E1's
   "paper says" column: TC in M; comp-TC and win-move in Mdisjoint but
   not Mdistinct; triangles-unless-two-disjoint not in Mdisjoint. *)
let scan_witness =
  let setup ~seed:_ ~tracer =
    let row name q member =
      List.map2
        (fun kind member ->
          scan_job tracer ~name ~bounds:e1_bounds kind q ~member)
        [ Classes.Plain; Classes.Distinct; Classes.Disjoint ]
        member
    in
    scan_env
      (List.concat
         [
           row "tc" Zoo.tc [ true; true; true ];
           row "comp-tc" Zoo.comp_tc [ false; false; true ];
           row "win-move" Zoo.winmove [ false; false; true ];
           row "triangles-unless-2-disjoint"
             Zoo.triangles_unless_two_disjoint [ false; false; false ];
         ])
  in
  { name = "scan_witness"; setup }

(* The same scanner over Datalog programs, whose probes go through the
   incremental engine (Ivm). Known answers from E12: comp-TC and P1 in
   Mdisjoint, P2 not; TC (outputs T) in M.

   Bounds are E12's except the extension size of the three member
   scans, cut from 3 to 2 (and TC's base size from 3 to 2) so that one
   pass takes about a second and a run holds enough passes for a tail
   percentile. P2 keeps extensions of 3: its violation needs two
   disjoint triangles, one of them added whole. *)
let scan_ivm =
  let setup ~seed:_ ~tracer =
    let program name src outputs =
      let ast =
        entry tracer "parser.parse_program" (fun () ->
            Datalog.Parser.parse_program src)
      in
      ignore
        (entry tracer "joindb.plan_program" (fun () ->
             Datalog.Joindb.plan_program ast));
      Datalog.Program.query ~name (Datalog.Program.make ~outputs ast)
    in
    let small = { e1_bounds with max_ext = 2 } in
    let job name src ?(outputs = [ "O" ]) ~bounds kind member =
      scan_job tracer ~name ~bounds kind (program name src outputs) ~member
    in
    scan_env
      [
        job "comp-tc-program" Zoo.comp_tc_program ~bounds:small
          Classes.Disjoint true;
        job "p1" Zoo.example_51_p1 ~bounds:small Classes.Disjoint true;
        job "p2" Zoo.example_51_p2 ~bounds:e1_bounds Classes.Disjoint false;
        job "tc-program" Zoo.tc_program ~outputs:[ "T" ]
          ~bounds:{ small with max_base = 2 } Classes.Plain true;
      ]
  in
  { name = "scan_ivm"; setup }

(* {1 Network model checking} *)

(* Two-node networks. On [ids] the node ids coincide with the data
   values, which keeps the fact universe of the absence and
   domain-request strategies small enough to exhaust. *)
let parity network lo hi =
  Network.Policy.make ~name:"parity" Graph_gen.schema network (fun f ->
      match Fact.arg f 0 with
      | Value.Int a when a mod 2 = 1 -> [ Value.Int lo ]
      | _ -> [ Value.Int hi ])

let explore_job tracer ~id ~expected ~variant ~policy ~transducer ~query
    ~input =
  let transducer = wrap_transducer tracer transducer in
  {
    id;
    expected;
    run =
      (fun () ->
        Network.Explore.verdict_to_string
          (entry tracer "explore.check" (fun () ->
               Network.Explore.check ~max_configs:60_000 ~jobs:1 ~variant
                 ~policy ~transducer ~query ~input ())));
  }

(* E19-style cells, each explored exhaustively. The known answers are
   the verdicts with their exact configuration counts. The
   domain-request cell is the one with over a thousand configurations;
   E19's own Move(5,6) cell on nodes 101/102 (11,601 configurations,
   about 10s) is too slow to repeat within a run. *)
let explore =
  let setup ~seed:_ ~tracer =
    let net2 = Distributed.network_of_ints [ 101; 102 ] in
    let tiny = Distributed.network_of_ints [ 1; 2 ] in
    let job = explore_job tracer in
    {
      jobs =
        [
          job ~id:"domain-request/win-move"
            ~expected:"consistent (1423 configurations exhausted)"
            ~variant:Network.Config.policy_aware
            ~policy:(Network.Policy.hash_value Zoo.winmove.Query.input tiny)
            ~transducer:(Strategies.Domain_request.transducer Zoo.winmove)
            ~query:Zoo.winmove
            ~input:(Instance.of_strings [ "Move(1,2)" ]);
          job ~id:"absence/comp-tc"
            ~expected:"consistent (371 configurations exhausted)"
            ~variant:Network.Config.policy_aware ~policy:(parity tiny 1 2)
            ~transducer:(Strategies.Absence.transducer Zoo.comp_tc)
            ~query:Zoo.comp_tc
            ~input:(Graph_gen.of_edges [ (1, 2) ]);
          job ~id:"broadcast/tc"
            ~expected:"consistent (11 configurations exhausted)"
            ~variant:Network.Config.oblivious ~policy:(parity net2 101 102)
            ~transducer:(Strategies.Broadcast.transducer Zoo.tc)
            ~query:Zoo.tc
            ~input:(Graph_gen.of_edges [ (1, 2); (2, 3) ]);
          job ~id:"broadcast/comp-tc" ~expected:"wrong output: O(1,1)"
            ~variant:Network.Config.policy_aware ~policy:(parity net2 101 102)
            ~transducer:(Strategies.Broadcast.transducer Zoo.comp_tc)
            ~query:Zoo.comp_tc
            ~input:(Graph_gen.of_edges [ (1, 2); (2, 1) ]);
        ];
      walks = [];
      twins = [];
    }
  in
  { name = "explore"; setup }

(* {1 Network runs under faults} *)

let nodes = 8
let graph_nodes = 16
let graph_edges = 24

let quiesced_right = "quiesced, outputs = Q(I)"

let run_job tracer ~id ~variant ~policy ~transducer ~input ~expected sched =
  {
    id;
    expected = quiesced_right;
    run =
      (fun () ->
        let r =
          entry tracer "run.run" (fun () ->
              Network.Run.run ~variant ~policy ~transducer ~input sched)
        in
        if not r.quiesced then "did not quiesce"
        else if Instance.equal r.outputs expected then quiesced_right
        else "quiesced, outputs differ from Q(I)");
  }

(* The fault plan keeps E26's shape on [nodes] nodes: duplication,
   loss with retransmission, one crash and a partition into halves that
   heals after three rounds. Only its RNG seed comes from the workload
   seed. *)
let plan ~seed ids =
  let half = List.length ids / 2 in
  {
    Network.Fault.seed;
    dup_prob = 0.4;
    dup_copies = 3;
    loss_prob = 0.25;
    loss_delay = 2;
    horizon = 4;
    crashes = [ (Value.int 2, 2) ];
    partitions =
      [
        {
          Network.Fault.from_round = 1;
          rounds = 3;
          groups =
            [
              List.map Value.int (List.filteri (fun i _ -> i < half) ids);
              List.map Value.int (List.filteri (fun i _ -> i >= half) ids);
            ];
        };
      ];
  }

(* The seeded inputs keep one shape: the graph [Graph_gen] draws for a
   fixed seed, with its vertices renamed by an injective map drawn from
   the workload seed. Renaming moves facts between nodes under the hash
   policies, while the amount of work stays that of the one graph, so
   runs under different seeds measure the same work. *)
let graph_seed = 26

let rename rng g =
  let names = Hashtbl.create 16 and used = Hashtbl.create 16 in
  let rec fresh () =
    let v = 1 + Random.State.int rng 9999 in
    if Hashtbl.mem used v then fresh ()
    else begin
      Hashtbl.add used v ();
      Value.int v
    end
  in
  Instance.map_values
    (fun v ->
      match Hashtbl.find_opt names v with
      | Some w -> w
      | None ->
        let w = fresh () in
        Hashtbl.add names v w;
        w)
    g

(* Broadcast/TC and domain-request/win-move on [nodes] nodes, under
   three failure-free schedulers and a faulty round robin. The known
   answer of every cell is quiescence with outputs equal to Q(I),
   computed here by [Query.apply]. *)
let net_faults =
  let setup ~seed ~tracer =
    let rng = Random.State.make [| seed |] in
    let draw () = Random.State.bits rng in
    let ids = List.init nodes (fun i -> i + 1) in
    let network = Distributed.network_of_ints ids in
    let stingy_seed = draw () and fault_seed = draw () in
    let schedulers =
      [
        ("round_robin", Network.Run.Round_robin);
        ("stingy", Network.Run.Stingy { seed = stingy_seed; steps = 60 });
        ("adversarial", Network.Run.Adversarial { steps = 40 });
        ( "faulty",
          Network.Run.Faulty
            { base = Network.Run.Round_robin; plan = plan ~seed:fault_seed ids }
        );
      ]
    in
    let cells name ~variant ~policy ~strategy (q : Query.t) input =
      let expected = Query.apply q input in
      let transducer = wrap_transducer tracer (strategy q) in
      List.map
        (fun (sname, sched) ->
          run_job tracer ~id:(name ^ "/" ^ sname) ~variant ~policy ~transducer
            ~input ~expected sched)
        schedulers
    in
    let tc_input =
      rename rng
        (Graph_gen.erdos_renyi ~seed:graph_seed ~nodes:graph_nodes
           ~edges:graph_edges)
    in
    let game =
      rename rng
        (Graph_gen.game ~seed:graph_seed ~nodes:graph_nodes ~edges:graph_edges)
    in
    {
      jobs =
        cells "broadcast/tc" ~variant:Network.Config.oblivious
          ~policy:(Network.Policy.hash_fact Zoo.tc.Query.input network)
          ~strategy:Strategies.Broadcast.transducer Zoo.tc tc_input
        @ cells "domain-request/win-move"
            ~variant:Network.Config.policy_aware
            ~policy:(Network.Policy.hash_value Zoo.winmove.Query.input network)
            ~strategy:Strategies.Domain_request.transducer Zoo.winmove game;
      walks = [];
      twins =
        [
          ("broadcast/tc/faulty", "broadcast/tc/round_robin");
          ( "domain-request/win-move/faulty",
            "domain-request/win-move/round_robin" );
        ];
    }
  in
  { name = "net_faults"; setup }

(* {1 The declared workloads} *)

(* A declared workload runs two of the parts above in one pass, and its
   jobs are named <part>:<job>. On a shared machine, pass times drift
   between speed regimes that last tens of seconds; a run has to be long
   to average them, and the time a set of runs may take allows two long
   workloads rather than four short ones. *)
let combine name parts =
  let setup ~seed ~tracer =
    let envs = List.map (fun p -> (p.name, p.setup ~seed ~tracer)) parts in
    let tag part id = part ^ ":" ^ id in
    let each f = List.concat_map (fun (part, env) -> f (tag part) env) envs in
    {
      jobs =
        each (fun tag e -> List.map (fun j -> { j with id = tag j.id }) e.jobs);
      walks =
        each (fun tag e -> List.map (fun (id, w) -> (tag id, w)) e.walks);
      twins =
        each (fun tag e -> List.map (fun (a, b) -> (tag a, tag b)) e.twins);
    }
  in
  { name; setup }

let part_of id =
  match String.index_opt id ':' with Some i -> String.sub id 0 i | None -> id

let parts = [ scan_witness; scan_ivm; explore; net_faults ]
let declared =
  [
    combine "scans" [ scan_witness; scan_ivm ];
    combine "network" [ explore; net_faults ];
  ]

(* A declared workload, or one part run on its own. *)
let find name =
  match List.find_opt (fun w -> w.name = name) declared with
  | Some w -> Some w
  | None ->
    Option.map (fun p -> combine name [ p ])
      (List.find_opt (fun p -> p.name = name) parts)
