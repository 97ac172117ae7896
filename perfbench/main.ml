(* The calm benchmark.

   Runs one workload in this process at one domain: a declared workload
   (scans, network), one of their parts (scan_witness, scan_ivm,
   explore, net_faults) on its own, or both declared workloads with
   --workload all. It checks every job's answer against its known answer,
   and prints each metric by name with its unit. The last line of
   standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   --trace 0 measures the end-to-end metrics with no instrumentation.
   --trace 1 is the separate traced run: it re-runs the workload with
   spans around every layer entry point and timers around the closures
   the program exposes, and reports the per-layer metrics.

   Usage:
     perfbench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
                      [--flip-answer JOB]

   --flip-answer replaces one job's known answer (named <part>:<job>)
   by a wrong one; the benchmark's own test uses it to show that a
   mismatch is caught.

   Results (with the environment fingerprint) and the traced run's
   Chrome trace land in perfbench/results/. *)

open Workloads

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME|all --seed N --seconds S --trace 0|1 \
     [--flip-answer JOB]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  flip : string option;
}

let parse_args () =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s -> go { a with seed = s } rest
      | None -> usage ())
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0. -> go { a with seconds = s } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest ->
      go { a with trace = v = "1" } rest
    | "--flip-answer" :: v :: rest -> go { a with flip = Some v } rest
    | [] -> a
    | _ -> usage ()
  in
  go
    { workload = "all"; seed = 1; seconds = 10.; trace = false; flip = None }
    (List.tl (Array.to_list Sys.argv))

(* {1 Environment fingerprint} *)

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The commit of the checkout, read from .git without running git; a
   checkout that is not a repository reports "unknown". *)
let commit () =
  let trim = String.trim in
  try
    let head = trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref ] -> (
      try trim (read_file (Filename.concat ".git" ref))
      with Sys_error _ ->
        let packed = read_file ".git/packed-refs" in
        let line =
          List.find
            (fun l ->
              match String.split_on_char ' ' l with
              | [ _; r ] -> r = ref
              | _ -> false)
            (String.split_on_char '\n' packed)
        in
        List.hd (String.split_on_char ' ' line))
    | _ -> head
  with Sys_error _ | Not_found -> "unknown"

let fingerprint seed =
  [
    ("nproc", Observe.Json.Int (Domain.recommended_domain_count ()));
    ("jobs", Observe.Json.Int 1);
    ("ocaml", Observe.Json.String Sys.ocaml_version);
    ("commit", Observe.Json.String (commit ()));
    ("seed", Observe.Json.Int seed);
  ]

(* {1 Passes} *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : (string * string) list;  (** job, what went wrong *)
}

let now = Unix.gettimeofday

(* Run every job once, checking its answer. A job fails when its answer
   differs from the known one or when it raises. Returns the pass's wall
   time and the wall time of each part. *)
let pass tally tracer env =
  let t0 = now () in
  let parts = Hashtbl.create 4 in
  List.iter
    (fun job ->
      let j0 = now () in
      let got =
        try
          match tracer with
          | None -> job.run ()
          | Some t -> Spans.with_job t job.id job.run
        with e -> "raised " ^ Printexc.to_string e
      in
      let part = Workloads.part_of job.id in
      Hashtbl.replace parts part
        (now () -. j0
        +. Option.value ~default:0. (Hashtbl.find_opt parts part));
      tally.attempted <- tally.attempted + 1;
      if got <> job.expected then begin
        tally.failed <- tally.failed + 1;
        if not (List.mem_assoc job.id tally.failures) then begin
          let msg =
            Printf.sprintf "expected %S, got %S" job.expected got
          in
          Printf.eprintf "FAIL %s: %s\n%!" job.id msg;
          tally.failures <- (job.id, msg) :: tally.failures
        end
      end)
    env.jobs;
  (now () -. t0, parts)

let setup args w ~tracer =
  let env = w.setup ~seed:args.seed ~tracer in
  match args.flip with
  | None -> env
  | Some id ->
    {
      env with
      jobs =
        List.map
          (fun j ->
            if j.id = id then { j with expected = "flipped: " ^ j.expected }
            else j)
          env.jobs;
    }

(* Runs [run] until [seconds] have gone by (at least once), each time
   on a freshly collected heap so no pass pays for its predecessor's
   garbage. *)
let passes ~seconds run =
  let stop = now () +. seconds in
  let rec loop acc =
    if acc <> [] && now () >= stop then List.rev acc
    else begin
      Gc.full_major ();
      loop (run () :: acc)
    end
  in
  loop []

(* {1 Statistics} *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile that has at least ten samples beyond it: the
   (n-10)-th smallest of n. With fewer than 11 samples no such
   percentile exists and the maximum is reported as p100. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  let i = if n >= 11 then n - 11 else n - 1 in
  (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n)

let ratio a b = if b = 0. then 0. else a /. b
let mib words =
  float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.

(* {1 Metrics} *)

type metric = { name : string; unit_ : string; value : float; note : string }

let m ?(note = "") name unit_ value = { name; unit_; value; note }

let print_metrics label ms =
  List.iter
    (fun x ->
      Printf.printf "%-14s %-34s %14.6g %-12s %s\n" label x.name x.value x.unit_
        x.note)
    ms

let floats xs = Observe.Json.List (List.map (fun x -> Observe.Json.Float x) xs)

let metrics_json ms =
  Observe.Json.Obj
    (List.map
       (fun x ->
         ( x.name,
           Observe.Json.Obj
             [
               ("value", Observe.Json.Float x.value);
               ("unit", Observe.Json.String x.unit_);
             ] ))
       ms)

(* {2 End-to-end, tracing off} *)

let setups = 3

let end_to_end args w tally =
  let env = ref None in
  let setup_samples =
    List.init setups (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        let e = setup args w ~tracer:None in
        ignore (pass tally None e);
        env := Some e;
        now () -. t0)
  in
  let env = Option.get !env in
  let walls =
    passes ~seconds:args.seconds (fun () -> fst (pass tally None env))
  in
  let n = List.length walls in
  let tail_v, tail_p = tail walls in
  ( env,
    [
      m "setup_s" "s" (median setup_samples)
        ~note:(Printf.sprintf "median of %d set-ups" setups);
      m "pass_s" "s" (median walls) ~note:(Printf.sprintf "median, n=%d" n);
      m "pass_tail_s" "s" tail_v
        ~note:(Printf.sprintf "p%.1f, n=%d" tail_p n);
      m "top_heap_mb" "MiB" (mib (Gc.quick_stat ()).top_heap_words);
    ],
    [
      ("setup_samples_s", floats setup_samples);
      ("pass_samples_s", floats walls);
    ],
    None )

(* {2 Per layer, traced run} *)

let counters () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (r : Observe.Metrics.row) ->
      if r.kind = Observe.Metrics.Counter then
        Hashtbl.replace tbl r.name
          (r.count + Option.value ~default:0 (Hashtbl.find_opt tbl r.name)))
    (Observe.Metrics.snapshot ~stable_only:true Observe.Metrics.root);
  fun name -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl name))

let per_layer args w tally =
  let plain = setup args w ~tracer:None in
  ignore (pass tally None plain);
  (* Traced set-up: its spans are kept apart from the passes'. *)
  let t = Spans.create () in
  let origin = now () in
  let env =
    Spans.with_job t "setup" (fun () -> setup args w ~tracer:(Some t))
  in
  let setup_spans = Spans.spans t in
  let span_sum name spans =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.name = name then acc +. Spans.duration s else acc)
      0. spans
  in
  ignore (pass tally (Some t) env);
  Spans.clear t;
  (* Untraced and traced passes alternate, so drift over the run touches
     both alike. The untraced one also gives the runtime's figures; the
     first traced one gives the program's counters. *)
  let count = ref None in
  let pairs =
    passes ~seconds:args.seconds (fun () ->
        let b0 = Gc.allocated_bytes () in
        let c0 = (Gc.quick_stat ()).major_collections in
        let untraced, parts = pass tally None plain in
        let alloc = Gc.allocated_bytes () -. b0 in
        let majors = (Gc.quick_stat ()).major_collections - c0 in
        Gc.full_major ();
        Observe.Metrics.reset Observe.Metrics.root;
        let traced, _ = pass tally (Some t) env in
        if !count = None then count := Some (counters ());
        (untraced, traced, alloc, float_of_int majors, parts))
  in
  let untraced = List.map (fun (u, _, _, _, _) -> u) pairs in
  let traced = List.map (fun (_, tr, _, _, _) -> tr) pairs in
  let part_s name =
    median
      (List.map
         (fun (_, _, _, _, parts) ->
           Option.value ~default:0. (Hashtbl.find_opt parts name))
         pairs)
  in
  let c = Option.get !count in
  let p = float_of_int (List.length traced) in
  let per_pass x = x /. p in
  let layer prefix =
    let s, n = Spans.agg_total t prefix in
    (per_pass s, per_pass (float_of_int n))
  in
  let self name =
    per_pass
      (List.fold_left
         (fun acc s -> acc +. Spans.self_time t s)
         0. (Spans.spans_named t name))
  in
  let self_of_job name job =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.job = job then acc +. Spans.self_time t s else acc)
      0. (Spans.spans_named t name)
  in
  (* The standalone enumeration walk, once per scan job. *)
  let bases, deltas =
    List.fold_left
      (fun (b, d) (id, walk) ->
        let b', d' =
          Spans.with_job t id (fun () -> Spans.span t "enumerate.walk" walk)
        in
        (b + b', d + d'))
      (0, 0) env.walks
  in
  let enumerate_s = span_sum "enumerate.walk" (Spans.spans t) in
  let checker_scan =
    per_pass (span_sum "checker.check_exhaustive" (Spans.spans t))
  in
  let eval_s, eval_calls = layer "query.eval" in
  let stage_s, _ = layer "witness.stage" in
  let probe_s, probe_calls = layer "witness.probe" in
  let mat_s, mat_calls = layer "ivm.materialize" in
  let apply_s, apply_calls = layer "ivm.apply" in
  let tq_s, tq_calls = layer "transducer." in
  let fault_overhead =
    per_pass
      (List.fold_left
         (fun acc (faulty, twin) ->
           acc +. self_of_job "run.run" faulty -. self_of_job "run.run" twin)
         0. env.twins)
  in
  let run_self = self "run.run" -. fault_overhead in
  let transitions = c "net.transitions" in
  let expanded = c "explore.expanded" in
  let dedup = c "explore.dedup_hits" in
  let probes = c "monotone.probes" in
  let alloc = median (List.map (fun (_, _, a, _, _) -> a) pairs) in
  let majors = median (List.map (fun (_, _, _, n, _) -> n) pairs) in
  let ms =
    List.map
      (fun (p : Workloads.t) ->
        m ("part." ^ p.name ^ "_s") "s" (part_s p.name)
          ~note:"median wall of its jobs in an untraced pass")
      Workloads.parts
    @ [
      m "parser.parse_s" "s" (span_sum "parser.parse_program" setup_spans);
      m "joindb.plan_s" "s" (span_sum "joindb.plan_program" setup_spans);
      m "enumerate.s" "s" enumerate_s;
      m "enumerate.bases" "count" (float_of_int bases);
      m "enumerate.deltas" "count" (float_of_int deltas);
      m "checker.scan_s" "s" checker_scan;
      m "checker.self_s" "s" (self "checker.check_exhaustive");
      m "checker.probes" "count" probes;
      m "checker.cache_hit_ratio" "ratio"
        (ratio (c "monotone.cache_hits") probes);
      m "query.eval_s" "s" eval_s;
      m "query.eval_calls" "count" eval_calls;
      m "witness.stage_s" "s" stage_s;
      m "witness.probe_s" "s" probe_s;
      m "witness.probe_calls" "count" probe_calls;
      m "ivm.materialize_s" "s" mat_s;
      m "ivm.materialize_calls" "count" mat_calls;
      m "ivm.apply_s" "s" apply_s;
      m "ivm.apply_calls" "count" apply_calls;
      m "ivm.rederived_per_apply" "facts/apply"
        (ratio (c "eval.ivm_rederived") (c "eval.ivm_applies"));
      m "ivm.hit_ratio" "ratio" (ratio (c "monotone.ivm_hits") probes);
      m "eval.join_probes" "count" (c "eval.join_probes");
      m "eval.index_hit_ratio" "ratio"
        (ratio (c "eval.index_hits") (c "eval.join_probes"));
      m "transducer.query_s" "s" tq_s;
      m "transducer.calls" "count" tq_calls;
      m "explore.self_s" "s" (self "explore.check");
      m "explore.expanded" "count" expanded;
      m "explore.dedup_ratio" "ratio" (ratio dedup (expanded +. dedup));
      m "explore.calls_per_config" "calls/config" (ratio tq_calls expanded);
      m "config.transitions" "count" transitions;
      m "config.messages_sent" "count" (c "net.messages_sent");
      m "config.deliveries" "count" (c "net.deliveries");
      m "config.self_us_per_transition" "us"
        (ratio (run_self *. 1e6) transitions);
      m "run.rounds" "count" (c "net.rounds");
      m "run.self_s" "s" run_self;
      m "fault.overhead_s" "s" fault_overhead;
      m "fault.dup_deliveries" "count" (c "network.dup_deliveries");
      m "fault.dropped" "count" (c "network.dropped");
      m "fault.crashes" "count" (c "network.crashes");
      m "fault.partition_rounds" "count" (c "network.partition_rounds");
      m "gc.alloc_mb_per_pass" "MiB/pass" (alloc /. 1048576.);
      m "gc.major_collections_per_pass" "count/pass" majors;
      m "trace.overhead_frac" "ratio"
        (ratio (median traced) (median untraced) -. 1.)
        ~note:
          (Printf.sprintf "traced n=%d vs untraced n=%d" (List.length traced)
             (List.length untraced));
    ]
  in
  let chrome = Spans.to_chrome (setup_spans @ Spans.spans t) ~origin in
  ( env,
    ms,
    [
      ("untraced_pass_samples_s", floats untraced);
      ("traced_pass_samples_s", floats traced);
      ("aggregates", Spans.aggs_json t);
    ],
    Some chrome )

(* {1 Output} *)

let results_dir = Filename.concat "perfbench" "results"

let write file contents =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let path = Filename.concat results_dir file in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents);
  path

let run_workload args (w : Workloads.t) =
  let tally = { attempted = 0; failed = 0; failures = [] } in
  let env, ms, detail, chrome =
    (if args.trace then per_layer else end_to_end) args w tally
  in
  (* Printed and stored, but not a declared metric: it is 0 whenever the
     program is right, and the result line carries attempted/failed. *)
  let extra =
    [
      m "failed_frac" "ratio"
        (ratio (float_of_int tally.failed) (float_of_int tally.attempted))
        ~note:(Printf.sprintf "%d of %d jobs" tally.failed tally.attempted);
    ]
  in
  let stem =
    Printf.sprintf "%s-trace%d-seed%d" w.name
      (if args.trace then 1 else 0)
      args.seed
  in
  let trace_file =
    Option.map (fun doc -> write (stem ^ ".chrome.json") doc) chrome
  in
  let doc =
    Observe.Json.Obj
      ([
         ("schema", Observe.Json.String "calm-perfbench/v1");
         ("workload", Observe.Json.String w.name);
         ("trace", Observe.Json.Bool args.trace);
         ("seconds", Observe.Json.Float args.seconds);
         ("fingerprint", Observe.Json.Obj (fingerprint args.seed));
         ( "jobs",
           Observe.Json.List
             (List.map
                (fun j ->
                  Observe.Json.Obj
                    [
                      ("id", Observe.Json.String j.id);
                      ("expected", Observe.Json.String j.expected);
                    ])
                env.jobs) );
         ("attempted", Observe.Json.Int tally.attempted);
         ("failed", Observe.Json.Int tally.failed);
         ( "failures",
           Observe.Json.Obj
             (List.rev_map
                (fun (id, msg) -> (id, Observe.Json.String msg))
                tally.failures) );
         ("metrics", metrics_json (ms @ extra));
       ]
      @ detail
      @
      match trace_file with
      | Some f -> [ ("chrome_trace", Observe.Json.String f) ]
      | None -> [])
  in
  let file =
    write (stem ^ ".json") (Observe.Json.to_string_pretty doc ^ "\n")
  in
  print_metrics w.name (ms @ extra);
  Printf.printf "%-14s results in %s%s\n%!" w.name file
    (match trace_file with Some f -> ", trace in " ^ f | None -> "");
  (tally, ms)

let () =
  let args = parse_args () in
  let chosen =
    if args.workload = "all" then Workloads.declared
    else
      match Workloads.find args.workload with
      | Some w -> [ w ]
      | None ->
        Printf.eprintf "unknown workload %S (known: %s, all)\n" args.workload
          (String.concat ", "
             (List.map
                (fun (w : Workloads.t) -> w.name)
                (Workloads.declared @ Workloads.parts)));
        exit 2
  in
  Printf.printf "fingerprint: %s\n%!"
    (Observe.Json.to_string (Observe.Json.Obj (fingerprint args.seed)));
  let results = List.map (fun w -> (w, run_workload args w)) chosen in
  let attempted, failed =
    List.fold_left
      (fun (a, f) (_, (t, _)) -> (a + t.attempted, f + t.failed))
      (0, 0) results
  in
  let metrics =
    List.concat_map
      (fun ((w : Workloads.t), (_, ms)) ->
        if List.length chosen = 1 then ms
        else List.map (fun x -> { x with name = w.name ^ "." ^ x.name }) ms)
      results
  in
  print_endline
    (Observe.Json.to_string
       (Observe.Json.Obj
          [
            ("correct", Observe.Json.Bool (failed = 0));
            ("attempted", Observe.Json.Int attempted);
            ("failed", Observe.Json.Int failed);
            ("metrics", metrics_json metrics);
          ]));
  if failed > 0 then exit 1
