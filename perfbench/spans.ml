(* In-memory span recorder for the traced run, driven from outside the
   program: the benchmark opens a span around each call it makes into a
   layer's public entry point, and wraps the closures the program already
   exposes ([Query.t] and [Transducer.t] fields) in per-call timers.

   Entry-point spans are kept one by one. Per-call wrappers run hundreds
   of thousands of times per pass, so they aggregate into one total per
   (job, layer, parent span) instead of storing each call. Nothing is
   written until the run ends. *)

open Relational

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  job : string;
  name : string;
  start : float;
  mutable stop : float;
}

type agg = {
  a_epoch : int;
  a_job : string;
  a_layer : string;
  a_parent : int;
  mutable calls : int;
  mutable total : float;
}

type t = {
  mutable spans : span list;  (** finished, newest first *)
  mutable stack : span list;  (** open spans, innermost first *)
  mutable aggs : agg list;
  mutable next : int;
  mutable job : string;
  mutable epoch : int;  (** bumped by [clear], retiring cached aggregates *)
}

let create () =
  { spans = []; stack = []; aggs = []; next = 1; job = ""; epoch = 0 }

(* Drop what was recorded so far (set-up and warm-up work). *)
let clear t =
  t.spans <- [];
  t.aggs <- [];
  t.epoch <- t.epoch + 1

let now = Unix.gettimeofday
let parent_id t = match t.stack with s :: _ -> s.id | [] -> 0

let span t name f =
  let s =
    { id = t.next; parent = parent_id t; job = t.job; name; start = now ();
      stop = nan }
  in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  let finish () =
    s.stop <- now ();
    t.stack <- List.tl t.stack;
    t.spans <- s :: t.spans
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* Run [f] as job [job]: every span and aggregate recorded inside carries
   the job id. *)
let with_job t job f =
  let saved = t.job in
  t.job <- job;
  Fun.protect ~finally:(fun () -> t.job <- saved) f

(* A per-call timer for one layer. It remembers the aggregate of the last
   (job, parent) it charged, so a hot closure pays a comparison, not a
   lookup, per call. *)
type handle = { layer : string; tracer : t; mutable cur : agg option }

let handle tracer layer = { layer; tracer; cur = None }

let charge h t0 =
  let dt = now () -. t0 in
  let tr = h.tracer in
  let parent = parent_id tr in
  let a =
    match h.cur with
    | Some a
      when a.a_parent = parent && a.a_epoch = tr.epoch && a.a_job == tr.job ->
      a
    | _ ->
      let a =
        {
          a_epoch = tr.epoch;
          a_job = tr.job;
          a_layer = h.layer;
          a_parent = parent;
          calls = 0;
          total = 0.;
        }
      in
      tr.aggs <- a :: tr.aggs;
      h.cur <- Some a;
      a
  in
  a.calls <- a.calls + 1;
  a.total <- a.total +. dt

let timed h f x =
  let t0 = now () in
  match f x with
  | v -> charge h t0; v
  | exception e -> charge h t0; raise e

(* [Query.t] with its eval, witness and maintain closures timed as the
   layers query.eval, witness.stage/witness.probe and
   ivm.materialize/ivm.apply. *)
let query t (q : Query.t) : Query.t =
  let h_eval = handle t "query.eval"
  and h_stage = handle t "witness.stage"
  and h_probe = handle t "witness.probe"
  and h_mat = handle t "ivm.materialize"
  and h_apply = handle t "ivm.apply" in
  let witness =
    Option.map
      (fun w ~base ~expected ->
        let probe = timed h_stage (fun () -> w ~base ~expected) () in
        timed h_probe probe)
      q.witness
  in
  let maintain =
    Option.map
      (fun m base ->
        let app = timed h_mat m base in
        timed h_apply app)
      q.maintain
  in
  { q with eval = timed h_eval q.eval; witness; maintain }

(* [Transducer.t] with its four local queries timed under the layer
   transducer.<field>. *)
let transducer t (tr : Network.Transducer.t) : Network.Transducer.t =
  let w name f = timed (handle t ("transducer." ^ name)) f in
  {
    tr with
    q_out = w "q_out" tr.q_out;
    q_ins = w "q_ins" tr.q_ins;
    q_del = w "q_del" tr.q_del;
    q_snd = w "q_snd" tr.q_snd;
  }

(* {1 Reading the record} *)

let duration s = s.stop -. s.start
let spans t = List.rev t.spans
let aggs t = List.rev t.aggs

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Total time and calls of the aggregated layers whose name starts with
   [prefix]. *)
let agg_total t prefix =
  List.fold_left
    (fun (s, n) a ->
      if has_prefix prefix a.a_layer then (s +. a.total, n + a.calls)
      else (s, n))
    (0., 0) t.aggs

let spans_named t name = List.filter (fun s -> s.name = name) t.spans

(* Self time of a span: its duration minus what its child spans and the
   aggregated calls charged to it cover. *)
let self_time t s =
  let children =
    List.fold_left
      (fun acc c -> if c.parent = s.id then acc +. duration c else acc)
      0. t.spans
  in
  let calls =
    List.fold_left
      (fun acc a -> if a.a_parent = s.id then acc +. a.total else acc)
      0. t.aggs
  in
  duration s -. children -. calls

(* {1 Export through the program's own writers} *)

let to_chrome spans ~origin =
  Observe.Sink.to_chrome
    (List.map
       (fun s ->
         {
           Observe.Sink.ts = s.start -. origin;
           dur = Some (duration s);
           track = "main";
           cat = (match String.index_opt s.name '.' with
                  | Some i -> String.sub s.name 0 i
                  | None -> s.name);
           name = s.name;
           args =
             [
               ("id", Observe.Json.Int s.id);
               ("parent", Observe.Json.Int s.parent);
               ("job", Observe.Json.String s.job);
             ];
         })
       spans)

let aggs_json t =
  Observe.Json.List
    (List.map
       (fun a ->
         Observe.Json.Obj
           [
             ("job", Observe.Json.String a.a_job);
             ("layer", Observe.Json.String a.a_layer);
             ("parent", Observe.Json.Int a.a_parent);
             ("calls", Observe.Json.Int a.calls);
             ("total_s", Observe.Json.Float a.total);
           ])
       (aggs t))
