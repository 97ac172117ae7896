(** Trajectory reporting: aggregate the committed bench history
    ([BENCH_*.json]) plus optional metrics / series / profile artifacts
    into a self-contained HTML dashboard, a markdown summary, and a
    whole-history regression diff.

    Everything is hand-rolled on {!Json}: no external dependencies, and
    the dashboard's sparklines are inline SVG, so the output is a single
    file that renders offline. *)

val guard_metrics : string list
(** The stable metric rows guarded against drift — deterministic by
    construction (jobs- and cache-invariant), shared with the CLI's
    [bench-diff]. *)

type experiment = {
  id : string;
  wall_s : float;
  metrics : (string * Json.t) list;
}

type bench = {
  path : string;
  quick : bool;
  jobs : int;
  experiments : experiment list;
}

val load_bench : path:string -> string -> (bench, string) result
(** Parse and schema-validate one [calm-bench/v1] artifact. Rejects
    non-finite [wall_s] values (e.g. a crafted ["1e999"], which parses
    to infinity) with a clear error instead of reporting on them. *)

val experiment_of_rows :
  id:string -> wall_s:float -> Metrics.row list -> experiment
(** One bench entry from a metrics snapshot: each row keyed by its name
    and {!Metrics.label_string}, counters as their total, gauges as
    their last value, histograms and timings as their sum. *)

val bench_to_json : bench -> Json.t
(** The [calm-bench/v1] document ([path] is not part of it). Printed
    with {!Json.to_string_pretty} plus a newline, it is the exact text
    [bench --json] writes, and what {!load_bench} reads back. *)

(** {1 Regression diff} *)

type regression = {
  from_file : string;
  to_file : string;
  experiment : string;
  metric : string;  (** ["wall_s"] or a {!guard_metrics} name *)
  before : string;
  after : string;
}

val default_threshold : float
(** [1.0]: wall clock may at most double between consecutive files. *)

val diff : ?threshold:float -> bench list -> regression list * int
(** Scan consecutive pairs of the chronologically ordered history.
    A guard metric regresses when present on both sides and unequal
    (newly appearing metrics are instrumentation growth, not drift);
    [wall_s] regresses when it grows by more than [threshold]
    (relative). Returns the regressions and the number of comparisons
    made. *)

val render_diff : regression list -> int -> string
(** Human-readable (markdown-table) rendering of a {!diff} result. *)

(** {1 Renderers} *)

val markdown : bench list -> string
(** Markdown summary: per-file inventory, wall-clock trajectory table,
    guarded metric values of the latest file. *)

val html :
  ?series:string -> ?metrics:Json.t -> ?profile:Json.t -> bench list -> string
(** The dashboard. [series] is the raw [calm-series/v1] JSONL contents
    (each series becomes a sparkline row); [metrics] / [profile] are
    parsed artifact documents included verbatim as pretty-printed
    sections. *)
