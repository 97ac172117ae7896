type t = { rel : string; args : Value.t array }

let make rel args =
  if args = [] then invalid_arg "Fact.make: nullary facts are not supported";
  { rel; args = Array.of_list args }

let make_array rel args =
  if Array.length args = 0 then
    invalid_arg "Fact.make_array: nullary facts are not supported";
  { rel; args }

let rel f = f.rel
let args f = Array.to_list f.args
let arity f = Array.length f.args
let arg f i = f.args.(i)

(* A top-level loop rather than a local closure: set operations call
   this on every node they visit. *)
let rec compare_args a b i =
  if i = Array.length a then 0
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_args a b (i + 1)

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c
  else
    let c = Int.compare (Array.length a.args) (Array.length b.args) in
    if c <> 0 then c else compare_args a.args b.args 0

let equal a b = compare a b = 0
let hash f = Hashtbl.hash (f.rel, Array.map Value.hash f.args)

let adom f =
  Array.fold_left (fun acc v -> Value.Set.add v acc) Value.Set.empty f.args

let map_values g f = { f with args = Array.map g f.args }
let is_invented f = Array.exists Value.is_invented f.args

let to_string f =
  Printf.sprintf "%s(%s)" f.rel
    (String.concat "," (Array.to_list (Array.map Value.to_string f.args)))

let pp ppf f = Format.pp_print_string ppf (to_string f)

let of_string s =
  let s = String.trim s in
  match String.index_opt s '(' with
  | None -> invalid_arg ("Fact.of_string: missing '(' in " ^ s)
  | Some i ->
    if String.length s = 0 || s.[String.length s - 1] <> ')' then
      invalid_arg ("Fact.of_string: missing ')' in " ^ s);
    let rel = String.trim (String.sub s 0 i) in
    let inner = String.sub s (i + 1) (String.length s - i - 2) in
    let parts = String.split_on_char ',' inner in
    let vals = List.map (fun p -> Value.of_string (String.trim p)) parts in
    if rel = "" || List.exists (fun v -> Value.to_string v = "") vals then
      invalid_arg ("Fact.of_string: bad fact " ^ s);
    make rel vals

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
